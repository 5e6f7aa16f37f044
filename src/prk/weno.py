"""WENO5 reconstruction kernels (classic smoothness-weighted stencils).

All kernels act on the last axis and expect arrays padded with three
ghost cells on each side, so a line of ``m`` cells comes in with length
``m + 6`` (at least 6) and produces values at the ``m + 1`` interfaces.

The kernels are bitwise equal to the textbook evaluation of the five-cell
formula (Jiang & Shu's indicators, written out in :func:`_numpy_left`), and
that equality is part of their contract.  Only the left bias is ever
evaluated.  The right-biased value of a line is bitwise the left-biased
value of its mirror image, which hands the formula the same cells in the
same roles.  So :func:`interface_states` and :func:`llf_split_flux` make
one left-biased pass over two rows: the line (or the ``+`` part of the
split), then the mirror image of the line (or of the ``-`` part).  The
first row's ``m + 1`` values are the left bias and the second row's, read
backwards, the right bias.

Two kernels evaluate the formula with the same bits, and read as one
program: ``weno5_left`` in ``_weno5.c`` and its numpy twin
:func:`_numpy_left`, which does the same IEEE operations in the same
order with the same helpers.  The first kernel call of a process builds
the C one with the system ``cc -O3 -ffp-contract=off -fno-fast-math
-shared -fPIC`` (no ``-march``, and no fused multiply-add, which rounds
once where the twin rounds twice) into ``$XDG_CACHE_HOME/prk`` or
``~/.cache/prk`` (mode 0700), or finds it there, and loads it with
``ctypes`` (:func:`_compiled_kernel` keeps that cache).  Without a
compiler, when the build fails or when the cache cannot be used, the
process runs the numpy twin, the compiled kernel's bitwise oracle in
the tests.  The choice is made once per process, with no option and no
output; the read-only ``KERNEL`` (``"c"`` or ``"numpy"``) says which
kernel runs.  The compiled kernel raises no numpy floating-point
warnings, so a diverging run can print fewer ``RuntimeWarning`` lines;
its values are the same.  The twin is written to be read next to the
C, not for speed: per :func:`edge_from_left` call it takes 3 to 18
times as long as the C kernel, the most on short lines (timings in the
README).

Each line shape gets a plan that holds the line and its values, about 2
floats per value; a call copies its line in and returns a fresh array.
A process keeps one cache of plans by shape, bound to its kernel, up to a
fixed budget of bytes, and the oldest go first when a new one does not
fit; a plan larger than the budget is built, used and not kept.  The
cache is not safe for two threads at once, and a forked process gets its
own copy.
"""

from __future__ import annotations

import functools
import os
import sys
import types
from pathlib import Path

import numpy as np

__all__ = ["WENO_EPS", "KERNEL", "pad_periodic", "edge_from_left", "interface_states",
           "llf_split_flux"]

WENO_EPS = 1e-6  # regularization in the nonlinear weights

# a float as a read-only 0-d float64 array, the cheapest constant operand
_constant = functools.partial(np.broadcast_to, shape=())

# The plan cache keeps at most this many bytes of plans, a few under 1 MB
# each for the package's own.  A plan is charged its buffers and 2.5 KB for
# the rest: tracemalloc (Python 3.11, numpy 2.4.6) measures 408 bytes for a
# numpy plan, 1,064 for a compiled one, 2,160 for the first of a process.
_PLAN_CACHE_BYTES = 32 * 2**20
_PLAN_OBJECT_BYTES = 2560


def pad_periodic(u: np.ndarray) -> np.ndarray:
    """The lines of ``u`` with three periodic ghost cells on each side."""
    return u.take(_periodic_index(u.shape[-1]), axis=-1)


@functools.lru_cache(maxsize=128)
def _periodic_index(m: int) -> np.ndarray:
    """Cells read by :func:`pad_periodic` on a line of ``m`` cells: the
    last three, all ``m``, then the first three, wrapping around a line
    shorter than three cells as often as it takes."""
    if m < 1:
        raise ValueError("pad_periodic needs a line of at least 1 cell, got length 0")
    index = np.arange(-3, m + 3) % m
    index.flags.writeable = False  # one cached array serves every caller
    return index


class _Plan:
    """The line and values of one line shape, and ``run``, the call of
    ``kernel`` (the compiled ``weno5_left``, or :func:`_numpy_left` if
    None) that fills the values from the line, its arguments bound once:
    taking an array's address costs about 0.7 us."""

    def __init__(self, shape: tuple, kernel=None):
        _check_line(shape)
        self.line = np.empty(shape)
        self.values = np.empty(shape[:-1] + (shape[-1] - 5,))
        self.nbytes = _PLAN_OBJECT_BYTES + self.line.nbytes + self.values.nbytes
        if kernel is None:
            self.run = functools.partial(_numpy_left, self.line, self.values)
        else:
            lines = self.line.size // shape[-1]
            args = self.line.ctypes.data, lines, shape[-1], self.values.ctypes.data
            self.run = functools.partial(
                kernel, *(kind(a) for kind, a in zip(kernel.argtypes, args)))


def _curvature(a, b, c):
    """13/12 ((a - 2b) + c)^2: the curvature term of the window (a, b, c)."""
    t = (a - 2.0 * b) + c
    return (t * t) * (13.0 / 12.0)


def _quarter_square(t):
    return (t * t) * 0.25


def _weight(gamma, beta):
    t = beta + WENO_EPS
    return gamma / (t * t)


def _numpy_left(w: np.ndarray, out: np.ndarray) -> None:
    """``weno5_left`` of ``_weno5.c`` in numpy, by the same IEEE operations
    in the same order: with ``(a, b, c, d, e)`` the cells ``k..k+4`` of
    interface ``k`` of the padded lines ``w``, ``out[k]`` is

        p0 = (2a - 7b + 11c) / 6
        p1 = (-b + 5c + 2d) / 6
        p2 = (2c + 5d - e) / 6
        beta0 = 13/12 (a - 2b + c)^2 + 1/4 (a - 4b + 3c)^2
        beta1 = 13/12 (b - 2c + d)^2 + 1/4 (b - d)^2
        beta2 = 13/12 (c - 2d + e)^2 + 1/4 (3c - 4d + e)^2
        alpha_k = gamma_k / (eps + beta_k)^2
        (alpha0 p0 + alpha1 p1 + alpha2 p2) / (alpha0 + alpha1 + alpha2)

    left to right, where commuting the two operands of one ``+`` or ``*``
    is exact and ``-b + 5c`` is ``5c - b`` exactly."""
    n = w.shape[-1] - 5
    a, b, c, d, e = (w[..., k:k + n] for k in range(5))
    alpha0 = _weight(0.1, _quarter_square((a - 4.0 * b) + 3.0 * c) + _curvature(a, b, c))
    alpha1 = _weight(0.6, _curvature(b, c, d) + _quarter_square(b - d))
    alpha2 = _weight(0.3, _quarter_square((3.0 * c - 4.0 * d) + e) + _curvature(c, d, e))
    p0 = ((2.0 * a - 7.0 * b) + 11.0 * c) / 6.0
    p1 = ((5.0 * c - b) + 2.0 * d) / 6.0
    p2 = ((2.0 * c + 5.0 * d) - e) / 6.0
    np.divide((p0 * alpha0 + p1 * alpha1) + p2 * alpha2, (alpha0 + alpha1) + alpha2, out)


class _PlanCache(dict):
    """Plans by line shape, each made by ``build(shape)``, holding at most
    ``budget`` bytes of plans in all and dropping the oldest first; a
    larger plan is built and not kept."""

    def __init__(self, budget: int, build):
        super().__init__()
        self.budget, self.nbytes, self.build = budget, 0, build

    def __missing__(self, shape: tuple) -> _Plan:
        plan = self.build(shape)
        if plan.nbytes <= self.budget:
            self.nbytes += plan.nbytes
            while self.nbytes > self.budget:
                self.nbytes -= self.pop(next(iter(self))).nbytes
            self[shape] = plan
        return plan


_SOURCE = Path(__file__).with_name("_weno5.c")
_CFLAGS = ("-O3", "-ffp-contract=off", "-fno-fast-math", "-shared", "-fPIC")


def _compiled_kernel():
    """``weno5_left`` of ``_weno5.c``, compiled by the system ``cc`` into
    the user's cache on first use; None if it cannot be built or loaded.

    A library's name holds the digest of its source, flags and machine,
    and the digest of its own bytes, which is checked before it is loaded:
    loading a damaged library can kill the process.  A cached library
    that fails the check is deleted and built again."""
    import ctypes
    import platform
    import tempfile

    try:
        base = os.environ.get("XDG_CACHE_HOME", "")
        cache = (Path(base) if os.path.isabs(base) else Path.home() / ".cache") / "prk"
        cache.mkdir(mode=0o700, parents=True, exist_ok=True)
        owner = cache.stat()
        if owner.st_uid != os.getuid() or owner.st_mode & 0o022:
            raise PermissionError(f"{cache} is writable by other users")
        stem = "weno5-" + _digest(_SOURCE.read_bytes(), " ".join(_CFLAGS).encode(),
                                  platform.machine().encode())

        def intact(library: Path) -> bool:
            return library.name == f"{stem}-{_digest(library.read_bytes())}.so"

        library = min(cache.glob(stem + "-*.so"), default=None)
        if library is not None and not intact(library):
            library.unlink(missing_ok=True)  # never loaded; a build replaces it
            library = None
        if library is None:
            # build under a temporary name, so no process loads a partial file
            fd, built = tempfile.mkstemp(suffix=".so", dir=cache)
            os.close(fd)
            try:
                _compile(built)
                library = cache / f"{stem}-{_digest(Path(built).read_bytes())}.so"
                os.replace(built, library)
            finally:
                Path(built).unlink(missing_ok=True)
        if not intact(library):
            raise OSError(f"{library} does not match its digest")
        kernel = ctypes.CDLL(str(library)).weno5_left
    except (OSError, RuntimeError):
        return None
    kernel.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_size_t, ctypes.c_void_p)
    kernel.restype = None
    return kernel


def _compile(target: str) -> None:
    """Compile ``_weno5.c`` into the library ``target``, or raise OSError."""
    import subprocess

    try:
        subprocess.run(["cc", *_CFLAGS, "-o", target, str(_SOURCE)], check=True,
                       stdin=subprocess.DEVNULL, capture_output=True, timeout=300)
    except subprocess.SubprocessError as exc:
        raise OSError(f"cc failed: {exc}") from None


def _digest(*parts: bytes) -> str:
    """The first 16 hex digits of the sha256 of ``parts``.  CPython's own
    sha256 module is preferred, as ``random`` does for sha512: ``hashlib``
    loads OpenSSL, 3.6 MB of resident memory."""
    try:
        from _sha2 import sha256  # Python 3.12 and later
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256(b"\0".join(parts)).hexdigest()[:16]


@functools.cache
def _kernel_plans() -> _PlanCache:
    """This process's plan cache, bound at the first call to the compiled
    kernel if it builds and loads, else to the numpy kernel."""
    return _PlanCache(_PLAN_CACHE_BYTES, functools.partial(_Plan, kernel=_compiled_kernel()))


class _Module(types.ModuleType):
    @property
    def KERNEL(self) -> str:
        """``"c"`` or ``"numpy"``: the kernel this process uses."""
        return "numpy" if _kernel_plans().build.keywords["kernel"] is None else "c"


sys.modules[__name__].__class__ = _Module


def _check_line(shape: tuple) -> None:
    if not shape or shape[-1] < 6:
        got = f"length {shape[-1]}" if shape else "a 0-d input"
        raise ValueError(f"WENO5 needs a padded line of at least 6 values, got {got}")


def edge_from_left(w: np.ndarray) -> np.ndarray:
    """Left-biased interface values from a padded line.

    For interfaces ``i = 0..m`` this uses cells ``i-3..i+1`` and returns
    the reconstruction at the right edge of cell ``i-1`` (the upwind value
    for positive wind).
    """
    plan = _kernel_plans()[w.shape]
    np.copyto(plan.line, w)
    plan.run()
    return plan.values.copy()


def _two_sided(first, second) -> tuple[np.ndarray, np.ndarray]:
    """The left-biased values of ``first`` and the right-biased values of
    ``second``, lines of one shape: one pass over two rows, ``first`` and
    the mirror image of ``second``, returned as two views of one fresh
    array that do not overlap."""
    _check_line(first.shape)
    plan = _kernel_plans()[(2,) + first.shape]
    np.copyto(plan.line[0], first)
    np.copyto(plan.line[1, ..., ::-1], second)
    plan.run()
    values = plan.values.copy()
    return values[0], values[1, ..., ::-1]


def interface_states(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reconstructed left/right states ``(u_minus, u_plus)`` at all interfaces.

    ``u_minus`` is :func:`edge_from_left` of ``w``; ``u_plus``, the right
    bias, is :func:`edge_from_left` of ``w`` reversed, read backwards.  One
    left-biased pass over ``w`` and its mirror image gives both, as two
    views of one fresh array that do not overlap.
    """
    return _two_sided(w, w)


def llf_split_flux(phi_pad: np.ndarray, u_pad: np.ndarray, alpha) -> np.ndarray:
    """Interface fluxes via Lax-Friedrichs flux splitting.

    ``phi_pad`` holds pointwise fluxes and ``u_pad`` the states, both
    padded; ``alpha`` is the dissipation speed (scalar or broadcastable
    against the padded line).  The split parts ``(phi +/- alpha u)/2``
    are reconstructed with opposite bias and summed: one left-biased pass
    over ``fplus`` and the mirror image of ``fminus``.
    """
    spread = alpha * u_pad
    left, right = _two_sided((phi_pad + spread) * 0.5, (phi_pad - spread) * 0.5)
    return left + right
