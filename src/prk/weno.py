"""WENO5 reconstruction kernels (classic smoothness-weighted stencils).

The public kernels act on the last axis and expect arrays padded with
three ghost cells on each side, so a line of ``m`` cells comes in with
length ``m + 6`` (at least 6) and produces values at the ``m + 1``
interfaces.

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
``ctypes`` (:func:`_kernel_library` keeps it).  Without a
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

The 1D periodic problems of :mod:`prk.spatial` make one kernel call per
flux, through :func:`periodic_call`, over buffers they own: a state of
``m >= 3`` cells, its padded line of ``m + 6`` values and the ``m + 1``
results.  ``weno5_periodic`` pads the line (three ``memcpy``) and writes
its left-biased values; ``burgers_llf_periodic`` pads it and writes
Burgers' local Lax-Friedrichs fluxes ``(f(u-) + f(u+) + alpha (u- - u+))
/ 2``, ``alpha = max(|u-|, |u+|)``, reading ``u+`` off the padded line
backwards (cells ``k+5`` down to ``k+1``, the mirror image without a
copy).  Their numpy twins are the periodic pad followed by
:func:`_numpy_left`, and the same LLF expression, by the same IEEE
operations.  Per flux call on the compiled kernel (2-vCPU Xeon VM, gcc
12.2, numpy 2.4.6, medians over 5 alternating processes of the best of 7
``timeit`` repeats; copy in and fresh result included), Burgers took 9.9
us at m = 400 and 38.6 us at m = 2000, against 25.9 and 67.7 us through
:func:`interface_states` and numpy arithmetic; WENO5 advection took 3.3
us at m = 100 and 9.3 us at m = 800, against 4.9 and 12.4 us through
:func:`pad_periodic` and :func:`edge_from_left`.

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
           "llf_split_flux", "periodic_call"]

WENO_EPS = 1e-6  # regularization in the nonlinear weights

# a float as a read-only 0-d float64 array, the cheapest constant operand
_constant = functools.partial(np.broadcast_to, shape=())
_HALF = _constant(0.5)

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
    None) that fills the values from the line, its arguments bound once."""

    def __init__(self, shape: tuple, kernel=None):
        _check_line(shape)
        self.line = np.empty(shape)
        self.values = np.empty(shape[:-1] + (shape[-1] - 5,))
        self.nbytes = _PLAN_OBJECT_BYTES + self.line.nbytes + self.values.nbytes
        if kernel is None:
            self.run = functools.partial(_numpy_left, self.line, self.values)
        else:
            lines = self.line.size // shape[-1]
            self.run = _bound(kernel, self.line, lines, shape[-1], self.values)


def _bound(entry, *args):
    """The call of the compiled ``entry`` with ``args``, arrays by address,
    each converted to its argument type once: taking an array's address
    costs about 0.7 us."""
    args = (a.ctypes.data if isinstance(a, np.ndarray) else a for a in args)
    return functools.partial(entry, *(kind(a) for kind, a in zip(entry.argtypes, args)))


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


def _numpy_weno5_periodic(v: np.ndarray, line: np.ndarray, out: np.ndarray) -> None:
    """``weno5_periodic`` of ``_weno5.c`` in numpy: ``line`` gets the cells
    ``v`` of a periodic line with three ghost cells a side, and ``out`` the
    left-biased values at its interfaces."""
    v.take(_periodic_index(v.size), out=line)
    _numpy_left(line, out)


def _numpy_burgers_llf_periodic(v: np.ndarray, line: np.ndarray, out: np.ndarray) -> None:
    """``burgers_llf_periodic`` of ``_weno5.c`` in numpy: the local
    Lax-Friedrichs fluxes ``(f(u-) + f(u+) + alpha (u- - u+)) / 2`` of
    Burgers' ``f(u) = u^2 / 2`` at the interfaces of the periodic line
    ``v``, with ``alpha = max(|u-|, |u+|)``; ``u+`` is the left-biased
    value of the mirror image, read backwards.  ``line`` gets the padded
    line, as in :func:`_numpy_weno5_periodic`."""
    v.take(_periodic_index(v.size), out=line)
    um, mirrored = np.empty((2, v.size + 1))
    _numpy_left(line, um)
    _numpy_left(line[::-1], mirrored)
    up = mirrored[::-1]
    alpha = np.maximum(np.abs(um), np.abs(up))
    np.multiply(_HALF, _HALF * um**2 + _HALF * up**2 + alpha * (um - up), out)


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


@functools.cache
def _kernel_library():
    """This process's ``_weno5.c``, compiled by the system ``cc`` into the
    user's cache at the first call, or found there, and loaded, with the
    argument types of its entries set; None if it cannot be built or
    loaded, and the numpy twins run.

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
        library = ctypes.CDLL(str(library))
    except (OSError, RuntimeError):
        return None
    size, address = ctypes.c_size_t, ctypes.c_void_p
    for name, argtypes in (("weno5_left", (address, size, size, address)),
                           ("weno5_periodic", (address, size, address, address)),
                           ("burgers_llf_periodic", (address, size, address, address))):
        entry = getattr(library, name)
        entry.argtypes, entry.restype = argtypes, None
    return library


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
    """This process's plan cache, bound to the compiled ``weno5_left`` if
    the library builds and loads, else to :func:`_numpy_left`."""
    library = _kernel_library()
    kernel = None if library is None else library.weno5_left
    return _PlanCache(_PLAN_CACHE_BYTES, functools.partial(_Plan, kernel=kernel))


# the numpy twins of the entries of _weno5.c over one periodic line
_PERIODIC_TWINS = {"weno5_periodic": _numpy_weno5_periodic,
                   "burgers_llf_periodic": _numpy_burgers_llf_periodic}


def periodic_call(entry: str, v: np.ndarray, line: np.ndarray, out: np.ndarray):
    """The call of ``entry`` (``"weno5_periodic"`` or
    ``"burgers_llf_periodic"``) on the cells ``v`` of one periodic line, of
    this process's kernel, with its arguments bound once: it pads ``v``
    into ``line`` and writes the interface values into ``out``.  The
    caller owns the three buffers and keeps them alive for the call: 1-d
    contiguous float64 arrays of ``m >= 3``, ``m + 6`` and ``m + 1``
    values, the last two writeable; others raise ``ValueError``."""
    m = v.size
    buffers = ((v, m), (line, m + 6), (out, m + 1))
    if (m < 3 or not (line.flags.writeable and out.flags.writeable)
            or any(a.dtype != np.float64 or a.shape != (n,) or not a.flags.c_contiguous
                   for a, n in buffers)):
        raise ValueError("periodic_call needs 1-d contiguous float64 buffers of m >= 3, "
                         "m + 6 and m + 1 values, the last two writeable")
    library = _kernel_library()
    if library is None:
        return functools.partial(_PERIODIC_TWINS[entry], v, line, out)
    return _bound(getattr(library, entry), v, v.size, line, out)


class _Module(types.ModuleType):
    @property
    def KERNEL(self) -> str:
        """``"c"`` or ``"numpy"``: the kernel this process uses."""
        return "numpy" if _kernel_library() is None else "c"


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
