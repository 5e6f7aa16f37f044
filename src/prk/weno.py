"""WENO5 reconstruction kernels (classic smoothness-weighted stencils).

The public kernels act on the last axis and expect arrays padded with
three ghost cells on each side, so a line of ``m`` cells comes in with
length ``m + 6`` (at least 6) and produces values at the ``m + 1``
interfaces.  They are bitwise equal to the textbook evaluation of the
five-cell formula (Jiang & Shu's indicators, written out in
:func:`_numpy_weno5`), and that equality is part of their contract.
Only the left bias is ever evaluated: the right-biased value at
interface ``k`` is bitwise the left-biased formula on the cells ``k+5``
down to ``k+1``, the mirror image read in place.

A kernel call runs over a *run table*: interface ``k`` of run ``r``
reads the cells ``src[starts[r] + k + j * steps[r]]``, j = 0..4, and the
runs fill the values in order.  Step +1 gives a line's left bias, start
5 with step -1 its right bias, and a step of a row's length reads a
column, so nothing is copied or mirrored.  :func:`runs_call` checks and
binds a table once; :func:`edge_from_left`, :func:`interface_states` and
:func:`llf_split_flux` build one per call over their contiguous input
and return fresh arrays.  The 1D periodic problems of :mod:`prk.spatial`
instead bind :func:`periodic_call`: ``weno5_periodic`` pads a line and
writes its left-biased values, ``burgers_llf_periodic`` pads it and
writes Burgers' local Lax-Friedrichs fluxes from both biases.  The same
library holds the stage sums of :mod:`prk.stepper`: ``stage_sum`` writes
``u + dt * (a_0 K_0 + a_1 K_1 + ...)`` over rows of a stage store,
summed left to right, and :func:`stage_sum_call` binds one.  A bound
compiled call holds the arrays it was given.

Two kernels give the same bits, and read as one program: ``_weno5.c``
and its numpy twins (:func:`_numpy_runs`, which gathers the five operands
of every face through an index built when the call binds, the periodic
twins and :func:`_numpy_stage_sum`), by the same IEEE operations in the
same order with the same helpers.  The first kernel call of a process
builds the C one with the system ``cc -O3 -ffp-contract=off
-fno-fast-math -shared -fPIC`` (no ``-march``, and no fused
multiply-add, which rounds once where the twin rounds twice) into
``$XDG_CACHE_HOME/prk`` or ``~/.cache/prk`` (mode 0700), or finds it
there, and loads it with ``ctypes`` (:func:`_kernel_library` keeps it).
Without a compiler, when the build fails or when the cache cannot be
used, the process runs the numpy twins, the compiled kernel's bitwise
oracles in the tests and written to be read next to the C, not for
speed.  The choice is made once per process, with no option and no
output; the read-only ``KERNEL`` (``"c"`` or ``"numpy"``) says which
kernel runs.  The compiled kernel raises no numpy floating-point
warnings, so a diverging run can print fewer ``RuntimeWarning`` lines;
its values are the same.
"""

from __future__ import annotations

import functools
import os
import sys
import types
from pathlib import Path

import numpy as np

__all__ = ["WENO_EPS", "KERNEL", "pad_periodic", "edge_from_left", "interface_states",
           "llf_split_flux", "periodic_call", "runs_call", "stage_sum_call"]

WENO_EPS = 1e-6  # regularization in the nonlinear weights

# a float as a read-only 0-d float64 array, the cheapest constant operand
_constant = functools.partial(np.broadcast_to, shape=())
_HALF = _constant(0.5)


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


def _bound(entry, *args):
    """The call of the compiled ``entry`` with ``args``, each converted to
    its argument type once (taking an array's address costs about 0.7 us).
    An array goes by a pointer that holds a reference to it, so the call
    keeps its arrays alive as long as it lives."""
    return functools.partial(entry, *(a.ctypes.data_as(kind) if isinstance(a, np.ndarray)
                                      else kind(a) for kind, a in zip(entry.argtypes, args)))


def _curvature(a, b, c):
    """13/12 ((a - 2b) + c)^2: the curvature term of the window (a, b, c)."""
    t = (a - 2.0 * b) + c
    return (t * t) * (13.0 / 12.0)


def _quarter_square(t):
    return (t * t) * 0.25


def _weight(gamma, beta):
    t = beta + WENO_EPS
    return gamma / (t * t)


def _numpy_weno5(a, b, c, d, e, out) -> None:
    """``weno5`` of ``_weno5.c`` in numpy, by the same IEEE operations in
    the same order: with ``(a, b, c, d, e)`` the five cells of each
    interface, ``out`` gets

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
    alpha0 = _weight(0.1, _quarter_square((a - 4.0 * b) + 3.0 * c) + _curvature(a, b, c))
    alpha1 = _weight(0.6, _curvature(b, c, d) + _quarter_square(b - d))
    alpha2 = _weight(0.3, _quarter_square((3.0 * c - 4.0 * d) + e) + _curvature(c, d, e))
    p0 = ((2.0 * a - 7.0 * b) + 11.0 * c) / 6.0
    p1 = ((5.0 * c - b) + 2.0 * d) / 6.0
    p2 = ((2.0 * c + 5.0 * d) - e) / 6.0
    np.divide((p0 * alpha0 + p1 * alpha1) + p2 * alpha2, (alpha0 + alpha1) + alpha2, out)


def _numpy_left(w: np.ndarray, out: np.ndarray) -> None:
    """The left-biased values of the padded lines ``w``: interface ``k``
    reads the cells ``k..k+4``."""
    n = w.shape[-1] - 5
    _numpy_weno5(*(w[..., k:k + n] for k in range(5)), out)


def _numpy_runs(src, cells, out) -> None:
    """``weno5_runs`` of ``_weno5.c`` in numpy, over the indices
    ``cells`` of the five operands of every interface in ``src`` (see
    :func:`_run_cells`): one gather, so a table of many short runs costs
    no pass of the formula per run."""
    _numpy_weno5(*src.take(cells), out)


def _run_cells(starts, counts, steps) -> np.ndarray:
    """The cells read by ``weno5_runs`` over a run table, as a ``(5,
    faces)`` index: interface ``k`` of run ``r`` reads ``starts[r] + k + j
    * steps[r]`` as operand j, and the runs fill the faces in order."""
    first = np.repeat(starts - (np.cumsum(counts) - counts), counts) + np.arange(counts.sum())
    return first + np.arange(5)[:, None] * np.repeat(steps, counts)


def _numpy_stage_sum(store, rows, coeffs, dt, u, out) -> None:
    """``stage_sum`` of ``_weno5.c`` in numpy: ``out`` gets ``u + dt *
    (coeffs[0] * store[rows[0]] + coeffs[1] * store[rows[1]] + ...)``,
    summed left to right from the first term.  The sum is accumulated in
    place, which rounds exactly as the textbook ``acc + term`` and ``u + dt
    * acc``: both operations commute exactly, and ``out`` may be ``u``."""
    acc = coeffs[0] * store[rows[0]]
    for row, a in zip(rows[1:], coeffs[1:]):
        acc += a * store[row]
    acc *= dt
    np.add(acc, u, out)


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
    for name, argtypes in (("weno5_runs", (address, address, address, address, size, address)),
                           ("weno5_periodic", (address, size, address, address)),
                           ("burgers_llf_periodic", (address, size, address, address)),
                           ("stage_sum", (address, address, address, size, size,
                                          ctypes.c_double, address, address))):
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


# the numpy twins of the entries of _weno5.c over one periodic line
_PERIODIC_TWINS = {"weno5_periodic": _numpy_weno5_periodic,
                   "burgers_llf_periodic": _numpy_burgers_llf_periodic}


def periodic_call(entry: str, v: np.ndarray, line: np.ndarray, out: np.ndarray):
    """The call of ``entry`` (``"weno5_periodic"`` or
    ``"burgers_llf_periodic"``) on the cells ``v`` of one periodic line, of
    this process's kernel, with its arguments bound once: it pads ``v``
    into ``line`` and writes the interface values into ``out``.  The
    buffers are 1-d contiguous float64 arrays of ``m >= 3``, ``m + 6`` and
    ``m + 1`` values, the last two writeable; others raise ``ValueError``.
    The call holds the three."""
    m = v.size
    if (m < 3 or not (line.flags.writeable and out.flags.writeable)
            or not _vectors(np.float64, (v, m), (line, m + 6), (out, m + 1))):
        raise ValueError("periodic_call needs 1-d contiguous float64 buffers of m >= 3, "
                         "m + 6 and m + 1 values, the last two writeable")
    library = _kernel_library()
    if library is None:
        return functools.partial(_PERIODIC_TWINS[entry], v, line, out)
    return _bound(getattr(library, entry), v, v.size, line, out)


def runs_call(src: np.ndarray, starts: np.ndarray, counts: np.ndarray, steps: np.ndarray,
              out: np.ndarray):
    """The call of ``weno5_runs`` of this process's kernel over the run
    table ``(starts, counts, steps)``, with its arguments bound once: it
    writes the values of the runs' interfaces into ``out``.  ``src`` and
    ``out`` are 1-d contiguous float64 arrays, ``out`` writeable, and the
    table three 1-d contiguous intp arrays of one length, whose runs read
    inside ``src`` and whose counts (at least 0) sum to ``out.size``;
    others raise ``ValueError``.  The compiled call holds the five arrays;
    the numpy one reads the table once, as it binds, and holds ``src``,
    ``out`` and the gather index."""
    table = (starts, counts, steps)
    if (not out.flags.writeable or not _vectors(np.float64, (src, src.size), (out, out.size))
            or not _vectors(np.intp, *((a, starts.size) for a in table))):
        raise ValueError("runs_call needs 1-d contiguous float64 src and out, out writeable, "
                         "and 1-d contiguous intp starts, counts and steps of one length")
    faces = 0
    for r, (start, count, step) in enumerate(zip(*(a.tolist() for a in table))):
        low, high = sorted((start, start + 4 * step))  # the cells of its first face
        if count < 0 or count and (low < 0 or high + count > src.size):
            raise ValueError(f"runs_call: run {r} (start {start}, count {count}, step {step}) "
                             f"reads outside the {src.size} values of src")
        faces += count
    if faces != out.size:
        raise ValueError(f"runs_call: the runs have {faces} faces, out {out.size} values")
    library = _kernel_library()
    if library is None:
        return functools.partial(_numpy_runs, src, _run_cells(starts, counts, steps), out)
    return _bound(library.weno5_runs, src, starts, counts, steps, starts.size, out)


def stage_sum_call(store: np.ndarray, rows: np.ndarray, coeffs: np.ndarray, dt: float,
                   u: np.ndarray, out: np.ndarray):
    """The call of ``stage_sum`` of this process's kernel, with its
    arguments bound once: it writes ``u + dt * (coeffs[0] * store[rows[0]]
    + coeffs[1] * store[rows[1]] + ...)`` into ``out``, summed left to right
    from the first term.  ``store`` is a 2-d C-contiguous float64 array of
    rows, ``u`` and ``out`` 1-d contiguous float64 arrays of one row's
    length, ``out`` writeable (it may be ``u``), and ``rows`` and
    ``coeffs`` 1-d contiguous intp and float64 arrays of one length, at
    least 1, whose rows lie inside ``store``; others raise ``ValueError``.
    The call holds the five arrays."""
    size = store.shape[-1] if store.ndim == 2 else -1
    if (size < 0 or not store.flags.c_contiguous or store.dtype != np.float64
            or not out.flags.writeable
            or not _vectors(np.float64, (u, size), (out, size), (coeffs, rows.size))
            or not _vectors(np.intp, (rows, rows.size))):
        raise ValueError("stage_sum_call needs a 2-d C-contiguous float64 store, 1-d "
                         "contiguous float64 u and out of its row length, out writeable, "
                         "and 1-d contiguous intp rows and float64 coeffs of one length")
    if not rows.size:
        raise ValueError("stage_sum_call needs at least one term")
    outside = rows[(rows < 0) | (rows >= len(store))]
    if outside.size:
        raise ValueError(f"stage_sum_call: row {outside[0]} outside the {len(store)} rows "
                         "of store")
    library = _kernel_library()
    if library is None:
        return functools.partial(_numpy_stage_sum, store, rows, coeffs, float(dt), u, out)
    return _bound(library.stage_sum, store, rows, coeffs, rows.size, size, dt, u, out)


def _vectors(dtype, *arrays) -> bool:
    """Whether each ``(array, size)`` of ``arrays`` is a contiguous 1-d
    array of ``dtype`` and ``size`` values."""
    return all(a.dtype == dtype and a.shape == (size,) and a.flags.c_contiguous
               for a, size in arrays)


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


def _biased(w, steps) -> np.ndarray:
    """The values at the interfaces of the padded lines ``w``, for each
    step of ``steps`` in turn, one run per line: left-biased (+1), or
    right-biased (-1, the cells ``k+5`` down to ``k+1``, the mirror image
    read in place).  One kernel call over a contiguous copy of ``w`` (or
    ``w`` itself), into a fresh array of shape ``(len(steps),) +
    w.shape[:-1] + (L - 5,)``."""
    shape = np.shape(w)
    _check_line(shape)
    src = np.ascontiguousarray(w, dtype=np.float64).reshape(-1)
    out = np.empty((len(steps),) + shape[:-1] + (shape[-1] - 5,))
    steps = np.repeat(np.array(steps, dtype=np.intp), src.size // shape[-1])
    starts = np.tile(np.arange(0, src.size, shape[-1]), len(out)) + 5 * (steps < 0)
    runs_call(src, starts, np.full(steps.size, shape[-1] - 5), steps, out.reshape(-1))()
    return out


def edge_from_left(w: np.ndarray) -> np.ndarray:
    """Left-biased interface values from a padded line.

    For interfaces ``i = 0..m`` this uses cells ``i-3..i+1`` and returns
    the reconstruction at the right edge of cell ``i-1`` (the upwind value
    for positive wind).
    """
    return _biased(w, [1])[0]


def interface_states(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reconstructed left/right states ``(u_minus, u_plus)`` at all interfaces.

    ``u_minus`` is :func:`edge_from_left` of ``w``; ``u_plus``, the right
    bias, reads each line backwards: the left-biased formula on the cells
    ``k+5`` down to ``k+1``.  One kernel call gives both, as two views of
    one fresh array that do not overlap.
    """
    um, up = _biased(w, [1, -1])
    return um, up


def llf_split_flux(phi_pad: np.ndarray, u_pad: np.ndarray, alpha) -> np.ndarray:
    """Interface fluxes via Lax-Friedrichs flux splitting.

    ``phi_pad`` holds pointwise fluxes and ``u_pad`` the states, both
    padded; ``alpha`` is the dissipation speed (scalar or broadcastable
    against the padded line).  The split parts ``(phi +/- alpha u)/2``
    are reconstructed with opposite bias and summed: the left-biased
    values of ``fplus`` and the right-biased values of ``fminus``.
    """
    spread = alpha * u_pad
    return _biased((phi_pad + spread) * 0.5, [1])[0] + _biased((phi_pad - spread) * 0.5, [-1])[0]
