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

A WENO5 pass runs over a *run table*: interface ``k`` of run ``r``
reads the cells ``src[starts[r] + k + j * steps[r]]``, j = 0..4, and the
runs fill the values in order.  Step +1 gives a line's left bias, start
5 with step -1 its right bias, and a step of a row's length reads a
column, so nothing is copied or mirrored.  :func:`edge_from_left`,
:func:`interface_states` and :func:`llf_split_flux` build one per call
over their contiguous input, run it on its numpy twin and return fresh
arrays; no command calls them.

Every compiled call is one call of ``run_ops``, the library's only
entry, over a table of *ops*, each of which checks the arguments of one
kind of op of ``_weno5.c``: :func:`periodic_op` those of
``periodic_flux``, which pads one periodic line of the 1D problems of
:mod:`prk.spatial` and writes its left-biased values
(``"weno5_periodic"``) or Burgers' local Lax-Friedrichs fluxes from both
biases (``"burgers_llf_periodic"``); :func:`stage_sum_op` those of
``stage_sum``, which writes ``u + dt * (a_0 K_0 + a_1 K_1 + ...)`` over
rows of a stage store, summed left to right; :func:`split_parts_op`
those of ``split_parts``, which writes the parts of a split right-hand
side into rows of a stage store; :func:`threshold_regions_op` those of
``threshold_regions``, which writes the region table of the
shock-tracking partition (and on a line the face masks of its two
regions); :func:`rotation_flux_op` those of
``rotation_flux``, one whole flux evaluation of the 2D rotation of
:mod:`prk.spatial` (its padded frame, the speed products and a run
table); :func:`rotation_exponent_op` those of ``rotation_exponent``, the
exponent of that problem's exact Gaussian at its ghost cells (the
cosine, sine and exponential stay numpy's, whose bits the C library's
need not share); :func:`lower_solve_op` those of ``lower_solve``, the
forward substitution of the W analysis of :mod:`prk.analysis`; and
:func:`finite_op` makes a finiteness check.  :func:`ops_call`, the one
place a compiled call is bound, binds a table of ops as one call of
``run_ops``, which runs them in order and returns whether every check
found only finite values: a stage of the stepper writes its part rows
and the next stage value in one call, and its last stage the new state
and the check.  The two flux ops take a face mask: the compiled kernel
then computes only the faces it marks and leaves the others as they
were.  Its records are a ctypes mirror of the C ``struct op``;
the library exports the struct's size and field layout, and a library
whose layout the mirror does not match is not used.  A bound compiled
call holds the arrays it was given.

Two kernels give the same bits, and read as one program: ``_weno5.c``
and its numpy twins (:func:`_numpy_runs`, which gathers the five operands
of every face through an index built from the run table, the periodic
twins, :func:`_numpy_stage_sum`, :func:`_numpy_split_parts`,
:func:`_numpy_threshold_regions`, :func:`_numpy_rotation_flux`,
:func:`_numpy_rotation_exponent`, :func:`_numpy_lower_solve` and
:func:`_numpy_ops`, which runs the ops' twins in order), by the same IEEE
operations in the same order with the same helpers; the flux twins
compute every face, marked or not.  The first kernel call of a process
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

import ctypes
import functools
import os
import sys
import types
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

__all__ = ["WENO_EPS", "KERNEL", "pad_periodic", "edge_from_left", "interface_states",
           "llf_split_flux", "periodic_op", "stage_sum_op", "split_parts_op",
           "threshold_regions_op", "rotation_exponent_op", "rotation_flux_op", "lower_solve_op",
           "finite_op", "ops_call"]

WENO_EPS = 1e-6  # regularization in the nonlinear weights

# a float as a read-only 0-d float64 array, the cheapest constant operand
_constant = functools.partial(np.broadcast_to, shape=())
_HALF, _ZERO = _constant(0.5), _constant(0.0)


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


def _numpy_split_parts(phi, width, dims, rows, cols, cells, faces, parts, out) -> None:
    """``split_parts`` of ``_weno5.c`` in numpy (see
    :func:`split_parts_op`), reading the tables at every call."""
    xfaces = rows * (cols + 1)
    for k in parts:
        f = phi if faces is None else np.where(faces == k, phi, _ZERO)
        if dims == 0:
            value = f.reshape(rows, cols)
        else:
            fx = f[:xfaces].reshape(rows, cols + 1)
            value = np.subtract(fx[:, :-1], fx[:, 1:])
            value /= width[:cols]
            if dims == 2:
                fy = f[xfaces:].reshape(rows + 1, cols)
                dy = np.subtract(fy[:-1], fy[1:])
                dy /= width[cols:, None]
                value += dy
        if cells is not None:
            value = np.where(cells.reshape(rows, cols) == k, value, _ZERO)
        out[k].reshape(rows, cols)[...] = value


def _numpy_threshold_regions(u, threshold, cells, masks) -> None:
    """``threshold_regions`` of ``_weno5.c`` in numpy: ``cells`` gets 0
    where ``u < threshold`` and 1 elsewhere (NaN too), and each row k of
    ``masks`` (unless None) the faces of the line that bound a cell of
    region k."""
    np.copyto(cells, ~(u < threshold))
    if masks is not None:
        for k, mask in enumerate(masks):
            inside = cells == k
            mask[:-1] = inside
            mask[-1] = False
            mask[1:] |= inside


def _numpy_rotation_exponent(xi, eta, trig, out) -> None:
    """``rotation_exponent`` of ``_weno5.c`` in numpy: ``out`` gets ``-10
    ((x0 - 1/2)^2 + (y0 - 1/4)^2)`` at the points ``(xi, eta)`` (less the
    centre of rotation), with ``x0`` and ``y0`` the points rotated by the
    angle of cosine and sine ``trig``, as :func:`prk.spatial.advection2d`'s
    exact solution forms its exponent."""
    cs, sn = trig
    x0 = 0.5 + xi * cs - eta * sn
    y0 = 0.5 + eta * cs + xi * sn
    np.multiply(-10.0, (x0 - 0.5) ** 2 + (y0 - 0.25) ** 2, out)


def _numpy_rotation_flux(state, a1, a2, ring, ghosts, frame, src, cells, out) -> None:
    """``rotation_flux`` of ``_weno5.c`` in numpy; ``cells()`` gives the
    index of its run table's operands (see :func:`_run_cells`)."""
    n = a1.size
    p = n + 6
    padded = frame.reshape(p, p)
    frame[ring] = ghosts
    padded[3:-3, 3:-3] = state.reshape(n, n)
    np.multiply(a1[:, None], padded[3:-3, :], src[:n * p].reshape(n, p))
    np.multiply(padded[:, 3:-3], a2, src[n * p:].reshape(p, n))
    _numpy_runs(src, cells(), out)
    np.add(out, _ZERO, out)


def _numpy_lower_solve(bands, w, first, rows, x) -> None:
    """``lower_solve`` of ``_weno5.c`` in numpy: row i, at ``x[i - first +
    min(w, first)]``, less ``bands[d, i]`` times row ``i - d``, for d from
    ``min(w, i)`` down to 1, then divided by ``bands[0, i]``, a whole row
    per operation."""
    coeffs, shift = bands.tolist(), min(w, first) - first
    for i in range(first, first + rows):
        row = x[i + shift]
        for d in range(min(w, i), 0, -1):
            row -= coeffs[d][i] * x[i + shift - d]
        row /= coeffs[0][i]


def _numpy_finite(values) -> bool:
    """``all_finite`` of ``_weno5.c`` in numpy."""
    return bool(np.isfinite(values).all())


def _numpy_ops(twins) -> int:
    """``run_ops`` of ``_weno5.c`` in numpy: the twins of a table's ops
    in order, 0 at the first finiteness check that fails (no twin runs
    after it), else 1."""
    for twin in twins:
        if twin() is False:
            return 0
    return 1


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

# the ctypes mirror of `struct op` in _weno5.c, field for field; the kinds
# are numbered as its enum
_OP_KINDS = ("periodic_flux", "stage_sum", "split_parts", "threshold_regions",
             "rotation_exponent", "rotation_flux", "lower_solve", "finite")
_ADDRESS, _SIZE = ctypes.c_void_p, ctypes.c_size_t


class _PeriodicFluxArgs(ctypes.Structure):
    _fields_ = [("v", _ADDRESS), ("m", _SIZE), ("burgers", _SIZE), ("mask", _ADDRESS),
                ("line", _ADDRESS), ("out", _ADDRESS)]


class _StageSumArgs(ctypes.Structure):
    _fields_ = [("store", _ADDRESS), ("rows", _ADDRESS), ("coeffs", _ADDRESS),
                ("nterms", _SIZE), ("size", _SIZE), ("dt", ctypes.c_double), ("u", _ADDRESS),
                ("out", _ADDRESS)]


class _SplitPartsArgs(ctypes.Structure):
    _fields_ = [("phi", _ADDRESS), ("width", _ADDRESS), ("dims", _SIZE), ("rows", _SIZE),
                ("cols", _SIZE), ("cells", _ADDRESS), ("faces", _ADDRESS), ("parts", _ADDRESS),
                ("nparts", _SIZE), ("out", _ADDRESS)]


class _ThresholdRegionsArgs(ctypes.Structure):
    _fields_ = [("u", _ADDRESS), ("size", _SIZE), ("threshold", ctypes.c_double),
                ("cells", _ADDRESS), ("masks", _ADDRESS)]


class _RotationExponentArgs(ctypes.Structure):
    _fields_ = [("xi", _ADDRESS), ("eta", _ADDRESS), ("trig", _ADDRESS), ("size", _SIZE),
                ("out", _ADDRESS)]


class _RotationFluxArgs(ctypes.Structure):
    _fields_ = [("state", _ADDRESS), ("n", _SIZE), ("a1", _ADDRESS), ("a2", _ADDRESS),
                ("ring", _ADDRESS), ("ghosts", _ADDRESS), ("nring", _SIZE), ("frame", _ADDRESS),
                ("src", _ADDRESS), ("starts", _ADDRESS), ("counts", _ADDRESS),
                ("steps", _ADDRESS), ("nruns", _SIZE), ("mask", _ADDRESS), ("out", _ADDRESS)]


class _LowerSolveArgs(ctypes.Structure):
    _fields_ = [("bands", _ADDRESS), ("w", _SIZE), ("m", _SIZE), ("first", _SIZE),
                ("rows", _SIZE), ("cols", _SIZE), ("x", _ADDRESS)]


class _FiniteArgs(ctypes.Structure):
    _fields_ = [("values", _ADDRESS), ("size", _SIZE)]


class _OpArgs(ctypes.Union):
    _fields_ = [("periodic_flux", _PeriodicFluxArgs), ("stage_sum", _StageSumArgs),
                ("split_parts", _SplitPartsArgs), ("threshold_regions", _ThresholdRegionsArgs),
                ("rotation_exponent", _RotationExponentArgs),
                ("rotation_flux", _RotationFluxArgs), ("lower_solve", _LowerSolveArgs),
                ("finite", _FiniteArgs)]


class _OpRecord(ctypes.Structure):
    _fields_ = [("kind", ctypes.c_ssize_t), ("args", _OpArgs)]


def _layout(record) -> list[int]:
    """The ``op_layout`` of ``_weno5.c`` for the ctypes ``record``: its
    size, then the offset and size of every field, depth first in order of
    declaration."""
    def fields(kind, base):
        for name, field_type in kind._fields_:
            offset = base + getattr(kind, name).offset
            if issubclass(field_type, (ctypes.Structure, ctypes.Union)):
                yield from fields(field_type, offset)
            else:
                yield from (offset, ctypes.sizeof(field_type))
    return [ctypes.sizeof(record), *fields(record, 0)]


@functools.cache
def _kernel_library():
    """This process's ``_weno5.c``, compiled by the system ``cc`` into the
    user's cache at the first call, or found there, and loaded, with the
    argument types of its one entry, ``run_ops``, set; None if it cannot be
    built or loaded, or if its ``op_layout`` is not that of
    :class:`_OpRecord`, and the numpy twins run.

    A library's name holds the digest of its source, flags and machine,
    and the digest of its own bytes, which is checked before it is loaded:
    loading a damaged library can kill the process.  A cached library
    that fails the check is deleted and built again."""
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
    want = _layout(_OpRecord)
    if (_SIZE.in_dll(library, "op_layout_length").value != len(want)
            or list((_SIZE * len(want)).in_dll(library, "op_layout")) != want):
        return None
    library.run_ops.argtypes = ctypes.POINTER(_OpRecord), _SIZE
    library.run_ops.restype = ctypes.c_int
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


class _Op(NamedTuple):
    """One op of a table bound by :func:`ops_call`: its kind (one of
    ``_OP_KINDS``), its checked arguments by the names of the fields of the
    C record (arrays, numbers or None), and its numpy twin."""

    kind: str
    args: dict
    twin: Callable


def ops_call(*ops: _Op):
    """The call of ``run_ops`` of this process's kernel over ``ops``, with
    its table built once: it runs the ops in order and returns 0 at the
    first :func:`finite_op` that finds a NaN or an infinity (no op runs
    after it), else 1.  The compiled call holds every array of the ops;
    the numpy one holds their twins."""
    library = _kernel_library()
    if library is None:
        return functools.partial(_numpy_ops, tuple(op.twin for op in ops))
    table = (_OpRecord * len(ops))()
    for record, op in zip(table, ops):
        record.kind = _OP_KINDS.index(op.kind)
        args = getattr(record.args, op.kind)
        for name, value in op.args.items():
            setattr(args, name, value.ctypes.data if isinstance(value, np.ndarray) else value)
    # the records hold addresses only
    table.arrays = [a for op in ops for a in op.args.values() if isinstance(a, np.ndarray)]
    # arguments of run_ops's own types, which a call passes unconverted;
    # the pointer holds the table.  It points at the first record: a
    # ctypes.cast would tie the table into a reference cycle, and its
    # arrays would wait for the cyclic collector once the call is dropped
    return functools.partial(library.run_ops, ctypes.pointer(table[0]), _SIZE(len(ops)))


# the numpy twins of the two fluxes of one periodic line
_PERIODIC_TWINS = {"weno5_periodic": _numpy_weno5_periodic,
                   "burgers_llf_periodic": _numpy_burgers_llf_periodic}


def periodic_op(entry: str, v: np.ndarray, line: np.ndarray, out: np.ndarray,
                mask: np.ndarray | None = None) -> _Op:
    """The op of ``periodic_flux`` for ``entry`` (``"weno5_periodic"`` or
    ``"burgers_llf_periodic"``) on the cells ``v`` of one periodic line: it
    pads ``v`` into ``line`` and writes the interface values into ``out``,
    the left-biased values or Burgers' local Lax-Friedrichs fluxes; with a
    face ``mask`` (read at every call) the compiled kernel writes only the
    faces it marks.  The buffers are 1-d contiguous float64 arrays of ``m
    >= 3``, ``m + 6`` and ``m + 1`` values, the last two writeable, and
    ``mask`` None or a 1-d contiguous bool array of ``m + 1``; others raise
    ``ValueError``."""
    m = v.size
    if (m < 3 or not (line.flags.writeable and out.flags.writeable)
            or not _vectors(np.float64, (v, m), (line, m + 6), (out, m + 1))
            or not _mask_of(mask, m + 1)):
        raise ValueError("periodic_op needs 1-d contiguous float64 buffers of m >= 3, "
                         "m + 6 and m + 1 values, the last two writeable, and no mask or "
                         "a bool one of m + 1")
    return _Op("periodic_flux", dict(v=v, m=m, burgers=entry == "burgers_llf_periodic",
                                     mask=mask, line=line, out=out),
               functools.partial(_PERIODIC_TWINS[entry], v, line, out))


def stage_sum_op(store: np.ndarray, rows: np.ndarray, coeffs: np.ndarray, dt: float,
                 u: np.ndarray, out: np.ndarray) -> _Op:
    """The op of ``stage_sum``: it writes ``u + dt * (coeffs[0] *
    store[rows[0]] + coeffs[1] * store[rows[1]] + ...)`` into ``out``,
    summed left to right from the first term.  ``store`` is a 2-d
    C-contiguous float64 array of rows, ``u`` and ``out`` 1-d contiguous
    float64 arrays of one row's length, ``out`` writeable (it may be
    ``u``), and ``rows`` and ``coeffs`` 1-d contiguous intp and float64
    arrays of one length, at least 1, whose rows lie inside ``store``;
    others raise ``ValueError``."""
    size = store.shape[-1] if store.ndim == 2 else -1
    if (size < 0 or not store.flags.c_contiguous or store.dtype != np.float64
            or not out.flags.writeable
            or not _vectors(np.float64, (u, size), (out, size), (coeffs, rows.size))
            or not _vectors(np.intp, (rows, rows.size))):
        raise ValueError("stage_sum_op needs a 2-d C-contiguous float64 store, 1-d "
                         "contiguous float64 u and out of its row length, out writeable, "
                         "and 1-d contiguous intp rows and float64 coeffs of one length")
    if not rows.size:
        raise ValueError("stage_sum_op needs at least one term")
    outside = rows[(rows < 0) | (rows >= len(store))]
    if outside.size:
        raise ValueError(f"stage_sum_op: row {outside[0]} outside the {len(store)} rows "
                         "of store")
    dt = float(dt)
    return _Op("stage_sum", dict(store=store, rows=rows, coeffs=coeffs, nterms=rows.size,
                                 size=size, dt=dt, u=u, out=out),
               functools.partial(_numpy_stage_sum, store, rows, coeffs, dt, u, out))


def split_parts_op(phi: np.ndarray, width: np.ndarray | None, dims: int,
                   cells: np.ndarray | None, faces: np.ndarray | None, parts: np.ndarray,
                   out: np.ndarray) -> _Op:
    """The op of ``split_parts``: it writes the rows ``parts`` of ``out``,
    each of the state's shape ``(m,)`` or ``(rows, cols)``, with those
    parts of a split right-hand side, as the header of ``_weno5.c`` gives
    them: for ``dims`` 0 ``phi`` itself, else the difference of the face
    fluxes ``phi`` over ``width`` (x-faces, then for 2 y-faces), masked by
    the region table ``cells`` or ``faces``, read at every call.  ``out``
    must be C-contiguous, writeable float64 of 2 or 3 axes, and the others
    1-d contiguous float64 (``phi``, ``width``: ``cols`` or ``cols + rows``
    values, None for 0) or intp (the tables, ``parts``: rows of ``out``) of
    their sizes; others raise ``ValueError``.  The twin reads ``parts``
    once, here."""
    rows, cols = ((1,) + out.shape[1:])[-2:] if out.ndim in (2, 3) else (0, 0)
    xfaces = rows * (cols + 1)
    nphi, nwidth = {0: (rows * cols, 0), 1: (xfaces, cols),
                    2: (xfaces + (rows + 1) * cols, cols + rows)}.get(dims, (-1, 0))
    tables = ((table, size) for table, size in ((cells, rows * cols), (faces, nphi))
              if table is not None)
    if (out.ndim not in (2, 3) or out.dtype != np.float64 or not out.flags.c_contiguous
            or not out.flags.writeable or (width is None) != (dims == 0)
            or not _vectors(np.float64, (phi, nphi), *(((width, nwidth),) if dims else ()))
            or not _vectors(np.intp, (parts, parts.size), *tables)):
        raise ValueError("split_parts_op needs a C-contiguous writeable float64 out of "
                         "rows of the state, dims 0, 1 or 2, and 1-d contiguous phi, width "
                         "and tables of their sizes, float64 and intp, and intp parts")
    outside = parts[(parts < 0) | (parts >= len(out))]
    if outside.size:
        raise ValueError(f"split_parts_op: part {outside[0]} outside the {len(out)} rows "
                         "of out")
    return _Op("split_parts", dict(phi=phi, width=width, dims=dims, rows=rows, cols=cols,
                                   cells=cells, faces=faces, parts=parts, nparts=parts.size,
                                   out=out),
               functools.partial(_numpy_split_parts, phi, width, dims, rows, cols, cells,
                                 faces, parts.tolist(), out))


def threshold_regions_op(u: np.ndarray, threshold: float, cells: np.ndarray,
                         masks: np.ndarray | None = None) -> _Op:
    """The op of ``threshold_regions``: ``cells`` gets the region table of
    the shock-tracking partition of ``u`` (read at every call), 0 where
    ``u < threshold`` and 1 elsewhere, NaN included, as
    :func:`prk.decomposition.burgers_dynamic_partition` splits it; with
    ``masks``, ``u`` the cells of one line, row k of ``masks`` gets the
    faces of the line that bound a cell of region k (face f bounds cells f
    - 1 and f).  ``u`` is a 1-d contiguous float64 array, ``cells`` a
    writeable one of intp of its size, and ``masks`` None or a writeable
    C-contiguous bool array of shape ``(2, u.size + 1)``; others raise
    ``ValueError``."""
    size = u.size
    if (not cells.flags.writeable or not _vectors(np.float64, (u, size))
            or not _vectors(np.intp, (cells, size))
            or masks is not None and not (masks.dtype == np.bool_ and masks.flags.writeable
                                          and masks.flags.c_contiguous
                                          and masks.shape == (2, size + 1))):
        raise ValueError("threshold_regions_op needs 1-d contiguous float64 u, a writeable "
                         "intp cells of its size, and no masks or writeable C-contiguous "
                         "bool masks of shape (2, size + 1)")
    threshold = float(threshold)
    return _Op("threshold_regions", dict(u=u, size=size, threshold=threshold, cells=cells,
                                         masks=masks),
               functools.partial(_numpy_threshold_regions, u, threshold, cells, masks))


def rotation_exponent_op(xi: np.ndarray, eta: np.ndarray, trig: np.ndarray,
                         out: np.ndarray) -> _Op:
    """The op of ``rotation_exponent``: ``out`` gets the exponent ``-10
    ((x0 - 1/2)^2 + (y0 - 1/4)^2)`` of the rotated Gaussian at the points
    ``(xi, eta)`` (less the centre of rotation) rotated to ``(x0, y0)`` by
    the angle whose cosine and sine ``trig`` holds, read at every call.
    The four are 1-d contiguous float64 arrays, ``trig`` of 2 values and
    the others of one size, ``out`` writeable; others raise
    ``ValueError``."""
    size = out.size
    if (not out.flags.writeable
            or not _vectors(np.float64, (xi, size), (eta, size), (trig, 2), (out, size))):
        raise ValueError("rotation_exponent_op needs 1-d contiguous float64 xi, eta and a "
                         "writeable out of one size, and trig of 2 values")
    return _Op("rotation_exponent", dict(xi=xi, eta=eta, trig=trig, size=size, out=out),
               functools.partial(_numpy_rotation_exponent, xi, eta, trig, out))


def rotation_flux_op(state: np.ndarray, a1: np.ndarray, a2: np.ndarray, ring: np.ndarray,
                     ghosts: np.ndarray, starts: np.ndarray, counts: np.ndarray,
                     steps: np.ndarray, out: np.ndarray, mask: np.ndarray | None = None) -> _Op:
    """The op of ``rotation_flux``: one flux evaluation of the 2D rotation
    on ``n = a1.size`` cells a side, as the header of ``_weno5.c`` gives
    it, from the row-major ``state`` and the ring values ``ghosts`` (at the
    flat indices ``ring`` of the ``(n + 6)^2`` padded frame), by the run
    table ``(starts, counts, steps)`` over the ``2n (n + 6)`` products (a
    run table, see the module docstring), into ``out``, every one read at
    every call; with a face ``mask`` the compiled kernel writes only the
    values of ``out`` it marks.  The op owns its frame and products.  The
    arrays are 1-d and contiguous: ``ring`` and the table intp (the table's
    three of one length), ``mask`` (or None) bool of ``out.size``, the
    others float64 of ``n^2``, ``n``, ``n``, ``ring.size`` and ``2n (n +
    1)`` values, ``out`` writeable; ``ring`` indexes the frame, the runs
    read inside the products and their counts (at least 0) sum to
    ``out.size``.  Others raise ``ValueError``.  The twin reads the table
    once, at its first call, so a compiled bind builds no gather index."""
    n = a1.size
    p, table = n + 6, (starts, counts, steps)
    if (not out.flags.writeable
            or not _vectors(np.float64, (state, n * n), (a1, n), (a2, n), (ghosts, ring.size),
                            (out, 2 * n * (n + 1)))
            or not _vectors(np.intp, (ring, ring.size), *((a, starts.size) for a in table))
            or not _mask_of(mask, out.size)):
        raise ValueError("rotation_flux_op needs 1-d contiguous float64 state, a1, a2, ghosts "
                         "and a writeable out of their sizes, an intp ring, intp starts, "
                         "counts and steps of one length, and no mask or a bool one of "
                         "out's size")
    if ring.size and not 0 <= ring.min() <= ring.max() < p * p:
        raise ValueError(f"rotation_flux_op: a ring index outside the {p * p} values of frame")
    size, faces = 2 * n * p, 0
    for r, (start, count, step) in enumerate(zip(*(a.tolist() for a in table))):
        low, high = sorted((start, start + 4 * step))  # the cells of its first face
        if count < 0 or count and (low < 0 or high + count > size):
            raise ValueError(f"rotation_flux_op: run {r} (start {start}, count {count}, step "
                             f"{step}) reads outside the {size} values of src")
        faces += count
    if faces != out.size:
        raise ValueError(f"rotation_flux_op: the runs have {faces} faces, out {out.size} values")
    frame, src = np.zeros(p * p), np.empty(size)
    cells = functools.cache(functools.partial(_run_cells, starts, counts, steps))
    return _Op("rotation_flux", dict(state=state, n=n, a1=a1, a2=a2, ring=ring, ghosts=ghosts,
                                     nring=ring.size, frame=frame, src=src, starts=starts,
                                     counts=counts, steps=steps, nruns=starts.size, mask=mask,
                                     out=out),
               functools.partial(_numpy_rotation_flux, state, a1, a2, ring, ghosts, frame, src,
                                 cells, out))


def lower_solve_op(bands: np.ndarray, w: int, x: np.ndarray, first: int = 0,
                   rows: int | None = None) -> _Op:
    """The op of ``lower_solve``: it solves in place, by forward
    substitution, for the lower triangular ``m x m`` matrix with the band
    array ``bands`` (row d holds diagonal d, ``bands[d, i]`` in column ``i -
    d``; rows past ``w`` are not read), the rows ``first .. first + rows -
    1`` (all rows after ``first`` by default) of a matrix whose rows from
    ``first - min(w, first)`` on are the rows of ``x``: row ``i`` less
    ``bands[d, i]`` times row ``i - d``, for d from ``min(w, i)`` down to 1,
    then divided by ``bands[0, i]``.  ``bands`` and ``x`` are 2-d
    C-contiguous float64 arrays, ``bands`` of ``m >= 1`` columns and ``x``
    writeable, of at least ``min(w, first) + rows`` rows of ``m`` values or
    a multiple (m x m matrices side by side), with ``0 <= w < len(bands)``
    and ``0 <= first <= first + rows <= m``; others raise ``ValueError``."""
    m = bands.shape[-1] if bands.ndim == 2 else -1
    w, first = int(w), int(first)
    rows = m - first if rows is None else int(rows)
    if (m < 1 or x.ndim != 2 or x.shape[1] % m or len(x) < min(w, first) + rows
            or not 0 <= w < len(bands) or not 0 <= first <= first + rows <= m
            or not x.flags.writeable or not all(a.dtype == np.float64 and a.flags.c_contiguous
                                                for a in (bands, x))):
        raise ValueError("lower_solve_op needs 2-d C-contiguous float64 bands of m >= 1 "
                         "columns and a writeable x of min(w, first) + rows rows of a "
                         "multiple of m values, 0 <= w < len(bands) and 0 <= first <= "
                         "first + rows <= m")
    return _Op("lower_solve", dict(bands=bands, w=w, m=m, first=first, rows=rows,
                                   cols=x.shape[1], x=x),
               functools.partial(_numpy_lower_solve, bands, w, first, rows, x))


def finite_op(values: np.ndarray) -> _Op:
    """The op that checks that every value of ``values``, a 1-d contiguous
    float64 array, is finite; others raise ``ValueError``."""
    if not _vectors(np.float64, (values, values.size)):
        raise ValueError("finite_op needs 1-d contiguous float64 values")
    return _Op("finite", dict(values=values, size=values.size),
               functools.partial(_numpy_finite, values))


def _vectors(dtype, *arrays) -> bool:
    """Whether each ``(array, size)`` of ``arrays`` is a contiguous 1-d
    array of ``dtype`` and ``size`` values."""
    return all(a.dtype == dtype and a.shape == (size,) and a.flags.c_contiguous
               for a, size in arrays)


def _mask_of(mask, size: int) -> bool:
    """Whether ``mask`` is None or a face mask of ``size`` faces."""
    return mask is None or _vectors(np.bool_, (mask, size))


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
    read in place).  One pass of the numpy twin :func:`_numpy_runs` over a
    contiguous copy of ``w`` (or ``w`` itself), into a fresh array of shape
    ``(len(steps),) + w.shape[:-1] + (L - 5,)``: no command reaches it, so
    it binds no compiled call."""
    shape = np.shape(w)
    _check_line(shape)
    src = np.ascontiguousarray(w, dtype=np.float64).reshape(-1)
    out = np.empty((len(steps),) + shape[:-1] + (shape[-1] - 5,))
    steps = np.repeat(np.array(steps, dtype=np.intp), src.size // shape[-1])
    starts = np.tile(np.arange(0, src.size, shape[-1]), len(out)) + 5 * (steps < 0)
    _numpy_runs(src, _run_cells(starts, np.full(steps.size, shape[-1] - 5), steps),
                out.reshape(-1))
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
