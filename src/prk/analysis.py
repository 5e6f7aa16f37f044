"""Linear error-analysis machinery for partitioned Runge-Kutta schemes.

For ``u' = L u + g(t)`` under a splitting ``L = L_1 + ... + L_r`` with
``Z_k = dt L_k``, the one-step map of an explicit scheme is affine with
amplification matrix ``R``.  This module builds the stage-residual blocks
``r_1 .. r_s`` (by block forward substitution, never forming the stacked
stage system), the local-error coefficient matrices ``d_{j,k}``, and the
order-reduction matrix ``W`` that links stage-order consistency to one
extra order of convergence.

A splitting whose every ``Z_k`` is lower triangular (inflow upwind
advection, as in ``fig3``) is also held by its diagonals, or by them
alone when probed (:meth:`LinearSplitting.probed`), and its stage blocks,
``r^T e`` and the right-hand side of the W system are built as band
arrays: a product costs O(m w^2) for a band of w diagonals, not O(m^3).
``solve_W`` then takes ``W`` by a row-wise forward substitution in place
in its one m x m result, and the rows of ``(r^T e)^{-1}`` that its
condition estimate sums by the same substitution, ``_ROW_BLOCK`` rows at
a time: compiled calls of :mod:`prk.weno` (or its numpy twin) whose
operations run in a fixed order, so their bits do not depend on the BLAS
kernel.  No other m x m array is formed on that path.  Any other
splitting (a periodic corner, a random matrix) takes the dense path: BLAS
products and ``np.linalg.inv``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import factorial

import numpy as np

from .decomposition import CellPartition
from .tableau import PRKTableau, classical_order, simplifying_defects, stage_order
from .weno import lower_solve_op, ops_call

__all__ = [
    "LinearSplitting",
    "ErrorOperators",
    "build_error_operators",
    "WResult",
    "solve_W",
    "StabilityReport",
    "stability_check",
    "predicted_local_error",
    "linearize_parts",
]

COND_LIMIT = 1e12  # beyond this the W norm is considered meaningless
_STABILITY_TOL = 1e-12  # slack on the unit bounds of the stability check
_ROW_BLOCK = 64  # rows of an m x m matrix whose |entries| are held at once


def _inf_norm(M: np.ndarray) -> float:
    return _max_row_sum(M[i:i + _ROW_BLOCK] for i in range(0, len(M), _ROW_BLOCK))


def _max_row_sum(blocks) -> float:
    """The largest row sum of |entries| over the rows of ``blocks``, each
    row summed by numpy, NaN if one is; 0 without rows."""
    peaks = [np.sum(np.abs(block), axis=1).max() for block in blocks]
    return float(np.max(peaks)) if peaks else 0.0


def _band_norm(band: np.ndarray) -> float:
    """The maximum norm of a band array's matrix, each row's |entries|
    summed from the diagonal outwards."""
    sums = np.abs(band[0])
    for diag in band[1:]:
        sums += np.abs(diag)
    return float(sums.max())


def _lower_bands(Zs) -> np.ndarray | None:
    """Every ``Z_k`` by its diagonals on and below the main one, row by row:
    ``bands[k, d, i] = Z_k[i, i - d]``, zero where ``i < d``; ``None`` when
    some ``Z_k`` has a nonzero entry above its diagonal."""
    width = 1
    for Z in Zs:
        left, d = np.count_nonzero(Z), 0  # nonzeros not on diagonals 0 .. d - 1
        while left:
            if d == len(Z):
                return None
            left -= np.count_nonzero(np.diagonal(Z, -d))
            d += 1
        width = max(width, d)
    bands = np.zeros((len(Zs), width, Zs[0].shape[0]))
    for Z, band in zip(Zs, bands):
        for d in range(width):
            band[d, d:] = np.diagonal(Z, -d)
    return bands


def _dense(band: np.ndarray) -> np.ndarray:
    """The m x m matrix of a band array."""
    m = band.shape[1]
    out = np.zeros((m, m))
    for d in range(min(len(band), m)):
        out[np.arange(d, m), np.arange(m - d)] = band[d, d:]
    return out


class LinearSplitting:
    """Scaled operator parts ``Z_k = dt * L_k`` of one linear problem.

    Built from the dense ``Zs``, or from ``bands`` alone, as
    :meth:`probed` builds a lower triangular splitting.  ``bands`` holds
    the ``Z_k`` by their diagonals when all are lower triangular (see
    :func:`_lower_bands`), and is ``None`` otherwise; the analysis takes its
    band or its dense path from it.  A splitting built from bands forms its
    dense ``Zs`` only when they are read.
    """

    def __init__(self, Zs: tuple[np.ndarray, ...] = (), *, bands: np.ndarray | None = None):
        if bands is None:
            m = Zs[0].shape[0]
            if any(Zk.shape != (m, m) for Zk in Zs):
                raise ValueError("all Z_k must be square with equal size")
            self.Zs, bands = tuple(Zs), _lower_bands(Zs)
        self.bands = bands

    @cached_property
    def Zs(self) -> tuple[np.ndarray, ...]:
        return tuple(map(_dense, self.bands))

    @property
    def r(self) -> int:
        return len(self.Zs if self.bands is None else self.bands)

    @property
    def m(self) -> int:
        return (self.Zs[0] if self.bands is None else self.bands).shape[-1]

    # not called in prk; perfbench/child.py wraps it by name
    @classmethod
    def cell_based(cls, L: np.ndarray, dt: float, partition: CellPartition) -> "LinearSplitting":
        """Row masking ``Z_k = dt I_k L`` for a cell-based decomposition."""
        L = np.asarray(L, dtype=float)
        return cls(
            tuple(dt * np.where(mk[:, None], L, 0.0) for mk in partition.masks)
        )

    @classmethod
    def probed(cls, parts, m: int, dt: float) -> "LinearSplitting":
        """``Z_k = dt L_k`` for linear part evaluators, read off by probing
        basis vectors at ``t = 0`` less the response at zero, so affine
        boundary terms drop out: ``m + 1`` evaluations, all through one
        ``evaluation`` of the split.

        Column j of every ``L_k`` goes into band columns, the band widened
        to the deepest nonzero; the first column with a value above the
        diagonal, or a -0 off the band, turns the splitting dense, the
        columns probed so far included.  So the ``Zs`` are those of
        probing into dense matrices, bit for bit.
        """
        r = parts.r
        vals, col = np.empty((2, r, m))
        write, phi, op = parts.evaluation(vals, (True,) * r)
        call = ops_call(op)
        e = np.zeros(m)
        write(0.0, e, phi)
        call()
        zero, bits = vals.copy(), col.view(np.uint64)  # +0 alone has no bit set

        def off_band(j, n):  # a value other than +0 outside rows j .. j + n - 1
            return bits[:, :j].any() or bits[:, j + n:].any()

        bands, dense = np.zeros((r, 1, m)), None
        for j in range(m):
            e[j] = 1.0
            write(0.0, e, phi)
            call()
            e[j] = 0.0
            np.subtract(vals, zero, col)
            if dense is None:
                n = min(len(bands[0]), m - j)
                if off_band(j, n):
                    deep = np.flatnonzero(col[:, j:].any(axis=0))
                    if deep.size and deep[-1] >= n:  # widen to the deepest nonzero
                        bands = np.concatenate(
                            (bands, np.zeros((r, deep[-1] + 1 - len(bands[0]), m))), axis=1)
                        n = deep[-1] + 1
                    if off_band(j, n):
                        dense = list(map(_dense, bands))
                if dense is None:  # entry (j + d, j) is bands[k, d, j + d]
                    bands.reshape(r, -1)[:, j:j + n * (m + 1):m + 1] = col[:, j:j + n]
            if dense is not None:
                for Z, c in zip(dense, col):
                    Z[:, j] = c
        if dense is not None:
            for Z in dense:
                Z *= dt
            return cls(tuple(dense))
        bands *= dt
        return cls(bands=bands)


@dataclass(frozen=True)
class ErrorOperators:
    """Stage-residual blocks, amplification matrix and local-error coefficients.

    ``d[(j, k)]`` is the coefficient matrix of ``dt^j / j! *
    phi_k^(j-1)(t_n)`` in the local error, for ``j = 1..j_max`` of the
    build and part index ``k`` (0-based).  ``r^T e`` is
    ``sum(r_blocks[1:], r_blocks[0])``, summed in stage order as in
    :func:`solve_W`.
    """

    r_blocks: tuple[np.ndarray, ...]
    R: np.ndarray
    d: dict[tuple[int, int], np.ndarray]


def _add_blocks(acc: np.ndarray, blocks) -> np.ndarray:
    for blk in blocks:  # in stage order, into acc
        acc += blk
    return acc


def _band_matmul(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """``P @ Q`` for two lower band arrays of one shape, kept to that many
    diagonals; each entry adds its products in the order of P's diagonals."""
    K, m = P.shape
    out = np.zeros((K, m))
    for e in range(min(K, m)):
        out[e:, e:] += P[e, e:] * Q[: K - e, : m - e]
    return out


def _stage_blocks(tab: PRKTableau, ls: LinearSplitting) -> list[np.ndarray]:
    """``r_1..r_s`` by block forward substitution: the stage system is block
    lower triangular for explicit tableaus, so O(s^2) products of size m.

    On a banded splitting the blocks are band arrays: with ``w`` the
    lower bandwidth of the ``Z_k``, ``r_j`` has at most ``(s - j + 1) w``
    diagonals below the main one, so ``s w + 1`` rows hold them all.
    """
    if ls.r != tab.r:
        raise ValueError("splitting and tableau part counts differ")
    s, r = tab.s, tab.r
    A, b = tab.plan.A, tab.plan.b
    if ls.bands is None:
        Zs, matmul = ls.Zs, np.matmul
    else:
        w = len(ls.bands[0]) - 1
        Zs, matmul = np.zeros((r, s * w + 1, ls.m)), _band_matmul
        Zs[:, : w + 1] = ls.bands

    # x_j = B_j + sum_{i>j} x_i M_{ij},  B_j = sum_k b_j^(k) Z_k,
    # M_{ij} = sum_k a_ij^(k) Z_k
    x: list[np.ndarray | None] = [None] * s
    for j in range(s - 1, -1, -1):
        acc = np.zeros(Zs[0].shape)
        for k in range(r):
            if b[k][j] != 0.0:
                acc += b[k][j] * Zs[k]
        for i in range(j + 1, s):
            coeff = [A[k][i][j] for k in range(r)]
            if any(coeff):
                Mij = np.zeros(Zs[0].shape)
                for k in range(r):
                    if coeff[k]:
                        Mij += coeff[k] * Zs[k]
                acc += matmul(x[i], Mij)
        x[j] = acc
    return x


def _defect_matrix(x: list[np.ndarray], lead, vec, diagonal) -> np.ndarray:
    """``lead I + sum_i vec_i r_i`` for one B(j)/C(j) defect pair, with the
    bits of ``lead * eye(m)`` (signed zeros too) as the start; ``diagonal``
    indexes the main diagonal of the blocks, dense or band."""
    d = np.full(x[0].shape, 0.0 * float(lead))
    d[diagonal] = float(lead)
    for xi, v in zip(x, map(float, vec)):
        if v:
            d += xi * v
    return d


def build_error_operators(
    tab: PRKTableau, ls: LinearSplitting, j_max: int | None = None
) -> ErrorOperators:
    """Assemble ``r_1..r_s``, ``R`` and the ``d_{j,k}`` for one splitting.

    ``j_max`` defaults to the classical order plus one; terms beyond that
    carry no information in the local-error expansion.  The coefficients
    of ``d_{j,k}`` are the tableau's B(j)/C(j) defects.  A banded
    splitting's blocks are built as band arrays and returned dense.
    """
    x = _stage_blocks(tab, ls)
    if ls.bands is not None:
        x = [_dense(blk) for blk in x]
    if j_max is None:
        j_max = classical_order(tab) + 1
    diagonal = np.diag_indices(ls.m)
    d = {(j, k): _defect_matrix(x, lead, vec, diagonal) for j in range(1, j_max + 1)
         for k, (lead, vec) in enumerate(simplifying_defects(tab, j))}
    return ErrorOperators(r_blocks=tuple(x), R=_add_blocks(np.eye(ls.m), x), d=d)


@dataclass(frozen=True)
class WResult:
    W: np.ndarray | None
    norm_w: float
    cond_rTe: float
    ok: bool
    q: int


def _column_band(v: np.ndarray, rows: int) -> np.ndarray:
    """The band array of a matrix whose column j is ``v[j]`` on its band:
    ``v`` shifted right by ``d`` in row ``d``."""
    out = np.zeros((rows, v.size))
    for d in range(min(rows, v.size)):
        out[d, d:] = v[: v.size - d]
    return out


def _w_result(W: np.ndarray, cond: float, q: int) -> WResult:
    return WResult(W=W, norm_w=_inf_norm(W), cond_rTe=cond, ok=bool(cond <= COND_LIMIT), q=q)


def _unusable(q: int) -> WResult:
    return WResult(W=None, norm_w=float("inf"), cond_rTe=float("inf"), ok=False, q=q)


def _solve_lower(M: np.ndarray, B: np.ndarray, q: int) -> WResult:
    """The W system for lower band arrays ``M = r^T e`` and ``B``, by
    forward substitution: row i less ``M[i, j]`` times row j, for j from
    ``i - w`` up to ``i - 1`` (w the last diagonal of M that holds a
    nonzero), then divided by ``M[i, i]``, in compiled calls
    (:func:`prk.weno.lower_solve_op`).  W is solved in place in the dense
    B; the rows of ``(r^T e)^{-1}`` only pass through
    :func:`_inverse_rows` for their norm.  The order of every operation is
    fixed, with no BLAS call; a zero on M's diagonal makes the system
    singular."""
    if not M[0].all():
        return _unusable(q)
    M = np.ascontiguousarray(M)
    w = max(d for d in range(len(M)) if M[d].any())
    W = _dense(B)
    ops_call(lower_solve_op(M, w, W))()
    return _w_result(W, _band_norm(M) * _max_row_sum(_inverse_rows(M, w)), q)


def _inverse_rows(M: np.ndarray, w: int):
    """The rows of the inverse of the lower band array ``M``'s matrix, by
    blocks of at most ``_ROW_BLOCK``: each is solved from rows of the
    identity after the ``w`` rows above it, carried in one buffer."""
    m = M.shape[1]
    buf, above = np.empty((_ROW_BLOCK + w, m)), 0
    for first in range(0, m, _ROW_BLOCK):
        rows = min(_ROW_BLOCK, m - first)
        block = buf[above:above + rows]
        block[...] = 0.0
        block[np.arange(rows), np.arange(first, first + rows)] = 1.0
        ops_call(lower_solve_op(M, w, buf, first, rows))()
        yield block
        keep = min(w, first + rows)
        buf[:keep] = buf[above + rows - keep:above + rows]
        above = keep


def solve_W(tab: PRKTableau, ls: LinearSplitting, partition: CellPartition) -> WResult:
    """Solve ``(r^T e) W = sum_k d_{q+1,k} I_k`` for the damping matrix W.

    A uniformly bounded ``W`` upgrades order-q consistency to order-(q+1)
    convergence in the maximum norm.  When ``r^T e`` is singular or its
    condition estimate exceeds ``COND_LIMIT`` the result is flagged
    unusable instead of raising.  It forms no ``R`` and no ``d_{j,k}`` for j <= q.

    On a banded splitting ``r^T e`` is lower triangular and
    :func:`_solve_lower` solves the system; otherwise ``np.linalg.inv``
    and a BLAS product do.
    """
    if partition.r != tab.r or partition.shape != (ls.m,):
        raise ValueError("partition needs one mask per tableau part, each over the m cells")
    q, banded = stage_order(tab), ls.bands is not None
    x = _stage_blocks(tab, ls)
    diagonal = 0 if banded else np.diag_indices(ls.m)
    B = np.zeros(x[0].shape)
    for mk, (lead, vec) in zip(partition.masks, simplifying_defects(tab, q + 1)):
        # column j of I_k is mk[j]; a band array's entry (d, i) is in column i - d
        cols = _column_band(mk, len(B)) if banded else mk[None, :].astype(float)
        B += _defect_matrix(x, lead, vec, diagonal) * cols
    M = _add_blocks(x[0], x[1:])
    del x  # the other stage blocks go before the inverse
    if banded:
        return _solve_lower(M, B, q)
    try:
        Minv = np.linalg.inv(M)
    except np.linalg.LinAlgError:
        return _unusable(q)
    cond = _inf_norm(M) * _inf_norm(Minv)
    return _w_result(Minv @ B, cond, q)


@dataclass(frozen=True)
class StabilityReport:
    norm_part1: float
    norm_part2: float
    theta: float
    stab1: bool
    stab2: bool


def stability_check(ls: LinearSplitting) -> StabilityReport:
    """Check the two-part multirate stability conditions.

    ``|I + Z_1| <= 1`` and ``|I + Z_2/2| <= 1`` in the maximum norm, and
    ``theta = |Z_2|/4``, which bounds the two-stage scheme's W when below 1.
    A banded splitting's row sums are taken from its bands, from the
    diagonal outwards.
    """
    if ls.r != 2:
        raise ValueError("stability conditions are stated for two parts")
    if ls.bands is None:
        (Z1, Z2), norm, diagonal = ls.Zs, _inf_norm, np.diag_indices(ls.m)
    else:
        (Z1, Z2), norm, diagonal = ls.bands, _band_norm, 0
    shifted = (Z1.copy(), 0.5 * Z2)
    for M in shifted:  # I + M without a dense eye; |.| drops the sign of zero
        M[diagonal] += 1.0
    n1, n2 = map(norm, shifted)
    return StabilityReport(
        norm_part1=n1,
        norm_part2=n2,
        theta=norm(Z2) / 4.0,
        stab1=bool(n1 <= 1.0 + _STABILITY_TOL),
        stab2=bool(n2 <= 1.0 + _STABILITY_TOL),
    )


def predicted_local_error(
    tab: PRKTableau,
    ls: LinearSplitting,
    phi_derivatives,
    dt: float,
    order: int | None = None,
) -> np.ndarray:
    """Leading local-error terms from the coefficient matrices.

    ``phi_derivatives[k][i]`` must hold the ``i``-th time derivative of
    ``phi_k(t) = F_k(t, u(t))`` at the step start, for ``i = 0..order-1``;
    the returned vector is the expansion truncated after ``dt^order``.
    """
    if order is None:
        order = min(len(p) for p in phi_derivatives)
    ops = build_error_operators(tab, ls, j_max=order)
    delta = np.zeros(ls.m)
    for j in range(1, order + 1):
        scale = dt**j / factorial(j)
        for k in range(tab.r):
            delta += scale * (ops.d[(j, k)] @ np.asarray(phi_derivatives[k][j - 1]))
    return delta


def linearize_parts(parts, m: int) -> list[np.ndarray]:
    """The dense matrices of linear part evaluators, read off by
    :meth:`LinearSplitting.probed` (``m + 1`` evaluations)."""
    return list(LinearSplitting.probed(parts, m, 1.0).Zs)
