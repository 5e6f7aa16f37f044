"""Linear error-analysis machinery for partitioned Runge-Kutta schemes.

For ``u' = L u + g(t)`` under a splitting ``L = L_1 + ... + L_r`` with
``Z_k = dt L_k``, the one-step map of an explicit scheme is affine with
amplification matrix ``R``.  This module builds the stage-residual blocks
``r_1 .. r_s`` (by block forward substitution, never forming the stacked
stage system), the local-error coefficient matrices ``d_{j,k}``, and the
order-reduction matrix ``W`` that links stage-order consistency to one
extra order of convergence.

A splitting whose every ``Z_k`` is lower triangular (inflow upwind
advection, as in ``fig3``) is also held by its diagonals, and its stage
blocks, ``r^T e`` and the right-hand side of the W system are built as
band arrays: a product costs O(m w^2) for a band of w diagonals, not
O(m^3).  ``solve_W`` then takes ``(r^T e)^{-1}`` and ``W`` by one
row-wise forward substitution over ``[I | B]``, in elementwise numpy
operations of fixed order, so its bits do not depend on the BLAS
kernel.  Any other splitting (a periodic corner, a random matrix) takes
the dense path: BLAS products and ``np.linalg.inv``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial

import numpy as np

from .decomposition import CellPartition
from .tableau import PRKTableau, classical_order, simplifying_defects, stage_order
from .weno import ops_call

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


def _inf_norm(M: np.ndarray) -> float:
    return float(np.max(np.sum(np.abs(M), axis=1))) if M.size else 0.0


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


def _dense(band: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The m x m matrix of a band array, written into ``out`` (zeros by default)."""
    m = band.shape[1]
    if out is None:
        out = np.zeros((m, m))
    for d in range(min(len(band), m)):
        out[np.arange(d, m), np.arange(m - d)] = band[d, d:]
    return out


@dataclass(frozen=True)
class LinearSplitting:
    """Scaled operator parts ``Z_k = dt * L_k`` of one linear problem.

    ``bands`` holds the ``Z_k`` by their diagonals when all are lower
    triangular (see :func:`_lower_bands`), and is ``None`` otherwise; the
    analysis takes its band or its dense path from it.
    """

    Zs: tuple[np.ndarray, ...]
    bands: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = self.Zs[0].shape[0]
        for Zk in self.Zs:
            if Zk.shape != (m, m):
                raise ValueError("all Z_k must be square with equal size")
        object.__setattr__(self, "bands", _lower_bands(self.Zs))

    @property
    def r(self) -> int:
        return len(self.Zs)

    @property
    def m(self) -> int:
        return self.Zs[0].shape[0]

    # not called in prk; perfbench/child.py wraps it by name
    @classmethod
    def cell_based(cls, L: np.ndarray, dt: float, partition: CellPartition) -> "LinearSplitting":
        """Row masking ``Z_k = dt I_k L`` for a cell-based decomposition."""
        L = np.asarray(L, dtype=float)
        return cls(
            tuple(dt * np.where(mk[:, None], L, 0.0) for mk in partition.masks)
        )


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
    """The W system for lower band arrays ``M = r^T e`` and ``B``, by one
    forward substitution over ``[I | B]``: row i less ``M[i, j]`` times
    row j, for j from ``i - w`` up to ``i - 1`` (w the last diagonal of M
    that holds a nonzero), then divided by ``M[i, i]``.  Elementwise, in
    a fixed order, with no BLAS call; a zero on M's diagonal makes the
    system singular."""
    if not M[0].all():
        return _unusable(q)
    m = M.shape[1]
    X = np.zeros((m, 2 * m))  # [I | B], then [(r^T e)^{-1} | W]
    X[np.arange(m), np.arange(m)] = 1.0
    _dense(B, X[:, m:])
    w = max(d for d in range(len(M)) if M[d].any())
    coeffs = M.tolist()
    for i, row in enumerate(X):
        for d in range(min(w, i), 0, -1):
            row -= coeffs[d][i] * X[i - d]
        row /= coeffs[0][i]
    row_sums = np.abs(M[0])
    for diag in M[1:]:  # each row's |entries| from the diagonal outwards
        row_sums += np.abs(diag)
    return _w_result(X[:, m:], float(row_sums.max()) * _inf_norm(X[:, :m]), q)


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
    """
    if ls.r != 2:
        raise ValueError("stability conditions are stated for two parts")
    shifted = (ls.Zs[0].copy(), 0.5 * ls.Zs[1])
    for M in shifted:  # I + M without a dense eye; |.| drops the sign of zero
        M.flat[:: ls.m + 1] += 1.0
    n1, n2 = map(_inf_norm, shifted)
    return StabilityReport(
        norm_part1=n1,
        norm_part2=n2,
        theta=_inf_norm(ls.Zs[1]) / 4.0,
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
    """Extract the matrices of linear part evaluators by probing basis
    vectors at ``t = 0``.

    Subtracts the response at zero so affine boundary terms drop out.
    Costs ``m + 1`` evaluations, all through one ``evaluation`` of the
    split, and one dense m x m matrix per part; ``fig3`` reads its
    splittings this way, up to m = 640.
    """
    vals = np.empty((parts.r, m))
    write, phi, op = parts.evaluation(vals, (True,) * parts.r)
    call = ops_call(op)
    e = np.zeros(m)
    write(0.0, e, phi)
    call()
    zero = vals.copy()
    mats = [np.zeros((m, m)) for _ in range(parts.r)]
    for i in range(m):
        e[i] = 1.0
        write(0.0, e, phi)
        call()
        e[i] = 0.0
        for k in range(parts.r):
            mats[k][:, i] = vals[k] - zero[k]
    return mats
