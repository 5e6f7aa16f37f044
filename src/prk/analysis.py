"""Linear error-analysis machinery for partitioned Runge-Kutta schemes.

For ``u' = L u + g(t)`` under a splitting ``L = L_1 + ... + L_r`` with
``Z_k = dt L_k``, the one-step map of an explicit scheme is affine with
amplification matrix ``R``.  This module builds the stage-residual blocks
``r_1 .. r_s`` (by block forward substitution, never forming the stacked
stage system), the local-error coefficient matrices ``d_{j,k}``, and the
order-reduction matrix ``W`` that links stage-order consistency to one
extra order of convergence.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .decomposition import CellPartition
from .tableau import PRKTableau, classical_order, simplifying_defects, stage_order

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


@dataclass(frozen=True)
class LinearSplitting:
    """Scaled operator parts ``Z_k = dt * L_k`` of one linear problem."""

    Zs: tuple[np.ndarray, ...]

    def __post_init__(self):
        m = self.Zs[0].shape[0]
        for Zk in self.Zs:
            if Zk.shape != (m, m):
                raise ValueError("all Z_k must be square with equal size")

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


def _stage_blocks(tab: PRKTableau, ls: LinearSplitting) -> list[np.ndarray]:
    """``r_1..r_s`` by block forward substitution: the stage system is block
    lower triangular for explicit tableaus, so O(s^2) products of size m."""
    if ls.r != tab.r:
        raise ValueError("splitting and tableau part counts differ")
    m = ls.m
    s, r = tab.s, tab.r
    A, b = tab.plan.A, tab.plan.b

    # x_j = B_j + sum_{i>j} x_i M_{ij},  B_j = sum_k b_j^(k) Z_k,
    # M_{ij} = sum_k a_ij^(k) Z_k
    x: list[np.ndarray | None] = [None] * s
    for j in range(s - 1, -1, -1):
        acc = np.zeros((m, m))
        for k in range(r):
            if b[k][j] != 0.0:
                acc += b[k][j] * ls.Zs[k]
        for i in range(j + 1, s):
            coeff = [A[k][i][j] for k in range(r)]
            if any(coeff):
                Mij = np.zeros((m, m))
                for k in range(r):
                    if coeff[k]:
                        Mij += coeff[k] * ls.Zs[k]
                acc += x[i] @ Mij
        x[j] = acc
    return x


def _defect_matrix(x: list[np.ndarray], lead, vec) -> np.ndarray:
    """``lead I + sum_i vec_i r_i`` for one B(j)/C(j) defect pair, with the
    bits of ``lead * eye(m)`` (signed zeros too) as the start."""
    d = np.full(x[0].shape, 0.0 * float(lead))
    np.fill_diagonal(d, float(lead))
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
    of ``d_{j,k}`` are the tableau's B(j)/C(j) defects.
    """
    x = _stage_blocks(tab, ls)
    if j_max is None:
        j_max = classical_order(tab) + 1
    d = {(j, k): _defect_matrix(x, lead, vec) for j in range(1, j_max + 1)
         for k, (lead, vec) in enumerate(simplifying_defects(tab, j))}
    return ErrorOperators(r_blocks=tuple(x), R=_add_blocks(np.eye(ls.m), x), d=d)


@dataclass(frozen=True)
class WResult:
    W: np.ndarray | None
    norm_w: float
    cond_rTe: float
    ok: bool
    q: int


def solve_W(tab: PRKTableau, ls: LinearSplitting, partition: CellPartition) -> WResult:
    """Solve ``(r^T e) W = sum_k d_{q+1,k} I_k`` for the damping matrix W.

    A uniformly bounded ``W`` upgrades order-q consistency to order-(q+1)
    convergence in the maximum norm.  When ``r^T e`` is singular or its
    condition estimate exceeds ``COND_LIMIT`` the result is flagged
    unusable instead of raising.  It forms no ``R`` and no ``d_{j,k}`` for j <= q.
    """
    if partition.r != tab.r or partition.shape != (ls.m,):
        raise ValueError("partition needs one mask per tableau part, each over the m cells")
    q = stage_order(tab)
    x = _stage_blocks(tab, ls)
    B = np.zeros((ls.m, ls.m))
    for mk, (lead, vec) in zip(partition.masks, simplifying_defects(tab, q + 1)):
        B += _defect_matrix(x, lead, vec) * mk[None, :].astype(float)
    M = _add_blocks(x[0], x[1:])
    del x  # the other stage blocks go before the inverse
    try:
        Minv = np.linalg.inv(M)
    except np.linalg.LinAlgError:
        return WResult(W=None, norm_w=float("inf"), cond_rTe=float("inf"), ok=False, q=q)
    cond = _inf_norm(M) * _inf_norm(Minv)
    W = Minv @ B
    return WResult(W=W, norm_w=_inf_norm(W), cond_rTe=cond, ok=bool(cond <= COND_LIMIT), q=q)


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
    Costs ``m + 1`` evaluations and one dense m x m matrix per part;
    ``fig3`` reads its splittings this way, up to m = 640.
    """
    needed = (True,) * parts.r
    zero, vals = np.empty((2, parts.r, m))
    parts.eval_parts(0.0, np.zeros(m), needed, zero)
    mats = [np.zeros((m, m)) for _ in range(parts.r)]
    for i in range(m):
        e = np.zeros(m)
        e[i] = 1.0
        parts.eval_parts(0.0, e, needed, vals)
        for k in range(parts.r):
            mats[k][:, i] = vals[k] - zero[k]
    return mats
