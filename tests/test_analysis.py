"""Amplification operator, local-error coefficients, W matrix, stability."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from prk.analysis import (
    COND_LIMIT,
    _ROW_BLOCK,
    LinearSplitting,
    _inf_norm,
    _inverse_rows,
    _lower_bands,
    _max_row_sum,
    build_error_operators,
    linearize_parts,
    predicted_local_error,
    solve_W,
    stability_check,
)
from prk.decomposition import CellPartition, CellSplitParts, FluxPartition, FluxSplitParts
from prk.harness import _wnorm_splitting
from prk.spatial import upwind1d
from prk.stepper import prk_step
from prk.tableau import (
    PRKTableau,
    builtin_names,
    builtin_tableau,
    classical_order,
    simplifying_defects,
    stage_order,
)
from prk.weno import lower_solve_op, ops_call
from test_weno import each_kernel  # noqa: F401


def _bidiagonal(dx, periodic):
    """The upwind matrix ``L``, built entry by entry: the oracle for what
    ``linearize_parts`` reads off ``upwind1d``'s right-hand side."""
    dx = np.asarray(dx, dtype=float)
    m = dx.size
    L = np.zeros((m, m))
    L[np.arange(m), np.arange(m)] = -1.0 / dx
    L[np.arange(1, m), np.arange(m - 1)] = 1.0 / dx[1:]
    if periodic:
        L[0, m - 1] = 1.0 / dx[0]
    return L


def _cell_splitting(prob, part, dt):
    """``Z_k = dt I_k L``, read off the cell split the stepper runs."""
    mats = linearize_parts(CellSplitParts(prob.rhs, part), prob.grid.m)
    return LinearSplitting(tuple(dt * L for L in mats))


def _upwind_splitting(m=20, nu=0.4, lo=None, hi=None):
    prob = upwind1d(m=m, boundary="inflow")
    refined = np.zeros(m, dtype=bool)
    refined[(lo if lo is not None else m // 3):(hi if hi is not None else 2 * m // 3)] = True
    part = CellPartition.two_region(refined)
    dt = nu / m
    return prob, part, _cell_splitting(prob, part, dt), dt


def _random_splitting(rng, m, r, scale=0.5):
    return LinearSplitting(
        tuple(scale * rng.standard_normal((m, m)) for _ in range(r)))


# ----------------------------------------------------------------------
# operator assembly
# ----------------------------------------------------------------------

def test_zero_splitting_gives_identity():
    m = 6
    ls = LinearSplitting((np.zeros((m, m)), np.zeros((m, m))))
    for name in ("OS1", "TW1", "TW2", "CS2", "SH2"):
        ops = build_error_operators(builtin_tableau(name), ls)
        assert np.array_equal(ops.R, np.eye(m))
        for blk in ops.r_blocks:
            assert np.abs(blk).max() == 0.0
        assert np.abs(ops.d[(1, 0)]).max() == 0.0  # order >= 1


def test_forward_euler_amplification():
    rng = np.random.default_rng(0)
    Z = rng.standard_normal((5, 5))
    ops = build_error_operators(builtin_tableau("FE1"),
                                LinearSplitting((Z,)))
    assert np.abs(ops.R - (np.eye(5) + Z)).max() < 1e-15


def test_two_stage_multirate_closed_forms():
    # the two-part scheme on upwind advection: residual blocks, their sum
    # and the leading error coefficients all have short closed forms
    _, part, ls, _ = _upwind_splitting()
    m = ls.m
    Z, Z2 = sum(ls.Zs), ls.Zs[1]
    ops = build_error_operators(builtin_tableau("OS1"), ls)
    eye = np.eye(m)
    assert np.abs(ops.r_blocks[0] - 0.5 * Z @ (eye + 0.5 * Z2)).max() < 1e-14
    assert np.abs(ops.r_blocks[1] - 0.5 * Z).max() < 1e-14
    block_sum = sum(ops.r_blocks[1:], ops.r_blocks[0])
    assert np.abs(block_sum - Z @ (eye + 0.25 * Z2)).max() < 1e-14
    assert np.abs(ops.d[(1, 0)] - 0.25 * Z).max() < 1e-14
    assert np.abs(ops.d[(1, 1)]).max() == 0.0


def test_part_count_mismatch():
    ls = LinearSplitting((np.zeros((3, 3)),))
    with pytest.raises(ValueError):
        build_error_operators(builtin_tableau("OS1"), ls)


def test_error_coefficients_vanish_up_to_stage_order():
    rng = np.random.default_rng(1)
    for name in builtin_names():
        tab = builtin_tableau(name)
        q = stage_order(tab)
        ls = _random_splitting(rng, 8, tab.r)
        ops = build_error_operators(tab, ls, j_max=q + 1)
        for j in range(1, q + 1):
            for k in range(tab.r):
                assert np.abs(ops.d[(j, k)]).max() < 1e-13, (name, j, k)


def test_error_coefficients_scale_with_dt():
    # d_{j,k} = O(dt^(p+1-j)) when every part matrix scales with dt
    prob, part, _, _ = _upwind_splitting()
    mats = linearize_parts(CellSplitParts(prob.rhs, part), prob.grid.m)
    for name, p in (("CS2", 2), ("TW2", 2), ("OS1", 1)):
        tab = builtin_tableau(name)
        q = stage_order(tab)
        j = q + 1
        dts = [0.02 / 2**i for i in range(4)]
        normvals = []
        for dt in dts:
            ls = LinearSplitting(tuple(dt / prob.grid.m * L for L in mats))
            ops = build_error_operators(tab, ls, j_max=j)
            normvals.append(max(np.abs(ops.d[(j, k)]).max() for k in range(2)))
        slope = np.polyfit(np.log2(dts), np.log2(normvals), 1)[0]
        assert abs(slope - (p + 1 - j)) < 0.3, (name, slope)


# ----------------------------------------------------------------------
# W matrix
# ----------------------------------------------------------------------

def test_solve_w_two_stage_closed_form():
    # raw solution of (r^T e) W = sum_k d_{1,k} I_k; the closed form
    # (I + Z2/4)^{-1} I1 absorbs the leading scalar 1/4 of d_{1,1}
    _, part, ls, _ = _upwind_splitting(m=40, nu=0.5)
    m = ls.m
    res = solve_W(builtin_tableau("OS1"), ls, part)
    closed = np.linalg.solve(np.eye(m) + 0.25 * ls.Zs[1],
                             np.diag(part.masks[0].astype(float)))
    assert res.ok and res.q == 0
    assert np.abs(4.0 * res.W - closed).max() < 1e-12
    # and the defining equation holds as stated
    r_blocks = build_error_operators(builtin_tableau("OS1"), ls, j_max=1).r_blocks
    lhs = sum(r_blocks[1:], r_blocks[0]) @ res.W
    rhs = 0.25 * sum(ls.Zs) @ np.diag(part.masks[0].astype(float))
    assert np.abs(lhs - rhs).max() < 1e-13


def test_solve_w_trivial_refined_part():
    # with Z2 = 0 (and a nonsingular Z1, so not a cell splitting) the
    # closed form collapses to the region-1 indicator
    rng = np.random.default_rng(8)
    m = 12
    Z1 = 0.2 * rng.standard_normal((m, m)) + np.eye(m)
    refined = np.zeros(m, dtype=bool)
    refined[7:] = True
    part = CellPartition.two_region(refined)
    ls = LinearSplitting((Z1, np.zeros((m, m))))
    res = solve_W(builtin_tableau("OS1"), ls, part)
    assert res.ok
    scaled = 4.0 * res.W
    assert np.abs(scaled - np.diag(part.masks[0].astype(float))).max() < 1e-12
    assert abs(4.0 * res.norm_w - 1.0) < 1e-12


def test_solve_w_norm_bound_under_theta():
    for nu in (0.2, 0.5, 0.9):
        _, part, ls, _ = _upwind_splitting(m=60, nu=nu)
        stab = stability_check(ls)
        theta = stab.theta
        assert theta < 1.0
        res = solve_W(builtin_tableau("OS1"), ls, part)
        assert 4.0 * res.norm_w <= 1.0 / (1.0 - theta) + 1e-12


def test_solve_w_flags_singular_system():
    m = 5
    ls = LinearSplitting((np.zeros((m, m)), np.zeros((m, m))))
    part = CellPartition.two_region(np.array([False, False, True, True, True]))
    res = solve_W(builtin_tableau("OS1"), ls, part)
    assert not res.ok
    assert res.cond_rTe == np.inf or res.cond_rTe > 1e12


@pytest.mark.parametrize("masks", [
    tuple(np.repeat(np.eye(3, dtype=bool), 2, axis=1)),  # zip would drop the third
    (np.array([True]), np.array([False])),  # would broadcast over all six cells
])
def test_solve_w_rejects_a_partition_that_does_not_fit(masks):
    _, _, ls, _ = _upwind_splitting(m=6)
    with pytest.raises(ValueError, match="one mask per tableau part, each over the m cells"):
        solve_W(builtin_tableau("TW2"), ls, CellPartition(masks))


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


def _whole_inf_norm(M) -> float:
    """The maximum norm in one numpy expression over the whole matrix."""
    return float(np.max(np.sum(np.abs(M), axis=1)))


@st.composite
def _two_part_tableaus(draw):
    """A builtin two-part scheme or random explicit two-part coefficients."""
    builtin = draw(st.sampled_from(["OS1", "TW1", "TW2", "CS2", "SH2", None]))
    if builtin:
        return builtin_tableau(builtin)
    s = draw(st.integers(1, 5))
    coeff = st.fractions(-2, 2, max_denominator=4)
    A = [[[draw(coeff) if j < i else 0 for j in range(s)] for i in range(s)]
         for _ in range(2)]
    return PRKTableau.from_coeffs(A, [[draw(coeff) for _ in range(s)] for _ in range(2)])


def _textbook_solve(M, rhs):
    """``M^{-1}``, ``M^{-1} rhs`` and ``|M|_inf`` for a lower triangular M with
    a nonzero diagonal, entry by entry: with w the last diagonal below the
    main one that holds a nonzero, X[i, c] is [I | rhs][i, c] less
    M[i, j] X[j, c] for j = i - w .. i - 1 in that order, divided by
    M[i, i]; a row's |entries| are summed from the diagonal outwards."""
    m = len(M)
    rows, cols = np.nonzero(M)
    w = int((rows - cols).max(initial=0))
    X = np.hstack([np.eye(m), rhs]).tolist()
    for i in range(m):
        for c in range(2 * m):
            acc = X[i][c]
            for j in range(max(0, i - w), i):
                acc -= M[i, j] * X[j][c]
            X[i][c] = acc / M[i, i]
    X = np.array(X)
    norm = max(sum(abs(M[i, i - d]) for d in range(min(w, i) + 1)) for i in range(m))
    return X[:, :m], X[:, m:], norm


def _w_system(tab, ls, part):
    """``r^T e`` and the right-hand side ``sum_k d_{q+1,k} I_k``, dense, from
    ``build_error_operators``; each d_{q+1,k} checked against its definition."""
    q, m = stage_order(tab), ls.m
    ops = build_error_operators(tab, ls, j_max=q + 1)
    for k, (lead, vec) in enumerate(simplifying_defects(tab, q + 1)):
        # d_{q+1,k} = lead I + sum_i v_i r_i, from a dense identity
        djk = float(lead) * np.eye(m)
        for blk, v in zip(ops.r_blocks, map(float, vec)):
            if v:
                djk += blk * v
        assert ops.d[(q + 1, k)].tobytes() == djk.tobytes()
    rhs = sum(ops.d[(q + 1, k)] * mk[None, :].astype(float) for k, mk in enumerate(part.masks))
    return sum(ops.r_blocks[1:], ops.r_blocks[0]), rhs  # r^T e in solve_W's stage order


def _upwind_draw(data, m, periodic, nu):
    """Upwind advection on a random grid under a random two-part cell split."""
    # fill=nothing draws every entry, so neighbouring cells differ
    dx = data.draw(arrays(float, m, elements=st.floats(0.25, 1.0), fill=st.nothing())) / m
    prob = upwind1d(dx=dx, boundary="periodic" if periodic else "inflow")
    part = CellPartition.two_region(data.draw(arrays(bool, m, fill=st.nothing())))
    return _cell_splitting(prob, part, nu * float(dx.min())), part


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tab=_two_part_tableaus(), m=st.integers(4, 24), periodic=st.booleans(),
       nu=st.floats(0.1, 1.0), data=st.data())
def test_solve_w_is_byte_identical_to_the_general_path(each_kernel, tab, m, periodic, nu, data):
    # solve_W forms only r^T e and the d_{q+1,k}; W, its norm and the
    # condition estimate must keep every bit of the build_error_operators
    # path: through inv @ on a periodic splitting, and through the textbook
    # forward substitution on an inflow one, which is lower triangular and
    # solved by one compiled op (or its numpy twin)
    ls, part = _upwind_draw(data, m, periodic, nu)
    assert (ls.bands is None) == periodic
    M, rhs = _w_system(tab, ls, part)
    res = solve_W(tab, ls, part)
    if periodic:
        try:
            Minv = np.linalg.inv(M)
        except np.linalg.LinAlgError:
            Minv = None
        else:
            W, norm_M = Minv @ rhs, _inf_norm(M)
    elif np.all(np.diag(M)):
        Minv, W, norm_M = _textbook_solve(M, rhs)
    else:
        Minv = None
    if Minv is None:
        assert res.W is None and res.norm_w == res.cond_rTe == np.inf and not res.ok
    else:
        assert res.W.tobytes() == W.tobytes()
        assert _bits(res.norm_w) == _bits(_inf_norm(W))
        assert _bits(res.cond_rTe) == _bits(norm_M * _inf_norm(Minv))
    # stability_check adds the identity in place of forming eye + Z, and
    # sums an inflow splitting's rows from its bands: every bit of numpy's
    # row sums over the whole dense matrices
    rep, eye = stability_check(ls), np.eye(m)
    assert [_bits(rep.norm_part1), _bits(rep.norm_part2), _bits(rep.theta)] == [
        _bits(_whole_inf_norm(eye + ls.Zs[0])), _bits(_whole_inf_norm(eye + 0.5 * ls.Zs[1])),
        _bits(_whole_inf_norm(ls.Zs[1]) / 4.0)]


@settings(max_examples=100, deadline=None)
@given(tab=_two_part_tableaus(), m=st.integers(4, 24), nu=st.floats(0.1, 1.0),
       data=st.data())
def test_band_solve_agrees_with_the_dense_inverse(tab, m, nu, data):
    # on a lower-banded splitting, W's norm and the condition estimate
    # agree with inv(M) @ B to within 64 eps cond, relative; a system the
    # band path calls singular is one the LAPACK path rejects too
    ls, part = _upwind_draw(data, m, False, nu)
    M, rhs = _w_system(tab, ls, part)
    res = solve_W(tab, ls, part)
    try:
        Minv = np.linalg.inv(M)
    except np.linalg.LinAlgError:
        assert not res.ok and res.W is None
        return
    cond = _inf_norm(M) * _inf_norm(Minv)
    if res.W is None:
        assert not np.all(np.diag(M)) and not cond <= COND_LIMIT
        return
    tol, norm_w = 64 * np.finfo(float).eps * res.cond_rTe, _inf_norm(Minv @ rhs)
    assert abs(res.norm_w - norm_w) <= tol * norm_w
    assert abs(res.cond_rTe - cond) <= tol * cond
    assert res.ok == (cond <= COND_LIMIT) or abs(cond - COND_LIMIT) <= tol * cond


@settings(max_examples=50, deadline=None)
@given(tab=_two_part_tableaus(), m=st.integers(2, 24), nu=st.floats(0.1, 1.0),
       data=st.data())
def test_band_solve_flags_a_zero_diagonal(tab, m, nu, data):
    # a row that is zero in every Z_k is zero in every stage block, so
    # r^T e has a zero on its diagonal: unusable, as LAPACK finds it singular
    ls, part = _upwind_draw(data, m, False, nu)
    row = data.draw(st.integers(0, m - 1))
    Zs = tuple(Z.copy() for Z in ls.Zs)
    for Z in Zs:
        Z[row] = 0.0
    ls = LinearSplitting(Zs)
    assert ls.bands is not None
    res = solve_W(tab, ls, part)
    assert res.W is None and res.norm_w == res.cond_rTe == np.inf and not res.ok
    M, _ = _w_system(tab, ls, part)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(M)


_entries = st.one_of(st.floats(-4.0, 4.0), st.sampled_from([np.nan, np.inf, -np.inf, -0.0]))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.integers(1, 3 * _ROW_BLOCK + 5), cols=st.integers(1, 12), w=st.integers(0, 4),
       data=st.data())
def test_norms_by_blocks_of_rows_are_the_whole_matrix_norms(each_kernel, rows, cols, w, data):
    # _inf_norm sums _ROW_BLOCK rows at a time, and the condition estimate
    # sums the rows of (r^T e)^{-1} as _inverse_rows solves them; both must
    # keep every bit of the whole-matrix form, NaN and inf rows included
    A = data.draw(arrays(float, (rows, cols), elements=_entries))
    assert _bits(_inf_norm(A)) == _bits(_whole_inf_norm(A))
    # a band whose off-diagonals may hold inf or NaN, so the inverse does
    m = rows
    M = data.draw(arrays(float, (w + 1, m), elements=_entries))
    M[0] = data.draw(arrays(float, m, elements=st.floats(0.5, 2.0)))
    inverse = np.eye(m)
    with np.errstate(all="ignore"):
        ops_call(lower_solve_op(M, w, inverse))()
        streamed = _max_row_sum(_inverse_rows(M, w))
    assert _bits(streamed) == _bits(_whole_inf_norm(inverse))


def _working_set(call) -> tuple:
    """``call()``'s result and its tracemalloc peak, after a first call."""
    call()
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("scheme, most", [("TW2", 1.75), ("CS2", 1.75), ("SH2", 1.75)])
def test_solve_w_working_set(scheme, most):
    # tracemalloc sees numpy's array data: one solve, its result included,
    # may hold at most `most` dense m x m float64 arrays at once (W itself,
    # and the row blocks of (r^T e)^{-1} and of their |entries|)
    _, part, ls, _ = _upwind_splitting(m=256, nu=1.0)
    tab = builtin_tableau(scheme)  # its float plan is built on the first call
    res, peak = _working_set(lambda: solve_W(tab, ls, part))
    assert res.ok
    assert peak <= most * res.W.nbytes, f"{peak / res.W.nbytes:.2f} arrays"


def test_wnorm_splitting_working_set():
    # the fig3 splitting is probed into bands alone: no dense Z_k
    m = 256
    dense = m * m * 8
    (ls, _), peak = _working_set(lambda: _wnorm_splitting(m, 1.0))
    assert ls.bands is not None and "Zs" not in vars(ls)
    assert peak <= 0.25 * dense, f"{peak / dense:.2f} arrays"


def test_stability_check_working_set():
    # a banded splitting's stability report is taken from its bands
    m = 256
    dense = m * m * 8
    ls, _ = _wnorm_splitting(m, 1.0)
    rep, peak = _working_set(lambda: stability_check(ls))
    assert rep.stab1 and rep.stab2 and "Zs" not in vars(ls)
    assert peak <= 0.25 * dense, f"{peak / dense:.2f} arrays"


# ----------------------------------------------------------------------
# stability
# ----------------------------------------------------------------------

def test_stability_norms_for_upwind():
    # interior coarse rows of I + Z1 have row sum |1 - nu| + nu = 1
    _, _, ls, _ = _upwind_splitting(m=30, nu=0.5)
    rep = stability_check(ls)
    assert rep.stab1 and rep.stab2
    assert abs(rep.norm_part1 - 1.0) < 1e-12
    assert abs(rep.norm_part2 - 1.0) < 1e-12


def test_stability_zero_splitting():
    ls = LinearSplitting((np.zeros((4, 4)), np.zeros((4, 4))))
    rep = stability_check(ls)
    assert rep.norm_part1 == 1.0 and rep.norm_part2 == 1.0
    assert rep.stab1 and rep.stab2 and rep.theta == 0.0


def test_stability_refined_region_boundary():
    # |1 - nu2/2| + nu2/2 equals one exactly at nu2 = 2 and exceeds it above
    m = 24

    def norm2_at(nu2):
        h = 1.0 / m
        refined = np.zeros(m, dtype=bool)
        refined[m // 2 :] = True
        dx = np.where(refined, h / 2, h)
        prob = upwind1d(dx=dx, boundary="inflow")
        part = CellPartition.two_region(refined)
        dt = nu2 * h / 2  # Courant number nu2 on the refined cells
        return stability_check(_cell_splitting(prob, part, dt))

    at2 = norm2_at(2.0)
    assert abs(at2.norm_part2 - 1.0) < 1e-12 and at2.stab2
    above = norm2_at(2.4)
    assert above.norm_part2 > 1.0 and not above.stab2


def test_stability_requires_two_parts():
    with pytest.raises(ValueError):
        stability_check(LinearSplitting((np.zeros((3, 3)),)))


def test_powerbound_stable_multirate_step():
    # max over n <= 200 of |R^n|_inf stays at most one
    _, part, ls, _ = _upwind_splitting(m=100, nu=0.5)
    R = build_error_operators(builtin_tableau("OS1"), ls).R
    P, worst = np.eye(ls.m), 1.0
    for _ in range(200):
        P = P @ R
        worst = max(worst, np.abs(P).sum(axis=1).max())
    assert worst <= 1.0 + 1e-10


# ----------------------------------------------------------------------
# local-error prediction
# ----------------------------------------------------------------------

def _manufactured(prob, part, alpha=0.7):
    x = prob.grid.x
    s = np.sin(2 * np.pi * x) + 1.5
    uex = lambda t: s * np.exp(alpha * t)
    L = sum(linearize_parts(CellSplitParts(prob.rhs, part), x.size))
    F = lambda t, v: L @ v + (alpha * uex(t) - L @ uex(t))
    return uex, F, alpha


def test_predicted_error_matches_one_step_defect():
    prob, part, ls, dt = _upwind_splitting(m=16, nu=0.3)
    uex, F, alpha = _manufactured(prob, part)
    parts = CellSplitParts(F, part)
    tab = builtin_tableau("OS1")
    t0 = 0.4
    defect = uex(t0 + dt) - prk_step(tab, parts, t0, dt, uex(t0))
    phis = [[np.where(mk, alpha * uex(t0), 0.0)] for mk in part.masks]
    pred = predicted_local_error(tab, ls, phis, dt, order=1)
    # truncation is one power of dt beyond the predicted term
    assert np.abs(defect - pred).max() < 10 * dt**2


@settings(max_examples=30, deadline=None)
@given(flux=st.booleans(), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_predicted_error_matches_one_step_defect_on_cell_and_flux_splits(flux, seed, data):
    # u' = L u on the periodic upwind grid, split by random cell or face
    # masks; the exact phi_k^(j) = L_k L^j u0, so the expansion truncated
    # after dt^p leaves a residual of order p + 1 against the true defect
    from scipy.linalg import expm

    m = 16
    prob = upwind1d(m=m, boundary="periodic")
    if flux:  # the wrapped interface is one face, so its two ends agree
        faces = data.draw(arrays(bool, m + 1))
        faces[-1] = faces[0]
        parts = FluxSplitParts(prob.flux, FluxPartition((~faces, faces), prob.grid))
    else:
        parts = CellSplitParts(prob.rhs, CellPartition.two_region(data.draw(arrays(bool, m))))
    Ls = linearize_parts(parts, m)
    L = sum(Ls)
    u0 = np.random.default_rng(seed).standard_normal(m)
    for name in ("OS1", "CS2", "TW2", "SH2"):
        tab = builtin_tableau(name)
        p = classical_order(tab)
        phis = [[Lk @ np.linalg.matrix_power(L, j) @ u0 for j in range(p)] for Lk in Ls]
        residuals = []
        for dt in (0.004, 0.002):  # dt |L| <= 0.13
            defect = expm(dt * L) @ u0 - prk_step(tab, parts, 0.0, dt, u0)
            pred = predicted_local_error(tab, LinearSplitting(tuple(dt * Lk for Lk in Ls)),
                                         phis, dt, order=p)
            residuals.append(np.abs(defect - pred).max())
        slope = np.log2(residuals[0] / residuals[1])
        assert abs(slope - (p + 1)) <= 0.25, (name, slope)


def test_linear_in_time_solution_has_zero_defect_for_stage_order_one():
    # phi_k is constant for an affine-in-time solution, so every term
    # beyond the vanishing j=1 coefficient drops out exactly
    m = 14
    prob = upwind1d(m=m, boundary="inflow")
    refined = np.zeros(m, dtype=bool)
    refined[4:9] = True
    part = CellPartition.two_region(refined)
    x = prob.grid.x
    a, b = np.sin(2 * np.pi * x), np.cos(2 * np.pi * x) + 1.2
    uex = lambda t: a + b * t
    L = sum(linearize_parts(CellSplitParts(prob.rhs, part), m))
    F = lambda t, v: L @ v + (b - L @ uex(t))
    for name in ("TW1", "TW2", "SH2"):
        dt = 0.05
        defect = uex(dt) - prk_step(builtin_tableau(name), CellSplitParts(F, part),
                                    0.0, dt, uex(0.0))
        assert np.abs(defect).max() < 1e-13, name


def test_linearize_parts_recovers_masked_matrix():
    m = 9
    prob = upwind1d(m=m, boundary="inflow")
    refined = np.zeros(m, dtype=bool)
    refined[5:] = True
    part = CellPartition.two_region(refined)
    parts = CellSplitParts(prob.rhs, part)
    mats = linearize_parts(parts, m)
    L = _bidiagonal(prob.grid.dx, periodic=False)
    assert np.abs(mats[0] - np.where(part.masks[0][:, None], L, 0.0)).max() < 1e-12
    assert np.abs(mats[1] - np.where(part.masks[1][:, None], L, 0.0)).max() < 1e-12


def _probed_densely(parts, m, dt):
    """``dt L_k`` by the ``m + 1`` probes of ``LinearSplitting.probed``,
    each response written into a column of dense matrices."""
    vals = np.empty((parts.r, m))
    write, phi, op = parts.evaluation(vals, (True,) * parts.r)
    e = np.zeros(m)
    write(0.0, e, phi)
    ops_call(op)()
    zero, mats = vals.copy(), np.zeros((parts.r, m, m))
    for i in range(m):
        e[i] = 1.0
        write(0.0, e, phi)
        ops_call(op)()
        e[i] = 0.0
        mats[:, :, i] = vals - zero
    return mats * dt


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(m=st.integers(1, 16), lower=st.integers(0, 16), upper=st.integers(-1, 16),
       dt=st.floats(0.01, 4.0), data=st.data())
def test_probed_bands_are_the_diagonals_of_dense_probing(each_kernel, m, lower, upper, dt, data):
    # the probes write band columns, widen the band at a deeper nonzero and
    # turn dense at a value above the diagonal or a -0 off the band: the
    # splitting's Zs are dense probing's bit for bit, and its bands those
    # of the dense matrices.  F is L v + g, L zero outside a random band,
    # with the rows `flip` negated at a nonzero probe, so that a +0 entry
    # can read -0
    values = st.sampled_from([0.0, -0.0, 1.0, -1.5, 0.25])
    L = data.draw(arrays(float, (m, m), elements=values))
    L[np.tril(np.ones((m, m), dtype=bool), -lower - 1) | np.triu(np.ones((m, m), dtype=bool),
                                                                    upper + 1)] = 0.0
    g = data.draw(arrays(float, m, elements=values))
    flip = np.where(data.draw(arrays(bool, m)), -1.0, 1.0)
    part = CellPartition.two_region(data.draw(arrays(bool, m)))
    parts = CellSplitParts(lambda t, v: (L @ v) * (flip if v.any() else 1.0) + g, part)
    ls = LinearSplitting.probed(parts, m, dt)
    want = _probed_densely(parts, m, dt)
    assert [Z.tobytes() for Z in ls.Zs] == [Z.tobytes() for Z in want]
    bands = _lower_bands(tuple(want))
    assert (ls.bands is None) == (bands is None)
    if bands is not None:
        assert ls.bands.shape == bands.shape and ls.bands.tobytes() == bands.tobytes()


@settings(max_examples=100, deadline=None)
@given(dx=arrays(float, st.integers(2, 40), elements=st.floats(1e-3, 1e3), fill=st.nothing()),
       periodic=st.booleans(), dt=st.floats(1e-4, 10.0), data=st.data())
def test_linearized_cell_split_is_byte_identical_to_the_masked_bidiagonal(dx, periodic, dt,
                                                                         data):
    # fig3 reads Z_k off the cell split of upwind1d's rhs; every bit, signed
    # zeros included, must be those of dt I_k L from the hand-built matrix
    m = dx.size
    prob = upwind1d(dx=dx, boundary="periodic" if periodic else "inflow")
    part = CellPartition.two_region(data.draw(arrays(bool, m)))
    mats = linearize_parts(CellSplitParts(prob.rhs, part), m)
    for Z in mats:
        Z *= dt
    want = LinearSplitting.cell_based(_bidiagonal(dx, periodic), dt, part).Zs
    assert [Z.tobytes() for Z in mats] == [Z.tobytes() for Z in want]
