"""Stepping semantics: base-method reduction, evaluation counts, failure
modes and reference integration."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from prk import decomposition, weno
from prk.analysis import LinearSplitting, build_error_operators, linearize_parts
from prk.decomposition import (
    CellPartition,
    CellSplitParts,
    DynamicCellSplit,
    FluxPartition,
    FluxPartition2D,
    FluxSplit2DParts,
    FluxSplitParts,
    TrivialParts,
    burgers_dynamic_partition,
)
from prk.spatial import advection1d_weno5, advection2d, burgers_llf, upwind1d
from prk.stepper import (
    IntegrationDiverged,
    IntegrationRun,
    integrate,
    prk_step,
    reference_integrate,
)
from prk.tableau import PRKTableau, builtin_names, builtin_tableau
from test_analysis import _bidiagonal
from test_decomposition import _fresh_split
from test_weno import each_kernel  # noqa: F401


def _fe_steps(F, u, t, dt, n):
    for i in range(n):
        u = u + (dt / n) * F(t + i * dt / n, u)
    return u


def _etr_steps(F, u, t, dt, n):
    h = dt / n
    for i in range(n):
        ti = t + i * h
        pred = u + h * F(ti, u)
        u = u + 0.5 * h * (F(ti, u) + F(ti + h, pred))
    return u


BASE = {
    "OS1": _fe_steps, "TW1": _fe_steps,
    "TW2": _etr_steps, "CS2": _etr_steps, "SH2": _etr_steps,
}


def test_forward_euler_scalar():
    lam = -0.7
    F = lambda t, v: lam * v
    u1 = prk_step(builtin_tableau("FE1"), TrivialParts(F), 0.0, 0.1, np.array([2.0]))
    assert np.isclose(u1[0], (1 + lam * 0.1) * 2.0, rtol=0, atol=1e-16)


# random autonomous linear systems u' = L u + g: size, entries, state, step
def _entries(shape):
    return arrays(float, shape, elements=st.floats(-1.0, 1.0), fill=st.nothing())


linear_systems = st.integers(2, 20).flatmap(lambda m: st.tuples(
    _entries((m, m)), _entries(m), _entries(m), st.floats(0.01, 0.5)))


@pytest.mark.parametrize("scheme", sorted(BASE))
@pytest.mark.parametrize("region", [0, 1])
@settings(max_examples=60, deadline=None)
@given(system=linear_systems)
def test_reduction_to_base_method(scheme, region, system):
    """With everything in one region the step collapses to m_k substeps of
    the base method (autonomous system)."""
    L, g, u0, dt = system
    m = u0.size
    F = lambda t, v: L @ v + g
    mask = np.full(m, region == 1)
    parts = CellSplitParts(F, CellPartition.two_region(mask))
    got = prk_step(builtin_tableau(scheme), parts, 0.2, dt, u0)
    want = BASE[scheme](F, u0, 0.2, dt, 1 if region == 0 else 2)
    # round-off of values that grow by at most a factor 1 + dt (|L| + 1)
    # per stage, since |g| <= 1
    growth = 1.0 + dt * (np.abs(L).sum(axis=1).max() + 1.0)
    scale = max(1.0, np.abs(u0).max()) * growth ** 4
    assert np.abs(got - want).max() <= 1e-14 * scale


@pytest.mark.parametrize("scheme", ["TW1", "TW2", "SH2"])
@pytest.mark.parametrize("region", [0, 1])
def test_reduction_survives_time_dependence_when_internally_consistent(scheme, region):
    # the shared abscissae equal every part's own row sums exactly when the
    # scheme is internally consistent, so nonautonomous forcing keeps the
    # reduction; OS1 and CS2 lose it because their part-1 stage times differ
    rng = np.random.default_rng(5 + region)
    m = 9
    L = rng.standard_normal((m, m)) * 0.4
    g = rng.standard_normal(m)
    F = lambda t, v: L @ v + np.cos(3 * t) * g
    u0 = rng.standard_normal(m)
    parts = CellSplitParts(F, CellPartition.two_region(np.full(m, region == 1)))
    got = prk_step(builtin_tableau(scheme), parts, 0.2, 0.13, u0)
    want = BASE[scheme](F, u0, 0.2, 0.13, 1 if region == 0 else 2)
    assert np.abs(got - want).max() < 1e-14

    cs2 = prk_step(builtin_tableau("CS2"), parts, 0.2, 0.13, u0)
    etr = _etr_steps(F, u0, 0.2, 0.13, 1 if region == 0 else 2)
    if region == 0:
        assert np.abs(cs2 - etr).max() > 1e-6  # genuinely different quadrature
    else:
        # the refined part is the last one, whose row sums define c
        assert np.abs(cs2 - etr).max() < 1e-14


def test_interface_cell_update_for_two_stage_flux_split():
    # one step from arbitrary data at the last coarse cell: the update is
    # u + nu (u_left - u) + nu^2 u / 4
    m = 10
    prob = upwind1d(m=m, boundary="inflow")
    i = 4
    refined = np.zeros(m, dtype=bool)
    refined[i + 1 :] = True
    fp = FluxPartition.from_cells(CellPartition.two_region(refined), prob.grid)
    parts = FluxSplitParts(prob.flux, fp)
    rng = np.random.default_rng(1)
    u0 = rng.random(m) + 0.5
    dt = 0.04
    nu = dt / prob.grid.dx[i]
    u1 = prk_step(builtin_tableau("OS1"), parts, 0.0, dt, u0)
    want = u0[i] + nu * (u0[i - 1] - u0[i]) + 0.25 * nu**2 * u0[i]
    assert abs(u1[i] - want) <= 1e-14


def test_step_is_affine_with_amplification_matrix():
    m = 25
    prob = upwind1d(m=m, boundary="inflow")
    refined = np.zeros(m, dtype=bool)
    refined[8:17] = True
    part = CellPartition.two_region(refined)
    dt = 0.35 / m
    mats = linearize_parts(CellSplitParts(prob.rhs, part), m)
    ls = LinearSplitting(tuple(dt * L for L in mats))
    for name in builtin_names():
        tab = builtin_tableau(name)
        splitting = ls if tab.r == 2 else LinearSplitting((sum(ls.Zs),))
        parts = (CellSplitParts(prob.rhs, part) if tab.r == 2
                 else TrivialParts(prob.rhs))
        R = build_error_operators(tab, splitting).R
        realized = np.column_stack([
            prk_step(tab, parts, 0.0, dt, np.eye(m)[:, j]) for j in range(m)
        ])
        assert np.abs(realized - R).max() < 1e-12, name


@settings(max_examples=150, deadline=None)
@given(scheme=st.sampled_from(["OS1", "TW1", "TW2", "CS2", "SH2"]),
       widths=arrays(float, st.integers(4, 12), elements=st.floats(0.25, 1.0),
                     fill=st.nothing()),
       periodic=st.booleans(), by_faces=st.booleans(), nu=st.floats(0.05, 1.0),
       data=st.data())
def test_step_matches_the_amplification_matrix_on_random_partitions(
        scheme, widths, periodic, by_faces, nu, data):
    # upwind advection (periodic, or with zero inflow, so the step is
    # linear) on a random nonuniform grid, under a random cell or flux
    # partition: the step on each basis vector is a column of the
    # analysis's R, built from the parts that linearize_parts reads off
    m = widths.size
    prob = upwind1d(dx=widths / m, boundary="periodic" if periodic else "inflow")
    if by_faces:
        faces = data.draw(arrays(bool, m + 1))
        if periodic:
            faces[-1] = faces[0]
        parts = FluxSplitParts(prob.flux, FluxPartition((~faces, faces), prob.grid))
    else:
        refined = data.draw(arrays(bool, m))
        parts = CellSplitParts(prob.rhs, CellPartition.two_region(refined))
    dt = nu * prob.grid.min_width
    mats = linearize_parts(parts, m)
    assert np.abs(sum(mats) - _bidiagonal(prob.grid.dx, periodic)).max() < 1e-12 * m
    tab = builtin_tableau(scheme)
    R = build_error_operators(tab, LinearSplitting(tuple(dt * L for L in mats))).R
    realized = np.column_stack([prk_step(tab, parts, 0.0, dt, e) for e in np.eye(m)])
    assert np.abs(realized - R).max() < 1e-12


def _textbook_step(tab, parts, t, dt, u):
    """One step by the textbook loop over the plan's float coefficients:
    every sum in (k, j) term order, started from its first nonzero term,
    then ``u + dt * sum``."""
    A, b, c = tab.plan.A, tab.plan.b, tuple(map(float, tab.c))
    r, s = tab.r, tab.s
    K = [[None] * r for _ in range(s)]
    for i in range(s):
        acc = None
        for k in range(r):
            for j in range(i):
                if A[k][i][j] != 0.0:
                    term = A[k][i][j] * K[j][k]
                    acc = term if acc is None else acc + term
        v = u if acc is None else u + dt * acc
        needed = tuple(b[k][i] != 0.0 or any(A[k][l][i] != 0.0 for l in range(i + 1, s))
                       for k in range(r))
        if any(needed):
            K[i] = np.full((r,) + np.shape(u), np.nan)
            parts.eval_parts(t + c[i] * dt, v, needed, K[i])
    acc = None
    for k in range(r):
        for j in range(s):
            if b[k][j] != 0.0:
                term = b[k][j] * K[j][k]
                acc = term if acc is None else acc + term
    return u if acc is None else u + dt * acc


# states with exact +0 and -0 entries, alone or among random values
def states(m):
    zeros = st.sampled_from([0.0, -0.0])
    mixed = st.one_of(zeros, st.floats(-1.0, 1.0))
    return st.one_of(arrays(float, m, elements=zeros, fill=st.nothing()),
                     arrays(float, m, elements=mixed, fill=st.nothing()))


def _random_split(split, scheme, m, data):
    """A builder of a split of the kind ``split`` for the tableau
    ``scheme`` on a WENO5 problem of ``m`` cells (``m`` by ``m`` for
    ``flux2d``) under random region masks, and a state for it.  Each build
    makes a fresh problem, whose flux binds the kernel in use when it
    first runs."""
    one_region = builtin_tableau(scheme).r == 1

    def masks(shape, wrap=False):
        refined = (np.zeros(shape, dtype=bool) if one_region
                   else data.draw(arrays(bool, shape)))
        if wrap:
            refined[-1] = refined[0]
        return (~refined, refined)[: 1 if one_region else 2]

    if split == "flux2d":
        faces = masks((m, m + 1)), masks((m + 1, m))
        u = data.draw(arrays(float, (m, m), elements=st.floats(-1.0, 1.0)))
    else:
        regions = masks(m + 1, wrap=True) if split == "flux" else masks(m)
        u = data.draw(states(m))

    def build():
        if split == "flux2d":
            prob = advection2d(m)
            return FluxSplit2DParts(prob.flux, FluxPartition2D(*faces, prob.grid))
        if split == "dynamic":
            return DynamicCellSplit(burgers_llf(m).rhs, burgers_dynamic_partition)
        prob = advection1d_weno5(m)
        if split == "trivial":
            return TrivialParts(prob.rhs)
        if split == "flux":
            return FluxSplitParts(prob.flux, FluxPartition(regions, prob.grid))
        return CellSplitParts(prob.rhs, CellPartition(regions))

    return build, u


@settings(max_examples=150, deadline=None)
@given(split=st.sampled_from(["cell", "flux", "dynamic", "trivial", "flux2d"]),
       scheme=st.sampled_from(["OS1", "TW1", "TW2", "CS2", "SH2", "ETR2"]),
       m=st.integers(6, 16), nu=st.floats(0.05, 1.0), t=st.floats(0.0, 1.0), data=st.data())
def test_step_is_bytewise_the_textbook_evaluation_of_the_plan(split, scheme, m, nu, t, data):
    # WENO5 problems under random cell and face partitions (one region for
    # the single-part ETR2), the two-region Burgers rule and the trivial
    # split: the stepper's sums round exactly as the textbook's, on each
    # kernel, in one step and in three steps of a run; bytes are compared,
    # so a zero's sign would count too
    assume(split != "dynamic" or scheme != "ETR2")
    scheme = "ETR2" if split == "trivial" else scheme
    tab, dt = builtin_tableau(scheme), nu / m
    build, u = _random_split(split, scheme, m, data)
    kept = u.tobytes()
    for library in [None] if weno.KERNEL == "numpy" else [weno._kernel_library(), None]:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(weno, "_kernel_library", lambda: library)
            parts = build()
            got = prk_step(tab, parts, t, dt, u)  # a dynamic split is rebuilt from u
            want = _textbook_step(tab, parts, t, dt, u)
            assert got.tobytes() == want.tobytes()
            run = integrate(IntegrationRun(tab, parts, dt=dt, t_end=3 * dt, u0=u)).u
            want = u
            for n in range(3):
                if split == "dynamic":
                    parts.begin_step(want)
                want = _textbook_step(tab, parts, n * dt, dt, want)
            assert run.shape == want.shape
            assert run.tobytes() == want.tobytes()
    assert u.tobytes() == kept  # the caller's state is never written


TWO_PART_SCHEMES = [name for name in builtin_names() if builtin_tableau(name).r == 2]


@settings(max_examples=300, deadline=None)
@given(split=st.sampled_from(["cell", "flux", "dynamic"]),
       scheme=st.sampled_from(TWO_PART_SCHEMES), k=st.integers(2, 5),
       m=st.integers(6, 16), nu=st.floats(0.05, 1.0), data=st.data())
def test_k_calls_of_prk_step_are_bytewise_k_steps_of_integrate(split, scheme, k, m, nu,
                                                               data):
    # a step is one thing: a loop of prk_step, each call on a fresh store,
    # rebuilds a dynamic partition from the state at the top of every step
    # as integrate does, and takes the same operations in between
    tab, dt = builtin_tableau(scheme), nu / m
    build, u0 = _random_split(split, scheme, m, data)
    if split == "dynamic":  # about the rule's threshold, where cells change region
        u0 = u0 + 0.125
    u, parts = u0, build()
    for n in range(k):
        u = prk_step(tab, parts, n * dt, dt, u)
    run = integrate(IntegrationRun(tab, build(), dt=dt, t_end=k * dt, u0=u0))
    assert run.n_steps == k
    assert u.tobytes() == run.u.tobytes()


@pytest.mark.parametrize("scheme", ["TW2", "CS2", "SH2"])
def test_prk_step_loop_tracks_the_shock_as_integrate_does(scheme):
    # the shock moves across cells over 20 steps, so a partition kept from
    # the first step would leave the loop 0.18 to 0.23 away in the max norm
    prob, tab, dt = burgers_llf(64), builtin_tableau(scheme), 1.0 / 64
    u = prob.initial
    parts = DynamicCellSplit(prob.rhs, burgers_dynamic_partition)
    for n in range(20):
        u = prk_step(tab, parts, n * dt, dt, u)
    run = integrate(IntegrationRun(tab, DynamicCellSplit(prob.rhs, burgers_dynamic_partition),
                                   dt=dt, t_end=20 * dt, u0=prob.initial))
    assert u.tobytes() == run.u.tobytes()


# every split class with every builtin tableau of its number of parts
_SPLITS_AND_SCHEMES = [(kind, scheme) for kind in ("cell", "flux", "flux2d", "dynamic", "trivial")
                       for scheme in builtin_names()
                       if (builtin_tableau(scheme).r == 1) == (kind == "trivial")]


@pytest.mark.parametrize("kind, scheme", _SPLITS_AND_SCHEMES)
def test_each_evaluated_stage_calls_the_flux_once(each_kernel, kind, scheme):
    # the problem's flux wrapped before the split is built, as a counting
    # benchmark wraps it: one call per evaluated stage, at its abscissa, in
    # plan order, and nothing else calls it
    calls = []
    prob, split = _fresh_split(kind, calls)
    tab, dt = builtin_tableau(scheme), 0.25 * prob.grid.min_width
    integrate(IntegrationRun(tab, split, dt, 3 * dt, prob.initial))
    assert calls == [n * dt + c * dt for n in range(3) for _, c, _, _ in tab.plan.stages]


@pytest.mark.parametrize("kind", ["cell", "flux", "flux2d", "dynamic", "trivial", "rhs"])
def test_no_package_path_calls_eval_parts(each_kernel, monkeypatch, kind):
    # the stepper and the analysis take a split's parts through its
    # ``evaluation`` alone: with ``eval_parts`` raising, a run, a step and
    # (on the 1D states it probes) a linearization still go through
    def no_eval_parts(*_args):
        raise AssertionError("eval_parts called")

    monkeypatch.setattr(decomposition._Split, "eval_parts", no_eval_parts)
    prob, split = _fresh_split(kind)
    tab = builtin_tableau("ETR2" if split.r == 1 else "TW2")
    dt = 0.25 * prob.grid.min_width
    integrate(IntegrationRun(tab, split, dt, 3 * dt, prob.initial))
    prk_step(tab, split, 0.0, dt, prob.initial)
    if kind != "flux2d":
        mats = linearize_parts(split, prob.grid.m)
        assert len(mats) == split.r


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("scheme, build, since", [
    ("FE1", lambda F: TrivialParts(F), 2.5),
    ("TW2", lambda F: CellSplitParts(F, CellPartition.two_region(np.arange(6) >= 3)), 3.25),
], ids=["trivial", "cell"])
def test_divergence_names_the_step_whose_state_is_not_finite(each_kernel, value, scheme, build,
                                                             since):
    # the right-hand side turns non-finite after ``since`` steps of time:
    # past step 3's last stage (FE1 at 2 dt, TW2 at 3 dt) and before a
    # stage of step 4, so the compiled check at the end of step 4 fails
    dt = 0.1

    def F(t, v):
        return np.full_like(v, value if t > since * dt else 0.5)

    u0 = np.linspace(-1.0, 1.0, 6)
    kept = u0.tobytes()
    run = IntegrationRun(builtin_tableau(scheme), build(F), dt=dt, t_end=10 * dt, u0=u0)
    with np.errstate(invalid="ignore"), pytest.raises(IntegrationDiverged) as err:
        integrate(run)
    assert (err.value.step, err.value.t) == (4, 3 * dt)
    assert f"step 4, t={3 * dt:.6g}" in str(err.value)
    assert u0.tobytes() == kept


def test_a_scheme_with_zero_weights_keeps_the_state(each_kernel):
    # no stage is evaluated: a step is the finiteness check alone
    calls = []
    zero = PRKTableau.from_coeffs(A=[[[0, 0], [0, 0]]], b=[[0, 0]])
    parts = TrivialParts(lambda t, v: calls.append(t) or v)
    u0 = np.array([1.0, -0.0, 3.0])
    assert integrate(IntegrationRun(zero, parts, 0.5, 2.0, u0)).u.tobytes() == u0.tobytes()
    assert calls == []


def test_sh2_evaluation_counts():
    # five stages, but only two part-1 and four part-2 evaluations
    counts = [0, 0]
    parts = CellSplitParts(lambda t, v: np.zeros_like(v),
                           CellPartition.two_region(np.arange(4) >= 2))
    evaluation = parts.evaluation

    def recording(out, needed):
        for k in range(2):
            counts[k] += needed[k]
        return evaluation(out, needed)

    parts.evaluation = recording
    prk_step(builtin_tableau("SH2"), parts, 0.0, 0.1, np.ones(4))
    assert counts == [2, 4]


def test_stage_times_use_shared_abscissae():
    seen = []

    def F(t, v):
        seen.append(t)
        return np.zeros_like(v)

    parts = CellSplitParts(F, CellPartition.two_region(np.arange(3) >= 1))
    prk_step(builtin_tableau("CS2"), parts, 2.0, 0.5, np.ones(3))
    assert seen == [2.0, 2.25, 2.25, 2.5]


def test_part_count_mismatch():
    with pytest.raises(ValueError, match="parts"):
        prk_step(builtin_tableau("OS1"), TrivialParts(lambda t, v: v), 0.0, 0.1, np.ones(2))


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_divergence_reports_step_index():
    # explicit Euler on a stiff decay blows up at CFL 40 within few steps
    F = lambda t, v: -400.0 * v
    run = IntegrationRun(builtin_tableau("FE1"), TrivialParts(F), dt=0.1,
                         t_end=10.0, u0=np.ones(3) * 1e300)
    with pytest.raises(IntegrationDiverged) as err:
        integrate(run)
    assert err.value.step >= 1


def test_run_validates_step_count():
    run = IntegrationRun(builtin_tableau("FE1"), TrivialParts(lambda t, v: v), dt=0.3,
                         t_end=1.0, u0=np.ones(1))
    with pytest.raises(ValueError):
        integrate(run)


@pytest.mark.parametrize("field, overrides", [
    ("u0", dict(u0=None)),
    ("u0", dict(u0=np.array([1.0, np.nan]))),
    ("dt", dict(dt=float("nan"))),
    ("t_end", dict(t_end=float("nan"))),
    ("dt", dict(dt=-0.1, t_end=-1.0)),
    ("t_end", dict(t_end=-1.0)),
])
def test_run_rejects_bad_input_naming_the_field(field, overrides):
    calls = []

    def counting(t, v):
        calls.append(t)
        return -v

    run = dict(tableau=builtin_tableau("FE1"), parts=TrivialParts(counting), dt=0.1,
               t_end=1.0, u0=np.ones(2))
    run.update(overrides)
    with pytest.raises(ValueError, match=rf"IntegrationRun\.{field}\b"):
        integrate(IntegrationRun(**run))
    assert calls == []


class _UnhashableTableau(PRKTableau):
    def __hash__(self):
        raise AssertionError("the stepper hashed the tableau")


def test_step_plan_is_built_once_per_tableau_without_hashing():
    tw2 = builtin_tableau("TW2")
    tab = _UnhashableTableau(A=tw2.A, b=tw2.b, name="TW2")
    assert "plan" not in vars(tab)
    prob = advection1d_weno5(20)
    parts = CellSplitParts(prob.rhs, CellPartition.two_region(prob.grid.x > 0.5))
    res = integrate(IntegrationRun(tab, parts, dt=0.025, t_end=0.25, u0=prob.initial))
    plan = vars(tab)["plan"]
    want = integrate(IntegrationRun(tw2, parts, dt=0.025, t_end=0.25, u0=prob.initial))
    assert np.array_equal(res.u, want.u)
    prk_step(tab, parts, 0.0, 0.025, prob.initial)
    assert vars(tab)["plan"] is plan
    # the plan is not a field: equality and hash are those of the coefficients
    plain = PRKTableau(A=tw2.A, b=tw2.b, name="TW2")
    prk_step(plain, parts, 0.0, 0.025, prob.initial)
    assert "plan" in vars(plain)
    assert plain == tw2 and hash(plain) == hash(tw2)


def test_integrate_traces_mass():
    m = 20
    prob = advection1d_weno5(m)
    run = IntegrationRun(
        builtin_tableau("ETR2"), TrivialParts(prob.rhs), dt=0.5 / m,
        t_end=10 * 0.5 / m, u0=prob.initial, mass_weights=prob.grid.dx,
    )
    res = integrate(run)
    assert res.n_steps == 10
    assert len(res.mass_trace) == 11


def test_reference_matches_matrix_exponential():
    from scipy.linalg import expm

    rng = np.random.default_rng(9)
    m = 12
    L = rng.standard_normal((m, m)) * 0.8
    u0 = rng.standard_normal(m)

    class P:
        rhs = staticmethod(lambda t, v: L @ v)
        initial = u0
        exact = None
        max_speed = 1.0

        grid = upwind1d(dx=[1.0, 1.0]).grid

    u = reference_integrate(P, 1.5, tol=1e-11)
    assert np.abs(u - expm(1.5 * L) @ u0).max() < 1e-9


def test_reference_raises_when_not_converging():
    class P:
        # the sign of sin(1e6 t), aliased differently by every step size
        rhs = staticmethod(lambda t, v: v if math.sin(1e6 * t) > 0 else -v)
        initial = np.ones(2)
        exact = None
        # a first round of one step keeps all fourteen halving rounds short
        max_speed = 1e-9

        grid = upwind1d(dx=[1.0, 1.0]).grid

    with pytest.raises(RuntimeError):
        reference_integrate(P, 1.0, tol=1e-14)
