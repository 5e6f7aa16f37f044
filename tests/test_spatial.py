"""Semi-discrete problem builders: stencils, matrices, convergence, norms."""

import types

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from prk.spatial import (
    advection1d_weno5,
    advection2d,
    burgers_llf,
    norms,
    parts_op,
    upwind1d,
)
from prk import weno
from prk.weno import ops_call
from prk.harness import PROBLEMS, make_parts, parse_partition, run_case
from prk.stepper import IntegrationDiverged, reference_integrate
from test_analysis import _bidiagonal
from test_weno import (  # noqa: F401
    _oracle_left, _oracle_right, _textbook_divergence, each_kernel, lines, wide_lines,
)


# ----------------------------------------------------------------------
# upwind
# ----------------------------------------------------------------------

def test_upwind_constant_periodic_is_stationary():
    p = upwind1d(m=16, boundary="periodic")
    assert np.abs(p.rhs(0.0, np.full(16, 2.5))).max() == 0.0


def test_upwind_inflow_stencil_values():
    p = upwind1d(m=3, dx=1.0, boundary="inflow")
    out = p.rhs(0.0, np.array([1.0, 1.0, 1.0]))
    assert np.allclose(out, [-1.0, 0.0, 0.0])


def test_upwind_matrix_rows():
    m = 5
    p = upwind1d(m=m, boundary="inflow")
    L = _bidiagonal(p.grid.dx, periodic=False)
    dx = p.grid.dx
    for j in range(m):
        row = np.zeros(m)
        row[j] = -1.0 / dx[j]
        if j > 0:
            row[j - 1] = 1.0 / dx[j]
        assert np.allclose(L[j], row)
        assert np.allclose(p.rhs(0.0, np.eye(m)[j]), L[:, j])


@pytest.mark.parametrize("boundary", ["inflow", "periodic"])
def test_upwind_rhs_matches_matrix(boundary):
    rng = np.random.default_rng(3)
    m = 40
    p = upwind1d(m=m, boundary=boundary)
    v = rng.standard_normal(m)
    L = _bidiagonal(p.grid.dx, periodic=boundary == "periodic")
    assert np.abs(p.rhs(0.0, v) - L @ v).max() < 1e-13


@pytest.mark.parametrize("kwargs, match", [
    (dict(m=5, dx=[0.1, 0.2, 0.3]), "disagrees"),
    (dict(dx=[1.0, -1.0, 0.5]), "finite and positive"),
    (dict(dx=[0.5, np.nan, 0.5]), "finite and positive"),
    (dict(dx=[0.5, 0.0, 0.5]), "finite and positive"),
    (dict(dx=[np.inf, 0.5, 0.5]), "finite and positive"),
    (dict(m=0), "at least two cells"),
    (dict(m=-3), "at least two cells"),
])
def test_upwind_rejects_inconsistent_widths(kwargs, match):
    with pytest.raises(ValueError, match=match):
        upwind1d(**kwargs)


def test_upwind_nonuniform_zero_inflow():
    dx = np.array([0.5, 0.25, 0.25, 0.5])
    p = upwind1d(dx=dx, boundary="inflow")
    v = np.array([1.0, 0.0, 0.0, 2.0])
    assert p.flux(0.3, v).tolist() == [0.0, 1.0, 0.0, 0.0, 2.0]
    assert p.rhs(0.3, v).tolist() == [-2.0, 4.0, 0.0, -4.0]


# ----------------------------------------------------------------------
# WENO5 advection
# ----------------------------------------------------------------------

def test_advection_exact_solution_periodicity():
    p = advection1d_weno5(64)
    assert np.abs(p.exact(1.0) - p.exact(0.0)).max() < 1e-14


def test_advection_constant_state_is_stationary():
    p = advection1d_weno5(32)
    assert np.abs(p.rhs(0.0, np.full(32, 0.7))).max() < 1e-14


def test_advection_rhs_convergence_order():
    errs = []
    for m in (40, 80, 160):
        p = advection1d_weno5(m)
        u = p.exact(0.0)
        x = p.grid.x
        ux = 2 * np.pi * np.sin(np.pi * x) * np.cos(np.pi * x)
        errs.append(np.abs(p.rhs(0.0, u) + ux).max())
    slopes = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(slopes) > 4.5, f"WENO5 rhs slopes too low: {slopes}"


def test_advection_semidiscrete_error_is_small():
    # temporal-error-free integration leaves only the spatial error,
    # far below the scheme errors measured at this resolution
    p = advection1d_weno5(100)
    u = reference_integrate(p, 1.0, tol=1e-10)
    assert np.abs(u - p.exact(1.0)).max() < 5e-5


def test_advection_needs_enough_cells():
    with pytest.raises(ValueError):
        advection1d_weno5(4)


def _padded(v):
    return np.concatenate([v[-3:], v, v[:3]])


def _textbook_burgers(v):
    um, up = _oracle_left(_padded(v)), _oracle_right(_padded(v))
    return 0.5 * (0.5 * um**2 + 0.5 * up**2 + np.maximum(np.abs(um), np.abs(up)) * (um - up))


_TEXTBOOK_FLUX = {
    "adv1d": (advection1d_weno5, lambda v: _oracle_left(_padded(v))),
    "burgers": (burgers_llf, _textbook_burgers),
}

# periodic states of 6 to 40 cells (smooth, integer, step or signed-zero
# data at scales 1e-8 to 1e8), or of 6 to 3000 cells mixing special values
# and scales up to 1e+-300
periodic_states = st.one_of(st.integers(6, 40).flatmap(lambda m: lines((m,))),
                            wide_lines(leads=((),)))


def _assert_textbook_flux(problem, v):
    # byte for byte on the oracle's states, so the sign of every zero counts;
    # +-1e300 overflows to inf and NaN, at the same faces with the same bits
    build, textbook = _TEXTBOOK_FLUX[problem]
    with np.errstate(all="ignore"):
        want = textbook(v)
        got = build(v.size).flux(0.0, v)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


_on_each_kernel = settings(deadline=None, max_examples=150,
                           suppress_health_check=[HealthCheck.function_scoped_fixture])


@_on_each_kernel
@given(v=periodic_states)
@example(v=np.array([0.0, -0.0] * 3))
@example(v=np.full(7, -0.0))
def test_advection_flux_bitwise_equal_textbook_formula(each_kernel, v):
    _assert_textbook_flux("adv1d", v)


@pytest.mark.parametrize("problem", sorted(_TEXTBOOK_FLUX))
def test_non_finite_states_give_non_finite_fluxes_at_the_same_faces(each_kernel, problem):
    # a NaN, an inf and a -inf (the last cell, so the faces of both ends);
    # the faces whose stencils miss them keep their textbook bits
    build, textbook = _TEXTBOOK_FLUX[problem]
    v = np.random.default_rng(9).standard_normal(40)
    v[[4, 20, 39]] = np.nan, np.inf, -np.inf
    with np.errstate(all="ignore"):
        want = textbook(v)
        got = build(40).flux(0.0, v)
    finite = np.isfinite(want)
    assert not finite.all()
    assert np.array_equal(np.isfinite(got), finite)
    assert got[finite].tobytes() == want[finite].tobytes()


@pytest.mark.parametrize("problem", sorted(_TEXTBOOK_FLUX))
@pytest.mark.parametrize("v", [np.ones(1), 1.0, np.ones(13), np.ones((12, 1)), np.ones((1, 12)),
                               [1.0] * 12], ids=["one-cell", "scalar", "long", "column", "row",
                                                 "list"])
def test_periodic_flux_rejects_states_of_other_shapes(each_kernel, problem, v):
    with pytest.raises(ValueError, match=r"need \(12,\)$"):
        _TEXTBOOK_FLUX[problem][0](12).flux(0.0, v)


# ----------------------------------------------------------------------
# Burgers
# ----------------------------------------------------------------------

def test_burgers_constant_state():
    p = burgers_llf(24)
    c = 0.9
    assert np.abs(p.flux(0.0, np.full(24, c)) - 0.5 * c * c).max() < 1e-14
    assert np.abs(p.rhs(0.0, np.full(24, c))).max() < 1e-14


def test_burgers_llf_flux_at_clean_jump():
    # at a jump between flat plateaus the smooth-side candidates dominate
    # up to the epsilon regularization, giving u- = 1, u+ = 0 and the
    # formula value (1/2 + 0 + 1)/2 = 0.75
    m = 16
    p = burgers_llf(m)
    u = np.zeros(m)
    u[: m // 2] = 1.0
    phi = p.flux(0.0, u)
    assert abs(phi[m // 2] - 0.75) < 1e-10


@_on_each_kernel
@given(v=periodic_states)
@example(v=np.array([0.0, -0.0] * 3))
@example(v=np.full(7, -0.0))
# u^2 near the top of the range (the sum of the halves is finite, their
# unhalved sum is not) and in the subnormal range (halving rounds)
@example(v=np.full(6, 1e154))
@example(v=np.linspace(-3e-161, 3e-161, 9))
def test_burgers_llf_flux_bitwise_equal_textbook_formula(each_kernel, v):
    _assert_textbook_flux("burgers", v)


def test_burgers_rhs_telescopes():
    rng = np.random.default_rng(5)
    p = burgers_llf(50)
    v = rng.random(50)
    assert abs(np.sum(p.grid.dx * p.rhs(0.0, v))) < 1e-12


def test_burgers_initial_block():
    p = burgers_llf(10)
    assert list(p.initial) == [1.0] * 5 + [0.0] * 5


# ----------------------------------------------------------------------
# 2D rotation
# ----------------------------------------------------------------------

def test_adv2d_exact_rotates_the_blob():
    p = advection2d(40)
    u = p.exact(1.0 / 3.0)
    iy, ix = np.unravel_index(np.argmax(u), u.shape)
    # blob starts at (1/2, 1/4); clockwise rotation by 2*pi/3 sends it to
    # (1/2 - sqrt(3)/8, 5/8)
    assert abs(p.grid.x[ix] - (0.5 - np.sqrt(3) / 8)) < 0.05
    assert abs(p.grid.y[iy] - 0.625) < 0.05
    # full turn returns the initial profile
    assert np.abs(p.exact(1.0) - p.initial).max() < 1e-14


def test_adv2d_rhs_consistent_with_exact_evolution():
    p = advection2d(50)
    eps = 1e-6
    dudt = (p.exact(eps) - p.exact(-eps)) / (2 * eps)
    assert np.abs(p.rhs(0.0, p.initial) - dudt).max() < 1e-3


def test_adv2d_center_cell_tendency_vanishes_with_h():
    for n in (20, 40):
        p = advection2d(n)
        r = p.rhs(0.0, p.initial)
        ic = np.argmin(np.abs(p.grid.x - 0.5))
        assert abs(r[ic, ic]) <= 12.0 * p.grid.h


def test_adv2d_velocity_zero_at_center():
    # the rotation field vanishes at the fixed point (1/2, 1/2)
    assert 2 * np.pi * (0.5 - 0.5) == 0.0
    p = advection2d(20)
    assert p.max_speed == pytest.approx(2 * np.pi)


@st.composite
def states2d(draw, n):
    """Float states at scales 1e-8 to 1e8, integer-valued states or signed
    zeros among +-1, with random entries replaced by -0.0."""
    kind = draw(st.sampled_from(["float", "integer", "zeros"]))
    if kind == "integer":
        v = draw(arrays(np.int64, (n, n), elements=st.integers(-3, 3),
                          fill=st.nothing())).astype(float)
    elif kind == "zeros":
        # the kernel returns -0 only where the five cells read (-0, +0, -0, -0, +0)
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        v = rng.choice([0.0, -0.0, 1.0, -1.0], size=(n, n), p=[0.4, 0.4, 0.1, 0.1])
    else:
        scale = 10.0 ** draw(st.integers(-8, 8))
        v = scale * draw(arrays(np.float64, (n, n), elements=st.floats(-1.0, 1.0),
                                fill=st.nothing()))
    v[draw(arrays(np.bool_, (n, n)))] = -0.0
    return v


def _textbook_split(a, lines):
    # Lax-Friedrichs splitting of a * u with alpha = |a|, one speed per line
    a = a[:, None]
    fplus = 0.5 * (a * lines + np.abs(a) * lines)
    fminus = 0.5 * (a * lines - np.abs(a) * lines)
    return _oracle_left(fplus) + _oracle_right(fminus)


def _rotated_profile(px, py, t):
    # the exact adv2d solution, with the operations of advection2d's own
    angle = 2.0 * np.pi * t
    cs, sn = np.cos(angle), np.sin(angle)
    xi, eta = px - 0.5, py - 0.5
    x0 = 0.5 + xi * cs - eta * sn
    y0 = 0.5 + eta * cs + xi * sn
    return np.exp(-10.0 * ((x0 - 0.5) ** 2 + (y0 - 0.25) ** 2))


def _signed_state(n, seed):
    # random floats with a tenth of the entries set to +0.0 and a tenth to -0.0
    rng = np.random.default_rng(seed)
    v = rng.uniform(-1.0, 1.0, (n, n))
    zeros = rng.choice(3, size=(n, n), p=[0.8, 0.1, 0.1])
    v[zeros == 1], v[zeros == 2] = 0.0, -0.0
    return v


@settings(max_examples=100, deadline=None)
@given(v=st.integers(6, 15).flatmap(states2d), t=st.floats(0.0, 1.0))
@example(v=_signed_state(49, 1), t=0.3)  # odd n: the middle x-line is mirrored
@example(v=_signed_state(50, 2), t=0.7)  # the benchmark size
@example(v=_signed_state(64, 3), t=0.1)
def test_adv2d_line_fluxes_equal_the_textbook_split(v, t):
    _assert_textbook_split(v, t)


@pytest.mark.parametrize("n, seed, times", [
    (49, 1, (0.3,)),
    (50, 2, (0.7,)),
    (50, 4, (0.7, 0.7, 0.2, 0.2, 0.7, 0.0, 0.0)),
    (12, 5, (0.1, 0.35, 0.35, 0.1)),
], ids=["49-1-0.3", "50-2-0.7", "50-4-repeated", "12-5-repeated"])
def test_adv2d_line_fluxes_keep_the_textbook_bits_on_each_kernel(each_kernel, n, seed, times):
    # the run table reads the frame in place, with steps +-1 and +-n; one
    # problem over repeated and changing times, so the ghost ring is kept
    # while t repeats and computed again when it changes
    p = advection2d(n)
    for t in times:
        _assert_textbook_split(_signed_state(n, seed), t, p)


def _framed(p, v, t):
    """The state ``v`` of ``p`` framed by the exact solution at ``t``,
    three cells a side."""
    n = v.shape[0]
    g = (np.arange(-3, n + 3) + 0.5) * p.grid.h
    w = _rotated_profile(*np.meshgrid(g, g), t)
    w[3:-3, 3:-3] = v
    return w


def _assert_textbook_split(v, t, p=None):
    # byte for byte, so the sign of every zero counts
    p = p or advection2d(v.shape[0])
    w = _framed(p, v, t)
    a1 = 2.0 * np.pi * (p.grid.y - 0.5)
    a2 = -2.0 * np.pi * (p.grid.x - 0.5)
    fx, fy = p.flux(t, v)
    want_x = _textbook_split(a1, w[3:-3, :])
    want_y = _textbook_split(a2, w[:, 3:-3].T).T
    assert fx.shape == want_x.shape and fx.tobytes() == want_x.tobytes()
    assert fy.shape == want_y.shape and fy.tobytes() == want_y.tobytes()


def _textbook_upwind(a, lines):
    # the upwind half of the split alone: a u reconstructed from the side
    # the speed comes from (left where a >= 0, -0 included), then +0
    a = a[:, None]
    return np.where(a >= 0.0, _oracle_left(a * lines), _oracle_right(a * lines)) + 0.0


@pytest.mark.parametrize("n", [12, 13])
def test_adv2d_non_finite_states_keep_the_upwind_bits_on_each_kernel(each_kernel, n):
    # NaN, +-inf and -0 in the state, over repeated and changing times: on
    # states that are not finite the downwind half of the split is no
    # longer +0, so the oracle is the upwind half alone
    p = advection2d(n)
    rng = np.random.default_rng(n)
    for t in (0.2, 0.2, 0.45, 0.2):
        v = _signed_state(n, int(rng.integers(100)))
        v.flat[rng.choice(n * n, 6, replace=False)] = np.nan, np.inf, -np.inf, np.nan, -0.0, np.inf
        w = _framed(p, v, t)
        with np.errstate(all="ignore"):
            fx, fy = p.flux(t, v)
            want_x = _textbook_upwind(2.0 * np.pi * (p.grid.y - 0.5), w[3:-3, :])
            want_y = _textbook_upwind(-2.0 * np.pi * (p.grid.x - 0.5), w[:, 3:-3].T).T
        for got, want in ((fx, want_x), (fy, want_y)):
            # a NaN's sign bit is not an IEEE result, so only its place counts
            nan = np.isnan(want)
            assert nan.any()
            assert np.array_equal(np.isnan(got), nan)
            assert got[~nan].tobytes() == want[~nan].tobytes()


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("kind, scheme, nu, step", [
    ("cell", "TW2", 4.0, 167),
    ("flux", "CS2", 6.0, 61),
])
def test_adv2d_blow_up_step(kind, scheme, nu, step):
    # two unstable Courant numbers at n = 20: the step where the state
    # stops being finite pins the arithmetic of every evaluation before it
    p = advection2d(20)
    parts = make_parts(p, kind, parse_partition(PROBLEMS["adv2d"].partition, kind, "adv2d"))
    dt = nu * p.grid.h / (2.0 * np.pi)
    with pytest.raises(IntegrationDiverged) as err:
        run_case(p, scheme, parts, dt, 2500 * dt)
    assert err.value.step == step


@pytest.mark.parametrize("v", [np.ones(12), 1.0, np.ones((12, 13)), np.ones(144)],
                         ids=["row", "scalar", "wide", "flat"])
def test_adv2d_flux_rejects_states_of_other_shapes(v):
    with pytest.raises(ValueError, match=r"need \(12, 12\)"):
        advection2d(12).flux(0.0, v)


def test_adv2d_ghost_data_follows_the_evaluation_time(each_kernel, monkeypatch):
    # the ghost ring is computed again (one np.cos of the angle) only when
    # t changes, and reused while t repeats exactly; every call must match
    # a fresh problem evaluated at the same time
    angles, cos = [], np.cos
    monkeypatch.setattr(np, "cos", lambda x: angles.append(x) or cos(x))
    p = advection2d(12)
    rng = np.random.default_rng(3)
    v = rng.random((12, 12))
    refills = []
    for t in (0.1, 0.1, 0.25, 0.25, 0.1, 0.0, 0.0):
        fresh = advection2d(12)
        before = len(angles)
        got = p.rhs(t, v)
        fx, fy = p.flux(t, v)
        refills.append(len(angles) - before)
        assert got.tobytes() == fresh.rhs(t, v).tobytes()
        want_x, want_y = fresh.flux(t, v)
        assert fx.tobytes() == want_x.tobytes()
        assert fy.tobytes() == want_y.tobytes()
    assert refills == [1, 0, 1, 0, 1, 1, 0]


_read_only_flux = np.empty(312)
_read_only_flux.flags.writeable = False


@pytest.mark.parametrize("out", [
    np.empty(311), np.empty(313), np.empty(312, dtype=np.float32), np.empty(624)[::2],
    np.empty((12, 26)), _read_only_flux,
], ids=["short", "long", "float32", "strided", "2-d", "read-only"])
def test_adv2d_flux_rejects_an_out_it_cannot_write(monkeypatch, out):
    # the compiled call would write past a wrong buffer: the flux refuses
    # it before it binds or makes any compiled call
    calls = []
    library = types.SimpleNamespace(run_ops=lambda *args: calls.append(args))
    monkeypatch.setattr(weno, "_kernel_library", lambda: library)
    p = advection2d(12)
    with pytest.raises(ValueError, match="^rotation_flux_op needs"):
        p.flux(0.1, np.ones((12, 12)), out)
    assert calls == []


@pytest.mark.parametrize("build", [
    lambda: upwind1d(12),
    lambda: advection1d_weno5(12),
    lambda: burgers_llf(12),
    lambda: advection2d(12),
], ids=["upwind1d", "adv1d", "burgers", "adv2d"])
def test_results_do_not_alias_later_evaluations(build):
    # the stepper keeps every stage's rhs (a trivial split hands it the
    # rhs result as is), so no result may share memory with a buffer that
    # a later call writes
    p = build()
    rng = np.random.default_rng(5)
    v1, v2 = rng.random((2, *p.grid.centres[0].shape))
    flux1 = p.flux(0.1, v1)
    results = (p.rhs(0.1, v1), *(flux1 if isinstance(flux1, tuple) else (flux1,)))
    kept = [r.tobytes() for r in results]
    p.rhs(0.4, v2)
    p.flux(0.7, v2)
    assert [r.tobytes() for r in results] == kept


# ----------------------------------------------------------------------
# norms
# ----------------------------------------------------------------------

def test_norms_examples():
    m = 8
    e1 = np.zeros(m)
    e1[0] = 1.0
    n = norms(e1, 1.0 / m)
    assert n["linf"] == 1.0 and np.isclose(n["l1"], 1.0 / m)
    n0 = norms(np.zeros(m), 1.0 / m)
    assert n0 == {"linf": 0.0, "l1": 0.0}
    n1 = norms(np.ones(m), np.full(m, 1.0 / m))
    assert np.isclose(n1["linf"], 1.0) and np.isclose(n1["l1"], 1.0)


def test_norms_shape_mismatch():
    with pytest.raises(ValueError):
        norms(np.ones(4), np.ones(5))


# ----------------------------------------------------------------------
# grid geometry: every rhs is the grid's conservative difference
# ----------------------------------------------------------------------

def test_grid_geometry_members():
    g1 = upwind1d(dx=[0.5, 0.25, 0.25]).grid
    assert len(g1.centres) == 1 and g1.centres[0] is g1.x
    assert g1.measure is g1.dx and g1.min_width == 0.25
    g2 = advection2d(8).grid
    X, Y = g2.centres
    assert X.shape == Y.shape == (8, 8)
    assert X[3, 5] == g2.x[5] and Y[3, 5] == g2.y[3]
    assert g2.measure == g2.h ** 2 and g2.min_width == g2.h == 1.0 / 8


@pytest.mark.parametrize("build", [
    lambda: upwind1d(dx=np.linspace(0.5, 1.5, 17) / 17),
    lambda: advection1d_weno5(32),
    lambda: burgers_llf(32),
    lambda: advection2d(12),
], ids=["upwind1d", "adv1d", "burgers", "adv2d"])
def test_rhs_is_the_divergence_of_the_flux(build):
    p = build()
    rng = np.random.default_rng(11)
    v = rng.random(p.grid.centres[0].shape)
    t = float(rng.random())
    assert np.array_equal(p.rhs(t, v), _divergence(p.grid, p.flux(t, v)))
    # rhs keeps the flux bound at construction: perfbench/child.py rebinds
    # rhs and flux to separate counting wrappers, and one rhs call must not
    # count as two evaluations
    calls, flux = [], p.flux
    p.flux = lambda t, v: calls.append(t) or flux(t, v)
    p.rhs(t, v)
    assert calls == []


@pytest.mark.parametrize("build", [
    lambda: upwind1d(dx=np.linspace(0.5, 1.5, 17) / 17),
    lambda: advection1d_weno5(32),
    lambda: burgers_llf(32),
    lambda: advection2d(12),
], ids=["upwind1d", "adv1d", "burgers", "adv2d"])
def test_the_flux_writes_into_a_given_buffer_and_the_divergence_is_the_textbook_one(
        each_kernel, build):
    # flux(t, v, out) writes into out, call after call, the values that
    # flux(t, v) returns fresh (x-faces, then y-faces in 2D); rhs, the
    # compiled divergence, has the bits of the numpy difference
    p = build()
    rng = np.random.default_rng(12)
    out = np.full(p.grid.flux_size, np.nan)
    for t in rng.random(2):
        v = rng.random(p.grid.shape)
        fresh = p.flux(t, v)
        p.flux(t, v, out)
        assert out.tobytes() == _flat(fresh).tobytes()
        assert p.rhs(t, v).tobytes() == _divergence(p.grid, fresh).tobytes()


def _flat(fluxes):
    """The fluxes that a flux returns, the x-faces then in 2D the y-faces,
    as one array."""
    return np.concatenate([np.ravel(f) for f in (fluxes if isinstance(fluxes, tuple)
                                                 else (fluxes,))])


def _divergence(grid, fluxes):
    """The textbook numpy divergence of ``fluxes`` (``(fx, fy)`` in 2D)."""
    width = grid.dx if len(grid.shape) == 1 else np.full(2 * grid.n, grid.h)
    return _textbook_divergence(_flat(fluxes), width, grid.shape)


def _compiled_divergence(grid, fluxes):
    """The divergence of ``fluxes`` by the package's one compiled op."""
    out = np.empty((1,) + grid.shape)
    ops_call(parts_op(grid, _flat(fluxes).astype(float), np.zeros(1, dtype=np.intp), out))()
    return out[0]


_fluxes = st.floats(-10.0, 10.0)


@settings(max_examples=50, deadline=None)
@given(widths=arrays(float, st.integers(2, 40), elements=st.floats(0.01, 1.0),
                     fill=st.nothing()),
       data=st.data())
def test_1d_divergence_telescopes_on_a_nonuniform_grid(widths, data):
    grid = upwind1d(dx=widths).grid
    phi = data.draw(arrays(float, grid.m + 1, elements=_fluxes, fill=st.nothing()))
    total = np.sum(grid.measure * _compiled_divergence(grid, phi))
    assert abs(total - (phi[0] - phi[-1])) <= 1e-13 * (1.0 + np.abs(phi).sum())


@settings(max_examples=30, deadline=None)
@given(n=st.integers(6, 16), data=st.data())
def test_2d_divergence_telescopes(n, data):
    grid = advection2d(n).grid
    fx = data.draw(arrays(float, (n, n + 1), elements=_fluxes, fill=st.nothing()))
    fy = data.draw(arrays(float, (n + 1, n), elements=_fluxes, fill=st.nothing()))
    total = np.sum(grid.measure * _compiled_divergence(grid, (fx, fy)))
    balance = grid.h * (np.sum(fx[:, 0] - fx[:, -1]) + np.sum(fy[0, :] - fy[-1, :]))
    scale = 1.0 + np.abs(fx).sum() + np.abs(fy).sum()
    assert abs(total - balance) <= 1e-13 * grid.h * scale
