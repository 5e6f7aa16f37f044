"""Partition validity, split correctness, conservation and spec parsing."""

import functools
import gc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from prk.decomposition import (
    CellPartition,
    DynamicCellSplit,
    FluxPartition,
    FluxPartition2D,
    burgers_dynamic_partition,
    CellSplitParts,
    FluxSplitParts,
    FluxSplit2DParts,
    PartitionSpec,
    mass,
    TrivialParts,
)
from prk.harness import PROBLEMS, make_parts, parse_partition
from prk.spatial import advection1d_weno5, advection2d, burgers_llf, upwind1d
from prk.stepper import IntegrationRun, integrate
from prk.tableau import builtin_tableau, is_conservative
from test_weno import _textbook_divergence


def _two_region(m, lo, hi):
    refined = np.zeros(m, dtype=bool)
    refined[lo:hi] = True
    return CellPartition.two_region(refined)


def _part_values(parts, t, v, needed):
    """``eval_parts`` into rows of NaN; a needed row must be overwritten
    whole, and the others are left as they were."""
    out = np.full((parts.r,) + np.shape(v), np.nan)
    parts.eval_parts(t, v, tuple(needed), out)
    return out


# ----------------------------------------------------------------------
# partitions
# ----------------------------------------------------------------------

def test_masks_must_partition():
    a = np.array([True, False, True])
    with pytest.raises(ValueError):
        CellPartition((a, a))  # overlap
    with pytest.raises(ValueError):
        CellPartition((a, np.array([False, False, False])))  # hole


def test_predicate_spec_closed_bounds():
    # the bounds are exactly the centres of cells 2 and 5
    g = advection1d_weno5(8).grid
    assert (g.x[2], g.x[5]) == (0.3125, 0.6875)
    p = PartitionSpec.parse("(x>=0.3125)&(x<=0.6875)").cells(g)
    assert list(np.where(p.masks[1])[0]) == [2, 3, 4, 5]


def test_flux_partition_right_cell_rule():
    m = 6
    cells = _two_region(m, 3, 6)
    fp = FluxPartition.from_cells(cells, upwind1d(m=m, boundary="inflow").grid)
    # interface i belongs to the region of cell i; the last one falls back
    # to the final cell
    assert list(fp.masks[0]) == [True, True, True, False, False, False, False]
    fp2 = FluxPartition.from_cells(cells, upwind1d(m=m, boundary="periodic").grid)
    assert fp2.masks[0][6] == fp2.masks[0][0]


def test_flux_partition_rejects_bad_lengths():
    with pytest.raises(ValueError):
        FluxPartition((np.ones(5, bool),), grid=upwind1d(dx=np.ones(5)).grid)


# ----------------------------------------------------------------------
# cell split
# ----------------------------------------------------------------------

def test_cell_split_identity_partition():
    rng = np.random.default_rng(0)
    F = lambda t, v: np.sin(v) + t
    parts = CellSplitParts(F, CellPartition((np.ones(9, dtype=bool),)))
    v = rng.standard_normal(9)
    assert np.array_equal(_part_values(parts, 0.3, v, [True])[0], F(0.3, v))


def test_cell_split_partition_of_unity_exact():
    rng = np.random.default_rng(1)
    m = 50
    p = advection1d_weno5(m)
    parts = CellSplitParts(p.rhs, _two_region(m, 10, 30))
    for _ in range(5):
        v = rng.standard_normal(m)
        full = p.rhs(0.0, v)
        split = _part_values(parts, 0.0, v, [True, True])
        assert np.array_equal(split[0] + split[1], full)  # masking only


def test_cell_split_row_structure_on_upwind():
    m = 8
    prob = upwind1d(m=m, boundary="inflow")
    part = _two_region(m, 4, 8)
    parts = CellSplitParts(prob.rhs, part)
    rng = np.random.default_rng(2)
    v = rng.standard_normal(m)
    f1 = _part_values(parts, 0.0, v, [True, True])[0]
    assert np.all(f1[part.masks[1]] == 0.0)
    assert np.allclose(f1[part.masks[0]], prob.rhs(0.0, v)[part.masks[0]])


def test_cell_split_dimension_mismatch():
    parts = CellSplitParts(lambda t, v: v, CellPartition((np.ones(4, dtype=bool),)))
    with pytest.raises(ValueError):
        parts.eval_parts(0.0, np.zeros(5), [True], np.empty((1, 5)))


# ----------------------------------------------------------------------
# flux split
# ----------------------------------------------------------------------

def test_flux_split_single_region_is_identity():
    m = 30
    p = advection1d_weno5(m)
    fp = FluxPartition.from_cells(CellPartition((np.ones(m, dtype=bool),)), p.grid)
    parts = FluxSplitParts(p.flux, fp)
    rng = np.random.default_rng(3)
    v = rng.random(m)
    assert np.allclose(_part_values(parts, 0.0, v, [True])[0], p.rhs(0.0, v), atol=1e-15)


def test_flux_split_interface_formulas_upwind():
    # two regions split after cell i: the interface cell keeps its left
    # flux in region 1 and hands its right flux to region 2
    m = 10
    prob = upwind1d(m=m, boundary="inflow")
    i = 4
    cells = _two_region(m, i + 1, m)
    fp = FluxPartition.from_cells(cells, prob.grid)
    parts = FluxSplitParts(prob.flux, fp)
    rng = np.random.default_rng(4)
    v = rng.random(m)
    f1, f2 = _part_values(parts, 0.0, v, [True, True])
    dx = prob.grid.dx
    assert np.isclose(f1[i], v[i - 1] / dx[i])
    assert np.isclose(f2[i], -v[i] / dx[i])
    for j in range(m):
        want = (v[j - 1] if j else 0.0) - v[j]
        if j < i:
            assert np.isclose(f1[j], want / dx[j]) and f2[j] == 0.0
        elif j > i:
            assert f1[j] == 0.0 and np.isclose(f2[j], want / dx[j])


def test_flux_split_partition_of_unity():
    rng = np.random.default_rng(5)
    m = 64
    p = advection1d_weno5(m)
    fp = FluxPartition.from_cells(_two_region(m, 16, 48), p.grid)
    parts = FluxSplitParts(p.flux, fp)
    v = rng.random(m) + 0.5
    full = p.rhs(0.0, v)
    f1, f2 = _part_values(parts, 0.0, v, [True, True])
    scale = np.abs(full).max()
    assert np.abs(f1 + f2 - full).max() <= 1e-13 * max(scale, 1.0)


def test_flux_split_regions_conserve_mass_periodic():
    rng = np.random.default_rng(6)
    m = 40
    p = advection1d_weno5(m)
    fp = FluxPartition.from_cells(_two_region(m, 5, 25), p.grid)
    parts = FluxSplitParts(p.flux, fp)
    v = rng.random(m)
    for fk in _part_values(parts, 0.0, v, [True, True]):
        assert abs(np.sum(p.grid.dx * fk)) < 1e-15


def test_flux_split_telescopes_to_boundary_fluxes():
    # constant widths: h^T F_k collapses to the fluxes at the region's own
    # outermost member interfaces (interior ones cancel pairwise)
    m = 12
    prob = upwind1d(m=m, boundary="inflow")
    i = 5
    fp = FluxPartition.from_cells(_two_region(m, i + 1, m), prob.grid)
    parts = FluxSplitParts(prob.flux, fp)
    rng = np.random.default_rng(7)
    v = rng.random(m)
    phi = prob.flux(0.0, v)
    f1, f2 = _part_values(parts, 0.0, v, [True, True])
    # region 1 owns interfaces 0..i, region 2 owns i+1..m
    assert np.isclose(np.sum(prob.grid.dx * f1), phi[0])
    assert np.isclose(np.sum(prob.grid.dx * f2), -phi[m])


@settings(max_examples=80, deadline=None)
@given(by_faces=st.booleans(), m=st.integers(6, 24), nu=st.floats(0.1, 1.0),
       n_steps=st.integers(1, 8), data=st.data())
def test_mass_is_kept_on_random_partitions(by_faces, m, nu, n_steps, data):
    # on a periodic grid every flux part telescopes to zero by itself, so
    # a flux split keeps h^T u under any scheme; a cell split keeps it
    # when all parts share one weight vector (is_conservative)
    p = advection1d_weno5(m)
    if by_faces:
        scheme = data.draw(st.sampled_from(["OS1", "TW1", "TW2", "CS2", "SH2"]))
        faces = data.draw(arrays(bool, m + 1))
        faces[-1] = faces[0]  # the periodic wrap is one interface
        parts = FluxSplitParts(p.flux, FluxPartition((~faces, faces), p.grid))
    else:
        scheme = data.draw(st.sampled_from(["CS2", "OS1"]))
        refined = data.draw(arrays(bool, m))
        parts = CellSplitParts(p.rhs, CellPartition.two_region(refined))
    tab = builtin_tableau(scheme)
    assert by_faces or is_conservative(tab)
    u0 = 0.5 + data.draw(arrays(float, m, elements=st.floats(0.0, 1.0), fill=st.nothing()))
    dt = nu / m
    res = integrate(IntegrationRun(tab, parts, dt=dt, t_end=n_steps * dt, u0=u0,
                                   mass_weights=p.grid.measure))
    trace = np.array(res.mass_trace)
    assert np.abs(trace - trace[0]).max() <= 1e-12 * abs(trace[0])


# ----------------------------------------------------------------------
# dynamic partition
# ----------------------------------------------------------------------

def test_burgers_dynamic_partition_rule():
    u = np.zeros(6)
    p = burgers_dynamic_partition(u, 0.125)
    assert np.all(p.masks[0])
    u2 = np.array([0.0, 0.2, 1.0, 0.125, 0.1249, 0.0])
    p2 = burgers_dynamic_partition(u2, 0.125)
    assert list(p2.masks[0]) == [True, False, False, False, True, True]
    # the threshold itself is excluded by the strict inequality
    assert not p2.masks[0][3]


def test_dynamic_split_rebuilds_once_per_step():
    calls = []

    def rule(u):
        calls.append(u.copy())
        return burgers_dynamic_partition(u, 0.5)

    ds = DynamicCellSplit(lambda t, v: -v, rule)
    integrate(IntegrationRun(builtin_tableau("TW2"), ds, dt=0.25, t_end=1.0,
                             u0=np.array([1.0, 0.2])))
    assert len(calls) == 4  # one rebuild per step, none per stage


def test_dynamic_split_needs_begin_step_before_eval_parts():
    ds = DynamicCellSplit(lambda t, v: -v, burgers_dynamic_partition)
    out = np.full((2, 3), np.nan)
    with pytest.raises(ValueError, match="called before begin_step"):
        ds.eval_parts(0.0, np.zeros(3), (True, True), out)
    assert np.isnan(out).all()


def test_dynamic_split_rejects_masks_of_the_wrong_shape():
    ds = DynamicCellSplit(lambda t, v: -v, lambda u: burgers_dynamic_partition(u[:-1]))
    with pytest.raises(ValueError, match=r"shape \(2,\) for a state of shape \(3,\)"):
        ds.begin_step(np.zeros(3))


# ----------------------------------------------------------------------
# mass and parsing
# ----------------------------------------------------------------------

def test_mass_examples():
    m = 10
    assert np.isclose(mass(np.full(m, 1.0 / m), np.ones(m)), 1.0)
    assert mass(0.0, np.ones(m)) == 0.0
    x = (np.arange(m) + 0.5) / m
    block = (x < 0.5).astype(float)
    assert np.isclose(mass(np.full(m, 1.0 / m), block), 0.5)


def test_mass_shape_mismatch():
    with pytest.raises(ValueError):
        mass(np.ones(3), np.ones(4))


def test_parse_ranges_selects_refined():
    g = advection1d_weno5(16).grid
    p = PartitionSpec.parse("ranges:4-7,12-13").cells(g)
    assert list(np.where(p.masks[1])[0]) == [4, 5, 6, 7, 12, 13]


def test_parse_predicate_1d_and_coarse_prefix():
    g = advection1d_weno5(16).grid
    p = PartitionSpec.parse("(x>=0.25)&(x<0.5)").cells(g)
    q = PartitionSpec.parse("coarse:(x>=0.25)&(x<0.5)").cells(g)
    assert np.array_equal(p.masks[1], q.masks[0])


def test_parse_predicate_2d():
    g = advection2d(10).grid
    p = PartitionSpec.parse("coarse:abs(x-0.5)+abs(y-0.5)<=1/3").cells(g)
    assert p.masks[0].shape == (10, 10)
    assert p.masks[0][5, 5]  # center is coarse
    assert not p.masks[0][0, 0]  # corner is refined


def test_parse_predicate_grammar():
    g = advection1d_weno5(16).grid
    x = g.x
    got = PartitionSpec.parse("~(min(x, 1-x) < 0.2) | (-x*2 > -0.5/1)").cells(g)
    want = ~(np.minimum(x, 1 - x) < 0.2) | (-x * 2 > -0.5)
    assert np.array_equal(got.masks[1], want)


def test_parse_dynamic_spec():
    g = advection1d_weno5(8).grid
    spec = PartitionSpec.parse("dynamic:burgers:threshold=0.25")
    p = spec.rule(np.array([0.0, 0.3, 0.2, 0.26, 0.1, 0.0, 0.0, 0.0]))
    assert list(np.where(p.masks[1])[0]) == [1, 3]
    with pytest.raises(ValueError, match="dynamic"):
        spec.cells(g)


def test_parse_errors():
    g = advection1d_weno5(8).grid
    with pytest.raises(ValueError):
        PartitionSpec.parse("dynamic:shock")
    with pytest.raises(ValueError):
        PartitionSpec.parse("ranges:5-99").cells(g)
    with pytest.raises(ValueError):
        PartitionSpec.parse("import os")


@pytest.mark.parametrize("text, node, column", [
    ("x.__class__", "Attribute", 1),
    ("(x).__class__.__mro__", "Attribute", 1),
    ("x.sum()>0", "Call", 1),
    ("x[0] > 0.5", "Subscript", 1),
    ("(lambda: x)() > 0", "Call", 1),
    ("abs(lambda: x) > 0", "Lambda", 5),
    ("x > __import__('os')", "Call", 5),
    ("z < 0.5", "Name", 1),
    ("x < True", "Constant", 5),
    ("x ** 2 < 0.5", "BinOp", 1),
    ("x < 0.5 and x > 0.1", "BoolOp", 1),
    ("abs(x, 2) < 0.5", "Call", 1),
    ("min(x, x, x) < 0.5", "Call", 1),
    ("0.25 <= x < 0.5", "Compare", 1),
])
def test_predicates_outside_the_grammar_are_rejected(text, node, column):
    with pytest.raises(ValueError, match=rf"{node} at column {column} is not allowed"):
        PartitionSpec.parse(text)


@pytest.mark.parametrize("text, message", [
    ("bogus(", "never closed"),
    ("0.5", r"shape \(\)"),
    ("y < 0.5", "on a 1D grid"),
    ("~x < 1", "cannot evaluate"),
    ("x < 1/0", "cannot evaluate"),
    pytest.param("x*" * 2000 + "x<1", "nested deeper than 100 levels", id="deep-product"),
    pytest.param("-" * 3000 + "x<1", "nested deeper than 100 levels", id="deep-minus"),
    pytest.param("-" * 101 + "x<1", "nested deeper than 100 levels", id="minus-101"),
    ("dynamic:burgers:threshold=nan", "threshold=nan must be finite"),
    ("dynamic:burgers:threshold=-inf", "threshold=-inf must be finite"),
    ("dynamic:burgers:threshold=abc", "dynamic option threshold='abc' is not a number"),
    ("dynamic:burgers:threshold", "dynamic option threshold='' is not a number"),
    ("ranges:5-2", "index range '5-2' in 'ranges:5-2' is reversed"),
    ("coarse:", r"predicate '': .* at column 1$"),
])
def test_predicates_that_cannot_give_a_mask_are_rejected(text, message):
    with pytest.raises(ValueError, match=message):
        PartitionSpec.parse(text).cells(advection1d_weno5(8).grid)


_SPEC_TOKENS = ["x", "y", "0.5", "1", "3", "1e400", " ", "+", "-", "*", "/", "<", "<=",
                ">=", "==", "&", "|", "~", "(", ")", "abs(", "min(", "max(", ",", "**",
                "coarse:", "refined:", "ranges:", "2-5", "dynamic:burgers",
                ":threshold=", "nan", "0.125", "x.y", "'s'", "[0]", "lambda:"]
spec_texts = st.one_of(st.text(max_size=30),
                       st.lists(st.sampled_from(_SPEC_TOKENS), max_size=16).map("".join))


@settings(deadline=None, max_examples=300)
@given(spec_texts)
@example("x/x").via("0/0 at x = 0")
@example("y*1e400<1").via("0 * inf at y = 0")
def test_any_partition_text_gives_valid_masks_or_a_value_error(text):
    grid1, grid2 = advection1d_weno5(8).grid, advection2d(6).grid
    u = burgers_llf(8).initial
    try:
        spec = PartitionSpec.parse(text)
    except ValueError:
        return
    if spec.rule is not None:
        parts = [spec.rule(u)]
    else:
        parts = []
        for make, grid in ((spec.cells, grid1), (spec.cells, grid2), (spec.faces, grid2)):
            try:
                parts.append(make(grid))
            except ValueError:
                pass
    for part in parts:  # the constructors check that the masks cover disjointly
        assert isinstance(part, (CellPartition, FluxPartition2D)) and part.r == 2


def test_ranges_and_2d_faces_need_their_grids():
    g2 = advection2d(8).grid
    with pytest.raises(ValueError, match="1D grid"):
        PartitionSpec.parse("ranges:2-4").cells(g2)
    with pytest.raises(ValueError, match="needs a predicate"):
        PartitionSpec.parse("ranges:2-4").faces(g2)


@pytest.mark.parametrize("m", [50, 100, 200, 400, 800])
def test_standard_specs_reproduce_the_literal_partitions(m):
    g = advection1d_weno5(m).grid
    refined = ((g.x >= 0.125) & (g.x <= 0.375)) | ((g.x >= 0.625) & (g.x <= 0.875))
    got = PartitionSpec.parse(PROBLEMS["adv1d"].partition).cells(g)
    assert np.array_equal(got.masks[0], ~refined) and np.array_equal(got.masks[1], refined)

    grid = advection2d(m // 5).grid
    spec = PartitionSpec.parse(PROBLEMS["adv2d"].partition)
    X, Y = np.meshgrid(grid.x, grid.y)
    coarse = np.abs(X - 0.5) + np.abs(Y - 0.5) <= 1.0 / 3.0
    cells = spec.cells(grid)
    assert np.array_equal(cells.masks[0], coarse) and np.array_equal(cells.masks[1], ~coarse)
    want_faces = FluxPartition2D.from_coarse_predicate(
        grid, lambda x, y: np.abs(x - 0.5) + np.abs(y - 0.5) <= 1.0 / 3.0)
    faces = spec.faces(grid)
    for got_masks, want_masks in ((faces.xmasks, want_faces.xmasks),
                                  (faces.ymasks, want_faces.ymasks)):
        assert all(np.array_equal(a, b) for a, b in zip(got_masks, want_masks))

    u = burgers_llf(m).initial
    rule = PartitionSpec.parse(PROBLEMS["burgers"].partition).rule
    assert all(np.array_equal(a, b) for a, b in
               zip(rule(u).masks, burgers_dynamic_partition(u, 0.125).masks))


def test_trivial_parts():
    tp = TrivialParts(lambda t, v: 2 * v)
    assert tp.r == 1
    assert np.array_equal(_part_values(tp, 0.0, np.ones(3), [True])[0], 2 * np.ones(3))


def test_flux_partition_2d_face_midpoint_rule():
    prob = advection2d(12)
    fp = FluxPartition2D.from_coarse_predicate(
        prob.grid, lambda x, y: np.abs(x - 0.5) + np.abs(y - 0.5) <= 1.0 / 3.0
    )
    assert fp.xmasks[0].shape == (12, 13)
    assert fp.ymasks[0].shape == (13, 12)
    # the exact domain center lies on an x-face midpoint for even n
    assert fp.xmasks[0][6, 6] or fp.xmasks[0][5, 6]


def test_flux_partition_2d_rejects_mismatched_regions_and_shapes():
    grid = advection2d(8).grid
    fp = FluxPartition2D.from_coarse_predicate(grid, lambda x, y: x <= 0.5)
    with pytest.raises(ValueError, match="2 x-face regions but 1 y-face regions"):
        FluxPartition2D(fp.xmasks, (np.ones((9, 8), bool),), grid)
    with pytest.raises(ValueError, match="face masks must have shapes"):
        FluxPartition2D(fp.ymasks, fp.xmasks, grid)  # x and y swapped
    with pytest.raises(ValueError, match="face masks must have shapes"):
        FluxPartition2D(fp.xmasks, fp.ymasks, advection2d(9).grid)  # masks of n = 8


def test_flux_split_2d_partition_of_unity():
    prob = advection2d(16)
    fp = FluxPartition2D.from_coarse_predicate(
        prob.grid, lambda x, y: np.abs(x - 0.5) + np.abs(y - 0.5) <= 1.0 / 3.0
    )
    parts = FluxSplit2DParts(prob.flux, fp)
    full = prob.rhs(0.0, prob.initial)
    f1, f2 = _part_values(parts, 0.0, prob.initial, [True, True])
    scale = np.abs(full).max()
    assert np.abs(f1 + f2 - full).max() <= 1e-13 * max(scale, 1.0)


def _splits():
    """One split of each kind, with a state for it and its full right-hand
    side ``F``, as ``(split, v, masked)``, where ``masked(k)`` is part k
    written as a fresh masked array."""
    m, rng = 24, np.random.default_rng(11)
    p1, p2 = advection1d_weno5(m), advection2d(12)
    cells = _two_region(m, 5, 17)
    v1, v2 = rng.standard_normal(m) - 0.5, p2.initial
    fp = FluxPartition.from_cells(cells, p1.grid)
    fp2 = FluxPartition2D.from_coarse_predicate(p2.grid, lambda x, y: x + y <= 0.8)
    cell = lambda k: np.where(cells.masks[k], p1.rhs(0.0, v1), 0.0)
    flux = lambda k: _textbook_divergence(np.where(fp.masks[k], p1.flux(0.0, v1), 0.0),
                                          p1.grid.dx, (m,))
    fx, fy = p2.flux(0.0, v2)
    flux2d = lambda k: _textbook_divergence(
        np.concatenate([np.where(fp2.xmasks[k], fx, 0.0).ravel(),
                        np.where(fp2.ymasks[k], fy, 0.0).ravel()]),
        np.full(24, p2.grid.h), (12, 12))
    low = v1 < 0.125
    dynamic = lambda k: np.where((low, ~low)[k], p1.rhs(0.0, v1), 0.0)
    return {
        "cell": (CellSplitParts(p1.rhs, cells), v1, cell),
        "flux": (FluxSplitParts(p1.flux, fp), v1, flux),
        "flux2d": (FluxSplit2DParts(p2.flux, fp2), v2, flux2d),
        "dynamic": (DynamicCellSplit(p1.rhs, burgers_dynamic_partition), v1, dynamic),
        "trivial": (TrivialParts(p1.rhs), v1, lambda k: p1.rhs(0.0, v1)),
    }


@pytest.mark.parametrize("kind", ["cell", "flux", "flux2d", "dynamic", "trivial"])
def test_a_split_writes_each_needed_row_whole_and_no_other(kind):
    # the rows start as NaN: a needed row must come out as the masked
    # evaluation, byte for byte (+0 outside its region), the others as NaN
    split, v, masked = _splits()[kind]
    if kind == "dynamic":
        split.begin_step(v)
    cases = ([True, False], [False, True], [True, True]) if split.r == 2 else ([True],)
    for needed in cases:
        got = _part_values(split, 0.0, v, needed)
        for k, use in enumerate(needed):
            want = masked(k) if use else np.full(np.shape(v), np.nan)
            assert got[k].tobytes() == want.tobytes(), (k, needed)


def _fresh_split(kind, calls=None):
    """A problem and a new split of ``kind`` on it, as the package builds
    them, or over ``rhs`` for "rhs".  With a list ``calls``, the problem's
    flux is first wrapped, as perfbench's count mode wraps it, to append
    the time of every call."""
    name = {"flux2d": "adv2d", "dynamic": "burgers"}.get(kind, "adv1d")
    m = 12 if name == "adv2d" else 32
    prob = PROBLEMS[name].build(m)
    if calls is not None:
        flux = prob.flux

        @functools.wraps(flux)
        def counted(t, *args, **kwargs):
            calls.append(t)
            return flux(t, *args, **kwargs)
        prob.flux = counted
    if kind == "trivial":
        return prob, TrivialParts(prob.flux, prob.grid)
    if kind == "rhs":
        return prob, CellSplitParts(prob.rhs, _two_region(m, 5, 17))
    split = "cell" if kind in ("cell", "dynamic") else "flux"
    return prob, make_parts(prob, split, parse_partition(PROBLEMS[name].partition, split, name))


@pytest.mark.parametrize("kind", ["cell", "flux", "flux2d", "dynamic", "trivial", "rhs"])
def test_a_split_reused_for_a_second_run_keeps_no_store_of_the_first(kind):
    # each run binds its split's ops to the rows of its own stage store, and
    # eval_parts binds its calls to the rows of one store at a time; the
    # second run's store and the second store given to eval_parts replace
    # the first ones, which are then freed, and both runs give the states
    # of fresh splits byte for byte
    prob, split = _fresh_split(kind)
    stores, evaluation = [], split.evaluation

    def recording(out, needed):
        if not stores or stores[-1]() is not out.base:
            stores.append(weakref.ref(out.base))
        return evaluation(out, needed)

    split.evaluation = recording
    dt = 0.25 * prob.grid.min_width

    def state(scheme, parts):
        run = IntegrationRun(builtin_tableau(scheme), parts, dt, 4 * dt, prob.initial)
        return integrate(run).u.tobytes()

    schemes = ("ETR2", "FE1") if split.r == 1 else ("TW2", "CS2")
    got = [state(scheme, split) for scheme in schemes]
    for _ in range(2):
        out = np.empty((2, split.r) + prob.initial.shape)
        stores.append(weakref.ref(out))
        split.eval_parts(0.0, prob.initial, (True,) * split.r, out[1])
    del out
    gc.collect()
    assert len(stores) == 4 and stores[0]() is None and stores[2]() is None
    assert got == [state(scheme, _fresh_split(kind)[1]) for scheme in schemes]
