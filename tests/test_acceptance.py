"""End-to-end acceptance run.

Each test exercises one exit criterion at its stated tolerance and prints
a single verdict line (run with ``pytest -s`` to see them all).  The 2D
rotation figures publish no numeric values; their ordinal behavior is
covered by the harness checks in ``test_harness.py`` and the
``adv2d-cell`` / ``adv2d-flux`` experiments.
"""

import time

import numpy as np
import pytest

from prk.analysis import (
    LinearSplitting,
    build_error_operators,
    linearize_parts,
    predicted_local_error,
    solve_W,
    stability_check,
)
from prk.decomposition import (
    CellPartition,
    FluxPartition,
    CellSplitParts,
    FluxSplitParts,
    PartitionSpec,
)
from prk.harness import EXPERIMENTS
from prk.spatial import advection1d_weno5, upwind1d
from prk.stepper import IntegrationRun, integrate, prk_step
from prk.tableau import builtin_tableau, classical_order, is_conservative, stage_order


def _verdict(num: int, ok: bool, desc: str, detail: str = ""):
    line = f"CRITERION {num:2d} [{'PASS' if ok else 'FAIL'}] {desc}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_scheme_properties():
    t0 = time.perf_counter()
    expected = {
        "OS1": (1, 0, True, False),
        "TW1": (1, 1, False, True),
        "TW2": (2, 1, False, True),
        "CS2": (2, 0, True, False),
        "SH2": (2, 1, False, True),
    }
    mismatches = []
    for name, want in expected.items():
        t = builtin_tableau(name)
        got = (classical_order(t), stage_order(t), is_conservative(t),
               t.internally_consistent)
        if got != want:
            mismatches.append(f"{name}: {got} != {want}")
    elapsed = time.perf_counter() - t0
    _verdict(1, not mismatches and elapsed < 1.0,
             "five builtin schemes report (p, q, conservative, consistent)",
             f"{elapsed:.2f}s" + ("; " + "; ".join(mismatches) if mismatches else ""))


def test_criterion_02_table1_cell_based():
    t0 = time.perf_counter()
    rep = EXPERIMENTS["table1"]()
    elapsed = time.perf_counter() - t0
    _verdict(2, rep.passed and elapsed < 300.0,
             "cell-based convergence table: orders and magnitudes",
             f"{elapsed:.0f}s, {sum(c.ok for c in rep.checks)}/{len(rep.checks)} checks")
    if not rep.passed:
        print(rep.summary())


def test_criterion_03_table2_flux_based():
    t0 = time.perf_counter()
    rep = EXPERIMENTS["table2"]()
    elapsed = time.perf_counter() - t0
    plateau = [r["err_linf"] for r in rep.rows if r["scheme"] == "CS2"]
    plateau_ok = all(0.5 <= e / 3.5e-2 <= 2.0 for e in plateau)
    _verdict(3, rep.passed and plateau_ok and elapsed < 300.0,
             "flux-based convergence table: orders, CS2 plateau, conservation",
             f"{elapsed:.0f}s, CS2 max errors {min(plateau):.2e}..{max(plateau):.2e}")
    if not rep.passed:
        print(rep.summary())


def test_criterion_04_flux_split_interface_identity():
    m = 64
    prob = upwind1d(m=m, boundary="inflow")
    i = 30
    refined = np.zeros(m, dtype=bool)
    refined[i + 1:] = True
    fp = FluxPartition.from_cells(CellPartition.two_region(refined), prob.grid)
    parts = FluxSplitParts(prob.flux, fp)
    rng = np.random.default_rng(123)
    worst = 0.0
    for dt in (0.01, 0.004):
        u0 = rng.random(m) + 0.25
        nu = dt / prob.grid.dx[i]
        u1 = prk_step(builtin_tableau("OS1"), parts, 0.0, dt, u0)
        want = u0[i] + nu * (u0[i - 1] - u0[i]) + 0.25 * nu**2 * u0[i]
        worst = max(worst, abs(u1[i] - want))
    _verdict(4, worst <= 1e-14,
             "two-stage flux-split step reproduces the interface closed form",
             f"max defect {worst:.1e}")


def test_criterion_05_damping_matrix_closed_form():
    # solve_W returns the solution of (r^T e) W = sum_k d_{q+1,k} I_k;
    # for this scheme d_{1,1} = Z/4, so the classical closed form
    # (I + Z2/4)^{-1} I1 equals 4 W (the published form absorbs the 1/4)
    m = 100
    prob = upwind1d(m=m, boundary="inflow")
    refined = np.zeros(m, dtype=bool)
    refined[m // 4: 3 * m // 4] = True
    part = CellPartition.two_region(refined)
    mats = linearize_parts(CellSplitParts(prob.rhs, part), m)
    worst_form, worst_resid, bound_ok = 0.0, 0.0, True
    for nu in (0.2, 0.5, 0.9, 1.5):
        dt = nu / m
        ls = LinearSplitting(tuple(dt * L for L in mats))
        res = solve_W(builtin_tableau("OS1"), ls, part)
        closed = np.linalg.solve(np.eye(m) + 0.25 * ls.Zs[1],
                                 np.diag(part.masks[0].astype(float)))
        worst_form = max(worst_form, np.abs(4.0 * res.W - closed).max())
        r_blocks = build_error_operators(builtin_tableau("OS1"), ls, j_max=1).r_blocks
        resid = (sum(r_blocks[1:], r_blocks[0]) @ res.W
                 - 0.25 * sum(ls.Zs) @ np.diag(part.masks[0].astype(float)))
        worst_resid = max(worst_resid, np.abs(resid).max())
        theta = stability_check(ls).theta
        if theta < 1.0 and 4.0 * res.norm_w > 1.0 / (1.0 - theta) + 1e-12:
            bound_ok = False
    _verdict(5, worst_form <= 1e-12 and worst_resid <= 1e-12 and bound_ok,
             "damping matrix matches (I + Z2/4)^{-1} I1 (up to the d-scalar 4) "
             "and obeys the theta bound",
             f"form {worst_form:.1e}, residual {worst_resid:.1e}")


def test_criterion_06_wnorm_ratios():
    t0 = time.perf_counter()
    rep = EXPERIMENTS["fig3"](schemes=("TW2",), ms=(20, 40, 80, 160, 320, 640),
                              nus=(0.5, 1.0))
    elapsed = time.perf_counter() - t0
    vals = {(r["nu"], r["m"]): r["norm_W"] for r in rep.rows}
    flat = [vals[(0.5, 2 * m)] / vals[(0.5, m)] for m in (80, 160, 320)]
    grow = [vals[(1.0, 2 * m)] / vals[(1.0, m)] for m in (80, 160, 320)]
    ok = (max(flat) <= 1.2 and all(1.6 <= g <= 2.4 for g in grow)
          and elapsed < 120.0)
    _verdict(6, ok, "W-norm plateaus at nu = 0.5 and grows linearly at nu = 1",
             f"{elapsed:.0f}s, flat {max(flat):.2f}, growth "
             + " ".join(f"{g:.2f}" for g in grow))


def test_criterion_07_conservation_dichotomy():
    m, nu, steps = 100, 0.5, 100
    prob = advection1d_weno5(m)
    # a single asymmetric interval: under the symmetric pair of the adv1d
    # standard partition the region boundary fluxes of the exact sin^2
    # profile cancel to round-off, hiding the weight mismatch
    part = PartitionSpec.parse("(x>=0.125)&(x<=0.375)").cells(prob.grid)
    fp = FluxPartition.from_cells(part, prob.grid)
    t_end = steps * nu / m
    drifts = {}
    for scheme in ("OS1", "TW1", "TW2", "CS2", "SH2"):
        for kind, parts in (("cell", CellSplitParts(prob.rhs, part)),
                            ("flux", FluxSplitParts(prob.flux, fp))):
            res = integrate(IntegrationRun(
                builtin_tableau(scheme), parts, dt=nu / m, t_end=t_end,
                u0=prob.initial, mass_weights=prob.grid.dx))
            drifts[(scheme, kind)] = (
                abs(res.mass_trace[-1] - res.mass_trace[0]) / abs(res.mass_trace[0])
            )
    ok = all(drifts[(s, "flux")] <= 1e-10 for s in ("OS1", "TW1", "TW2", "CS2", "SH2"))
    ok &= all(drifts[(s, "cell")] <= 1e-12 for s in ("OS1", "CS2"))
    ok &= all(drifts[(s, "cell")] >= 1e-6 for s in ("TW1", "TW2", "SH2"))
    detail = ", ".join(f"{s}-cell {drifts[(s, 'cell')]:.1e}"
                       for s in ("OS1", "TW1", "TW2", "CS2", "SH2"))
    _verdict(7, ok, "mass drift dichotomy over 100 steps (flux vs cell)", detail)


@pytest.mark.slow
def test_criterion_08_burgers_shock_location():
    t0 = time.perf_counter()
    rep = EXPERIMENTS["fig2"](m=2000)
    rows = {r["scheme"]: r for r in rep.rows}
    ok = rep.passed and rows["CS2"]["displacement_cells"] <= 5.0
    ok &= all(rows[s]["displacement_cells"] >= 10.0 for s in ("TW2", "SH2"))
    rep4 = EXPERIMENTS["fig2"](schemes=("TW2", "SH2"), m=4000,
                               include_reference=False)
    rows4 = {r["scheme"]: r for r in rep4.rows}
    ok &= all(rows4[s]["displacement_cells"] >= 10.0 for s in ("TW2", "SH2"))
    elapsed = time.perf_counter() - t0
    _verdict(8, ok, "shock position: conservative correct, others displaced",
             f"{elapsed:.0f}s, m=2000 cells "
             + " ".join(f"{s}:{rows[s]['displacement_cells']:.1f}"
                        for s in ("CS2", "TW2", "SH2"))
             + "; m=4000 "
             + " ".join(f"{s}:{rows4[s]['displacement_cells']:.1f}"
                        for s in ("TW2", "SH2")))


def test_criterion_09_reduction_property():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(3):
        m = int(rng.integers(5, 21))
        L = 0.5 * rng.standard_normal((m, m))
        F = lambda t, v: L @ v
        u0 = rng.standard_normal(m)
        dt = 0.15
        for scheme, base, subs in (
            ("OS1", "euler", (1, 2)), ("TW1", "euler", (1, 2)),
            ("TW2", "etr", (1, 2)), ("CS2", "etr", (1, 2)), ("SH2", "etr", (1, 2)),
        ):
            for region, n_sub in zip((0, 1), subs):
                parts = CellSplitParts(F, CellPartition.two_region(
                    np.full(m, region == 1)))
                got = prk_step(builtin_tableau(scheme), parts, 0.0, dt, u0)
                w = u0.copy()
                h = dt / n_sub
                for i in range(n_sub):
                    if base == "euler":
                        w = w + h * F(i * h, w)
                    else:
                        pred = w + h * F(i * h, w)
                        w = w + 0.5 * h * (F(i * h, w) + F((i + 1) * h, pred))
                worst = max(worst, np.abs(got - w).max())
    _verdict(9, worst <= 1e-14,
             "trivial partitions reduce every scheme to its base substeps",
             f"max deviation {worst:.1e}")


def test_criterion_10_local_error_oracle():
    # residual after subtracting the predicted expansion truncated at
    # level l decays like dt^(l+1+max(p-l,0)): the generic Taylor
    # remainder gains extra powers because d_{j,k} = O(dt^(p+1-j))
    m = 16
    prob = upwind1d(m=m, boundary="inflow")
    refined = np.zeros(m, dtype=bool)
    refined[5:11] = True
    part = CellPartition.two_region(refined)
    x = prob.grid.x
    s = np.sin(2 * np.pi * x) + 1.5
    alpha = 0.7
    uex = lambda t: s * np.exp(alpha * t)
    mats = linearize_parts(CellSplitParts(prob.rhs, part), m)
    L = sum(mats)
    F = lambda t, v: L @ v + (alpha * uex(t) - L @ uex(t))
    parts = CellSplitParts(F, part)
    t0 = 0.4
    results = []
    for scheme, level in (("OS1", 1), ("TW1", 1), ("CS2", 1), ("TW2", 2), ("SH2", 2)):
        tab = builtin_tableau(scheme)
        p = classical_order(tab)
        predicted = level + 1 + max(p - level, 0)
        dts = [0.02 / 2**i for i in range(5)]
        resid = []
        for dt in dts:
            ls = LinearSplitting(tuple(dt * Lk for Lk in mats))
            defect = uex(t0 + dt) - prk_step(tab, parts, t0, dt, uex(t0))
            phis = [[np.where(mk, alpha ** (j + 1) * uex(t0), 0.0)
                     for j in range(level)] for mk in part.masks]
            pred = predicted_local_error(tab, ls, phis, dt, order=level)
            resid.append(np.abs(defect - pred).max())
        slope = float(np.polyfit(np.log2(dts), np.log2(resid), 1)[0])
        results.append((scheme, slope, predicted, abs(slope - predicted) <= 0.2))
    ok = all(r[3] for r in results)
    _verdict(10, ok, "one-step defect matches the predicted expansion order",
             " ".join(f"{s}:{sl:.2f}/{p}" for s, sl, p, _ in results))
