"""Experiment plumbing: order estimation, CSV determinism, built-in checks."""

import numpy as np
import pytest

from prk.harness import (
    estimate_order,
    run_adv2d,
    run_burgers_shock,
    run_error_profile,
    run_table1,
    run_table2,
    run_wnorm_study,
    shock_position,
)


def test_estimate_order_geometric():
    est = estimate_order({100: 4e-4, 200: 1e-4, 400: 2.5e-5})
    assert np.isclose(est, 2.0)


def test_estimate_order_constant_errors():
    est = estimate_order({100: 1e-3, 200: 1e-3})
    assert np.isclose(est, 0.0)


def test_estimate_order_single_point_rejected():
    with pytest.raises(ValueError):
        estimate_order({100: 1e-3})


def test_shock_position_interpolates():
    x = np.array([0.1, 0.2, 0.3, 0.4])
    u = np.array([1.0, 1.0, 0.2, 0.0])
    # crossing between 0.2 and 0.3: 1.0 -> 0.2 passes 0.5 at 5/8 of the gap
    assert np.isclose(shock_position(x, u), 0.2 + 0.1 * 0.5 / 0.8)
    with pytest.raises(ValueError):
        shock_position(x, np.zeros(4))


def test_report_csv_shape_and_determinism():
    kw = dict(schemes=("TW2",), ms=(20, 40), nus=(0.5,))
    a = run_wnorm_study(**kw).to_csv()
    b = run_wnorm_study(**kw).to_csv()
    assert a == b
    lines = a.splitlines()
    assert lines[0] == "# experiment = fig3"
    header = next(ln for ln in lines if not ln.startswith("#"))
    assert header == "scheme,m,nu,norm_W,cond_rTe,stab1,stab2"
    assert "runtime" not in a


def test_table1_small_slice():
    rep = run_table1(schemes=("TW2",), ms=(50, 100))
    assert rep.passed, rep.summary()
    by_m = {r["m"]: r for r in rep.rows}
    assert by_m[100]["err_linf"] == pytest.approx(3.12e-4, rel=0.1)
    assert by_m[100]["order_linf"] == pytest.approx(2.0, abs=0.4)
    assert all(r["mass_drift"] < 1e-12 for r in rep.rows)  # sin^2 symmetry


def test_table2_small_slice():
    rep = run_table2(schemes=("CS2",), ms=(50, 100))
    assert rep.passed, rep.summary()
    by_m = {r["m"]: r for r in rep.rows}
    assert by_m[100]["err_linf"] == pytest.approx(3.98e-2, rel=0.15)
    # flux splitting conserves mass to round-off regardless of the scheme
    assert all(r["mass_drift"] < 1e-13 for r in rep.rows)
    # published-order comparison needs at least two published resolutions
    assert not any("rounded orders" in c.label for c in rep.checks)


def test_table1_published_order_check_engages():
    rep = run_table1(schemes=("CS2",), ms=(100, 200, 400))
    assert any("rounded orders" in c.label for c in rep.checks)
    assert rep.passed, rep.summary()


def test_error_profile_checks_pass_at_reduced_size():
    rep = run_error_profile(m=200)
    assert rep.passed, rep.summary()
    assert {r["scheme"] for r in rep.rows} == {"CS2", "TW2"}
    assert sum(r["scheme"] == "CS2" for r in rep.rows) == 200
    # errors start from zero initial error and stay small
    assert max(abs(r["error"]) for r in rep.rows) < 1e-2


def test_burgers_shock_small_grid():
    rep = run_burgers_shock(m=500)
    assert rep.passed, rep.summary()
    rows = {r["scheme"]: r for r in rep.rows}
    assert rows["CS2"]["displacement_cells"] <= 5.0
    assert rows["single-rate"]["displacement_cells"] <= 3.0
    # the non-conservative schemes park the shock visibly to the right
    assert rows["TW2"]["shock_position"] > 0.7549
    assert rows["SH2"]["shock_position"] > rows["TW2"]["shock_position"]


def test_wnorm_study_quick_flags():
    rep = run_wnorm_study(schemes=("TW2",), ms=(80, 160, 320), nus=(0.5, 1.0))
    assert rep.passed, rep.summary()
    assert len(rep.rows) == 6
    assert all(r["stab1"] and r["stab2"] for r in rep.rows)


@pytest.mark.slow
def test_adv2d_cell_small_grids():
    rep = run_adv2d(kind="cell", ns=(20, 40), nus=(0.5, 1.0),
                    reference_tol=1e-8)
    # grids below the asymptotic range: the baseline check reports a skip,
    # the CS2-vs-TW2 growth is visible already
    assert rep.passed, rep.summary()
    labels = {c.label: c.detail for c in rep.checks}
    assert any("pre-asymptotic" in d for d in labels.values())
    assert any("ratio" in d for l, d in labels.items() if "CS2/TW2" in l)
    statuses = {r["status"] for r in rep.rows}
    assert statuses == {"ok"}
