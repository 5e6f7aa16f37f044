"""Experiment plumbing: order estimation, CSV determinism, built-in checks,
and the lifetime of the adv2d reference worker."""

import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import prk.harness
import prk.stepper
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


# ----------------------------------------------------------------------
# the adv2d reference worker: errors reach the parent, nothing outlives it
# ----------------------------------------------------------------------

SMALL_ADV2D = dict(ns=(20,), nus=(1.0,), reference_tol=1e-8)


def test_adv2d_leaves_no_child_process():
    run_adv2d(**SMALL_ADV2D)
    assert multiprocessing.active_children() == []


def test_adv2d_scheme_error_propagates_and_ends_the_worker(monkeypatch):
    calls = []
    integrate = prk.harness.integrate

    def second_call_fails(run):
        calls.append(run)
        if len(calls) == 2:
            raise ValueError("second integration")
        return integrate(run)

    monkeypatch.setattr(prk.harness, "integrate", second_call_fails)
    with pytest.raises(ValueError, match="second integration"):
        run_adv2d(**SMALL_ADV2D)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("exc", [
    RuntimeError("did not converge"),
    prk.stepper.IntegrationDiverged("reference diverged", step=3, t=0.5),
], ids=["runtime-error", "diverged"])
def test_adv2d_reference_error_reaches_the_parent(monkeypatch, exc):
    def fails(*_args, **_kwargs):
        raise exc

    monkeypatch.setattr(prk.stepper, "reference_integrate", fails)
    with pytest.raises(type(exc), match=str(exc)) as got:
        run_adv2d(**SMALL_ADV2D)
    assert got.value is not exc  # raised in the worker, sent through the pipe
    assert got.value.__dict__ == exc.__dict__  # IntegrationDiverged's step and t
    assert multiprocessing.active_children() == []


def test_adv2d_reports_a_worker_that_dies(monkeypatch):
    monkeypatch.setattr(prk.stepper, "reference_integrate", lambda *_args, **_kw: os._exit(3))
    with pytest.raises(RuntimeError, match="reference worker exited with code 3"):
        run_adv2d(**SMALL_ADV2D)
    assert multiprocessing.active_children() == []


# the worker's pids at the first integration, then the end of this process;
# the reference stalls, so only the end of its parent can end the worker
_ORPHAN_SCRIPT = """
import multiprocessing, os, sys, time
import prk.harness, prk.stepper

def first_integration(run):
    print(*(p.pid for p in multiprocessing.active_children()), flush=True)
    if sys.argv[1] == "exit":
        os._exit(0)
    time.sleep(60)

prk.harness.integrate = first_integration
prk.stepper.reference_integrate = lambda *args, **kwargs: time.sleep(10)
prk.harness.run_adv2d(ns=(20,), reference_tol=1e-8)
"""


def _running(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:  # an exited process may wait as a zombie for its reaper
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.parametrize("end", ["exit", "kill"])
def test_adv2d_worker_ends_with_its_parent(end):
    """A parent that ends by ``os._exit`` (as the benchmark's set-up probes
    do, at the first integration) or by SIGKILL leaves no worker behind."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).parents[1] / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen([sys.executable, "-c", _ORPHAN_SCRIPT, end], env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        pids = [int(p) for p in proc.stdout.readline().split()]
        if end == "kill":
            proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        proc.kill()
        proc.stdout.close()
    assert len(pids) == 1
    deadline = time.monotonic() + 2.0
    while _running(pids[0]) and time.monotonic() < deadline:
        time.sleep(0.02)
    assert not _running(pids[0])
