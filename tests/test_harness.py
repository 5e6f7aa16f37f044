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
from hypothesis import example, given, settings
from hypothesis import strategies as st

import prk.harness
import prk.stepper
from prk.harness import (
    MAX_STEPS,
    BadArgument,
    check_schemes,
    courant_step,
    EXPERIMENTS,
    estimate_order,
    run_case,
    shock_position,
)
from prk.decomposition import mass
from prk.stepper import IntegrationRun, integrate
from prk.tableau import builtin_tableau
from test_decomposition import _fresh_split

run_table1, run_table2, run_wnorm_study = (EXPERIMENTS[k] for k in ("table1", "table2", "fig3"))
run_error_profile, run_burgers_shock = EXPERIMENTS["fig1"], EXPERIMENTS["fig2"]
run_adv2d = EXPERIMENTS["adv2d-cell"]


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


@pytest.mark.parametrize("kind", ["cell", "flux", "dynamic", "trivial", "flux2d"])
def test_case_mass_drift_is_the_drift_of_the_traced_run(kind):
    # run_case weighs the first and last states alone; a run that traces
    # the mass every step has those two masses and the same drift, byte for
    # byte (nonzero for the dynamic and the 2D splits)
    prob, split = _fresh_split(kind)
    scheme = "ETR2" if kind == "trivial" else "TW2"
    dt, w = 0.25 * prob.grid.min_width, prob.grid.measure
    case = run_case(prob, scheme, split, dt, 8 * dt)
    res = integrate(IntegrationRun(builtin_tableau(scheme), _fresh_split(kind)[1], dt, 8 * dt,
                                   prob.initial, mass_weights=w))
    assert len(res.mass_trace) == 9 and res.u.tobytes() == case.u.tobytes()
    ends = (mass(w, prob.initial), mass(w, case.u), case.mass_drift)
    traced = (res.mass_trace[0], res.mass_trace[-1], abs(res.mass_trace[-1] - res.mass_trace[0]))
    assert np.array(ends).tobytes() == np.array(traced).tobytes()


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
    rep = run_adv2d(ns=(20, 40), nus=(0.5, 1.0),
                    reference_tol=1e-8)
    # grids below the asymptotic range: the baseline check reports a skip,
    # the CS2-vs-TW2 growth is visible already
    assert rep.passed, rep.summary()
    labels = {c.label: c.detail for c in rep.checks}
    assert any("pre-asymptotic" in d for d in labels.values())
    assert any("ratio" in d for l, d in labels.items() if "CS2/TW2" in l)
    statuses = {r["status"] for r in rep.rows}
    assert statuses == {"ok"}


def test_adv2d_ratio_check_compares_the_coarsest_grid_with_the_finest():
    kw = dict(nus=(0.5,), schemes=("TW2", "CS2"), reference_tol=1e-6)
    ascending, descending = (run_adv2d(ns=ns, **kw).checks for ns in ((20, 24), (24, 20)))
    assert ascending == descending
    assert ascending[-1].label == "CS2/TW2 error ratio grows as the grid refines"
    assert ascending[-1].ok, ascending[-1].detail


@settings(max_examples=300, deadline=None)
@given(problem=st.sampled_from(["adv1d", "burgers", "adv2d"]),
       m=st.integers(6, 2000),  # every problem needs 6 cells
       nu=st.floats(1e-2, 8.0),
       t_end=st.one_of(st.floats(1e-3, 2.0), st.integers(1, 10**5)),
       numpy_nu=st.booleans())
# 1.0 / (0.5 / 98) is 196.00000000000003: 196 steps end at T, where ceil took 197
@example(problem="adv1d", m=98, nu=0.5, t_end=1.0, numpy_nu=False)
def test_courant_step_keeps_the_bits_of_the_literal_steps(problem, m, nu, t_end, numpy_nu):
    nu = np.float64(nu) if numpy_nu else nu  # the adv2d Courant numbers come from linspace
    # the step as the integrate command and the adv2d loop (h = 1.0 / n) wrote it
    dt = nu * (1.0 / m) / (2.0 * np.pi) if problem == "adv2d" else nu / m
    if isinstance(t_end, int):  # a whole number of steps, whatever the last bit of dt
        n_steps, t_end = t_end, float(t_end * dt)
    else:  # kept when the steps end at t_end within the stepper's whole-step tolerance
        n = round(t_end / dt)
        whole = n >= 1 and abs(n * dt - t_end) <= 1e-9 * max(t_end, 1.0)
        n_steps = n if whole else max(1, int(np.ceil(t_end / dt)))
    assert n_steps <= MAX_STEPS
    got_dt, got_steps = courant_step(problem, m, nu, t_end)
    assert got_steps == n_steps
    assert np.float64(got_dt).tobytes() == np.float64(t_end / n_steps).tobytes()


@pytest.mark.parametrize("call, message", [
    (lambda: courant_step("adv1d", 0, 0.5, 1.0),
     "bad value m=0: need a whole number of at least 6 cells"),
    (lambda: courant_step("adv1d", 12.0, 0.5, 1.0),
     "bad value m=12.0: need a whole number of at least 6 cells"),
    *((lambda nu=nu: courant_step("adv1d", 12, nu, 1.0),
       f"bad value nu={nu!r}: need a positive number")
      for nu in (0.0, -1.0, float("nan"), float("inf"), True)),
    *((lambda t_end=t_end: courant_step("adv2d", 12, 0.5, t_end),
       f"bad value t_end={t_end!r}: need a positive number")
      for t_end in (-1.0, float("nan"), float("inf"))),
    (lambda: courant_step("adv2d", 12, -1, 1.0, key="nus"),
     "bad value nus=-1: need a positive number"),
    (lambda: check_schemes(("",)), "bad value schemes=('',): need a scheme name in entry 1"),
    (lambda: check_schemes(("TW2", " ")),
     "bad value schemes=('TW2', ' '): need a scheme name in entry 2"),
], ids=["m-zero", "m-float", "nu-zero", "nu-negative", "nu-nan", "nu-inf", "nu-flag",
        "t-end-negative", "t-end-nan", "t-end-inf", "nu-key", "scheme-empty", "scheme-blank"])
def test_step_and_scheme_checks_reject_bad_values(call, message):
    with pytest.raises(BadArgument) as got:
        call()
    assert str(got.value) == message


@pytest.mark.parametrize("experiment", sorted(prk.harness.EXPERIMENTS))
@pytest.mark.parametrize("schemes, message", [
    (("XX",), "unknown scheme(s) XX; choose from OS1, TW1, TW2, CS2, SH2, FE1, ETR2"),
    (("ETR2",), "scheme(s) ETR2 do not take 2 parts, one per region of the partition"),
    (("TW2", "tw2"), "bad value schemes=('TW2', 'tw2'): need each scheme once"),
    (("TW2", ""), "bad value schemes=('TW2', ''): need a scheme name in entry 2"),
], ids=["unknown", "one-part", "repeated", "empty"])
def test_experiments_check_schemes_before_any_work(monkeypatch, experiment, schemes, message):
    def no_work(*_args, **_kwargs):
        raise AssertionError("work started")

    for name in ("advection1d_weno5", "advection2d", "burgers_llf", "upwind1d",
                 "integrate", "solve_W", "forked_references"):
        monkeypatch.setattr(prk.harness, name, no_work)
    with pytest.raises(prk.harness.BadArgument) as got:
        prk.harness.EXPERIMENTS[experiment](schemes=schemes)
    assert str(got.value) == message


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
prk.harness.EXPERIMENTS["adv2d-cell"](ns=(20,), reference_tol=1e-8)
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
