"""The benchmark's hold on the package: ``perfbench/child.py`` still runs.

``child.py`` wraps package names (the split classes' ``eval_parts``, the
problem builders and ``integrate`` as ``prk.harness`` globals, ...) and
counts full right-hand-side evaluations per step.  A rename or a change
of the part protocol breaks it only at benchmark time; this runs its
traced mode on small configs that between them use every split class,
and its count mode (the one the timed passes use) on a small ``fig3``.
"""

import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _rhs_equiv() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.RHS_EQUIV


CONFIGS = {
    # cell split
    "table1": ("schemes=TW2\nms=50,100\n", {"TW2"}),
    # 1D flux split
    "table2": ("schemes=SH2\nms=50,100\n", {"SH2"}),
    # dynamic cell split, and the trivial split of the single-rate run
    "fig2": ("schemes=CS2\nm=400\n", {"CS2", "ETR2"}),
    # 2D flux split
    "adv2d-flux": ("schemes=TW2\nns=20\nnus=1.0\nreference_tol=1e-8\n", {"TW2", "ETR2"}),
}


def _run_child(mode: str, experiment: str, config: str, tmp_path: Path) -> dict:
    """Run ``prk run experiment`` under ``child.py mode``; returns its counters."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    sidecar = tmp_path / "counts.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), mode, repr(time.perf_counter()),
         str(sidecar), "--", "run", experiment, "--config", str(cfg),
         "--out", str(tmp_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert (tmp_path / f"{experiment}.csv").is_file()
    return json.loads(sidecar.read_text())["counts"]


@pytest.mark.parametrize("experiment", sorted(CONFIGS))
def test_traced_child_counts_the_declared_work(experiment, tmp_path):
    config, schemes = CONFIGS[experiment]
    counts = _run_child("trace", experiment, config, tmp_path)
    rhs_equiv = _rhs_equiv()
    for scheme in schemes:
        steps = counts[f"work.{scheme}.steps"]
        assert steps > 0, scheme
        assert counts[f"work.{scheme}.full_evals"] / steps == rhs_equiv[scheme], scheme


def test_counted_child_runs_fig3_unchanged(tmp_path):
    # count mode, on the only experiment that builds upwind1d: the report
    # keeps its bytes, each of the 3 x 2 (m, nu) points probes the upwind
    # rhs m + 1 times to linearize its cell split, and no flux is called
    counts = _run_child("count", "fig3", "schemes=TW2,CS2\nms=20,40,80\nnus=0.5,1.0\n",
                        tmp_path)
    want = (ROOT / "tests" / "golden" / "fig3.csv").read_bytes()
    assert (tmp_path / "fig3.csv").read_bytes() == want
    assert counts["analysis.solve_W_calls"] == 12
    assert counts["spatial.rhs_calls"] == 2 * (21 + 41 + 81)
    assert "spatial.flux_calls" not in counts
