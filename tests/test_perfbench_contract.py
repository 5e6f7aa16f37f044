"""The benchmark's hold on the package: ``perfbench/child.py`` still runs.

``child.py`` wraps package names (the split classes' ``eval_parts``, the
problem builders and ``integrate`` as ``prk.harness`` globals, ...) and
counts full right-hand-side evaluations per step.  A rename or a change
of the part protocol breaks it only at benchmark time; this runs its
traced mode on small configs that between them use every split class.
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


@pytest.mark.parametrize("experiment", sorted(CONFIGS))
def test_traced_child_counts_the_declared_work(experiment, tmp_path):
    config, schemes = CONFIGS[experiment]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    sidecar = tmp_path / "counts.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), "trace", repr(time.perf_counter()),
         str(sidecar), "--", "run", experiment, "--config", str(cfg),
         "--out", str(tmp_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert (tmp_path / f"{experiment}.csv").is_file()
    counts = json.loads(sidecar.read_text())["counts"]
    rhs_equiv = _rhs_equiv()
    for scheme in schemes:
        steps = counts[f"work.{scheme}.steps"]
        assert steps > 0, scheme
        assert counts[f"work.{scheme}.full_evals"] / steps == rhs_equiv[scheme], scheme
