"""Benchmark of the ``prk`` experiment harness, run through ``prk run``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src``.
A pass runs a workload's experiments, one ``prk run EXPERIMENT --config
FILE`` process each, one after the other (a closed loop from a single
process; nothing runs concurrently).  Every report row and every
built-in check is an operation; each is checked against the stored
output of the seed commit in ``perfbench/expected``.

``--trace 0`` times passes with tracing off for ``--seconds`` and prints
the end-to-end metrics; ``--trace 1`` runs one untraced and one traced
pass and prints the per-layer metrics.  The last line of standard output
is the result as one JSON object.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected"
OUT = HERE / "out"

# a run must end within 180 s; no process is left running past this
RUN_LIMIT_S = 170.0
# times are reported at the machine speed where the calibration kernel of
# child.Calibrator takes this long; the value is arbitrary but fixed
CAL_REF_S = 1e-3
SETUP_PROBES = 5
MIN_PASSES = 2

PUBLISHED_MS = "100,200,400,800"
FIG3_MS = "20,40,80,160,320,640"
FIG3_NUS = "0.5,0.75,0.9,0.95,1.0"
# the eight default Courant numbers of adv2d, np.linspace(0.5, 2.0, 8)
ADV2D_NUS = ("0.5", "0.7142857142857143", "0.9285714285714286", "1.1428571428571428",
             "1.3571428571428572", "1.5714285714285714", "1.7857142857142856", "2.0")
# pairs of the eight whose step counts at n = 50 add up alike (210 + 53
# and 147 + 113), so every seed integrates the same amount of work
ADV2D_PAIRS = ((0, 7), (1, 2))

# full right-hand-side evaluations per step of each tableau with masked
# full evaluation (every stage evaluates F once)
RHS_EQUIV = {"TW2": 4.0, "CS2": 4.0, "SH2": 5.0, "ETR2": 2.0}


@dataclass(frozen=True)
class Job:
    """One ``prk run`` of a pass and the report rows it should produce."""

    experiment: str
    config: dict
    row_order: tuple  # value of the scheme column, in report order
    nus: tuple | None = None  # adv2d Courant numbers run, in report order


def workload_jobs(workload: str, seed: int | None) -> list[Job]:
    """The jobs of one pass; ``seed=None`` gives the stored canonical set."""
    rng = random.Random(seed)

    def order(*names):
        names = list(names)
        if seed is not None:
            rng.shuffle(names)
        return tuple(names)

    if workload == "adv1d-tables":
        s = order("CS2", "TW2", "SH2")
        cfg = {"schemes": ",".join(s), "ms": PUBLISHED_MS, "nu": "0.5"}
        return [Job("table1", cfg, s), Job("table2", cfg, s)]
    if workload == "burgers-shock":
        s = order("CS2", "TW2", "SH2")
        return [Job("fig2", {"schemes": ",".join(s), "m": "2000"}, s + ("single-rate",))]
    if workload == "adv2d-wnorm":
        s = order("TW2", "CS2", "SH2")
        if seed is None:
            nus = ADV2D_NUS
        else:
            nus = order(*(ADV2D_NUS[i] for i in ADV2D_PAIRS[seed % len(ADV2D_PAIRS)]))
        s3 = order("TW2", "CS2")
        return [
            Job("adv2d-cell", {"schemes": ",".join(s), "ns": "50", "nus": ",".join(nus),
                               "reference_tol": "1e-9"}, ("ETR2x2",) + s, nus),
            Job("fig3", {"schemes": ",".join(s3), "ms": FIG3_MS, "nus": FIG3_NUS}, s3),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("adv1d-tables", "burgers-shock", "adv2d-wnorm")


# ----------------------------------------------------------------------
# expected output
# ----------------------------------------------------------------------

def split_report(text: str):
    """(header lines, column line, row lines) of a ``prk run`` CSV."""
    lines = text.splitlines()
    head = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    return head, body[0], body[1:]


def expected_report(job: Job) -> tuple[str, list[list[str]]]:
    """The seed commit's CSV for this job, rows reordered and filtered to
    match its scheme order and Courant numbers."""
    head, cols, rows = split_report((EXPECTED / f"{job.experiment}.csv").read_text())
    columns = cols.split(",")
    nu_col = columns.index("nu") if job.nus else None
    keep = [r.split(",") for r in rows]
    if job.nus:
        keep = [r for r in keep if r[nu_col] in job.nus]
    keep.sort(key=lambda r: (job.row_order.index(r[0]),
                             job.nus.index(r[nu_col]) if job.nus else 0))
    text = "\n".join(head + [cols] + [",".join(r) for r in keep]) + "\n"
    return text, keep


def expected_checks(job: Job) -> list[str]:
    return (EXPECTED / f"{job.experiment}.checks").read_text().splitlines()


def parse_checks(stdout: str) -> dict[str, bool]:
    """Check verdicts from the ``prk run`` summary lines."""
    out = {}
    for line in stdout.splitlines():
        line = line.strip()
        if line.startswith(("[PASS] ", "[FAIL] ")):
            out[line[7:].split("  (", 1)[0]] = line.startswith("[PASS]")
    return out


def same_value(want: str, got: str) -> bool:
    """Equal, or equal to round-off; a run that diverged matches one that
    diverged at the seed commit."""
    if want == got:
        return True
    if want.startswith("diverged@") and got.startswith("diverged@"):
        return True
    try:
        a, b = float(want), float(got)
    except ValueError:
        return False
    if math.isnan(a) or math.isnan(b) or math.isinf(a) or math.isinf(b):
        return (math.isnan(a) and math.isnan(b)) or a == b
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def verify(job: Job, csv_path: Path, stdout: str) -> dict:
    """Operations attempted and failed for one job, and byte identity."""
    want_text, want_rows = expected_report(job)
    got_text = csv_path.read_text() if csv_path.is_file() else ""
    got_rows = [r.split(",") for r in split_report(got_text)[2]] if got_text else []
    failed = sum(
        len(w) != len(g) or not all(map(same_value, w, g))
        for w, g in zip(want_rows, got_rows)
    ) + abs(len(want_rows) - len(got_rows))
    checks = parse_checks(stdout)
    labels = expected_checks(job)
    failed += sum(not checks.get(label, False) for label in labels)
    extra = [label for label in checks if label not in labels]
    failed += len(extra)
    return {
        "attempted": max(len(want_rows), len(got_rows)) + len(labels) + len(extra),
        "failed": failed,
        "identical": got_text == want_text,
        "checks_total": len(checks),
        "checks_failed": sum(not ok for ok in checks.values()),
    }


# ----------------------------------------------------------------------
# processes and passes
# ----------------------------------------------------------------------

class Runner:
    """Starts each process of a pass, reaps it and stops it at the deadline."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.timed_out = False
        nproc = len(os.sched_getaffinity(0))
        self.threads = str(nproc)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = self.threads

    def _stop(self, proc: subprocess.Popen) -> None:
        self.timed_out = True
        proc.kill()

    def process(self, job: Job, mode: str, tag: str) -> dict:
        cfg = self.workdir / f"{tag}.cfg"
        cfg.write_text("".join(f"{k}={v}\n" for k, v in job.config.items()))
        sidecar = self.workdir / f"{tag}.json"
        outdir = self.workdir / tag
        log = self.workdir / f"{tag}.out"
        with open(log, "w") as fh:
            spawn_t = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), mode, repr(spawn_t), str(sidecar),
                 "--", "run", job.experiment, "--config", str(cfg), "--out", str(outdir)],
                stdout=fh, stderr=subprocess.STDOUT, env=self.env, cwd=str(ROOT))
            killer = threading.Timer(max(1.0, self.deadline - time.perf_counter()),
                                     self._stop, (proc,))
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            end_t = time.perf_counter()
            proc.returncode = os.waitstatus_to_exitcode(status)
        side = json.loads(sidecar.read_text()) if sidecar.is_file() else {}
        first = side.get("first_heavy")
        return {
            "wall_s": end_t - spawn_t,
            "setup_s": (first - spawn_t) if first else None,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "exit": proc.returncode,
            "counts": side.get("counts", {}),
            "calibration": side.get("calibration", [0, 0.0]),
            "csv": outdir / f"{job.experiment}.csv",
            "stdout": log.read_text(),
            "spans": sidecar.with_suffix(".npz"),
        }

    def run_pass(self, jobs: list[Job], mode: str, label: str) -> dict:
        procs = [self.process(job, mode, f"{label}-{job.experiment}") for job in jobs]
        setups = [p["setup_s"] for p in procs]
        result = {
            "mode": mode,
            "wall_s": sum(p["wall_s"] for p in procs),
            "process_wall_s": [p["wall_s"] for p in procs],
            "calibration": [sum(p["calibration"][i] for p in procs) for i in (0, 1)],
            "setup_s": None if None in setups else sum(setups),
            "peak_rss_mb": max(p["rss_mb"] for p in procs),
            "exits": [p["exit"] for p in procs],
            "procs": procs,
        }
        if mode == "setup":
            return result
        checked = [verify(job, p["csv"], p["stdout"]) for job, p in zip(jobs, procs)]
        counts: dict = {}
        for p in procs:
            for key, val in p["counts"].items():
                counts[key] = counts.get(key, 0) + val
        result.update(
            attempted=sum(c["attempted"] for c in checked),
            failed=sum(c["failed"] for c in checked),
            identical=sum(c["identical"] for c in checked),
            checks_total=sum(c["checks_total"] for c in checked),
            checks_failed=sum(c["checks_failed"] for c in checked),
            counts=counts,
        )
        return result


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

def scheme_work(counts: dict) -> dict[str, tuple[float, float]]:
    """(full evaluations, steps) of every scheme integrated in a pass."""
    return {
        key[5:-6]: (counts.get(f"work.{key[5:-6]}.full_evals", 0.0), steps)
        for key, steps in counts.items()
        if key.startswith("work.") and key.endswith(".steps")
    }


def work_checks(passes: list[dict]) -> list[str]:
    """Self-tests of the work counters; returns the problems found."""
    problems = []
    plain = [p["counts"] for p in passes]
    for other in plain[1:]:
        keys = set(plain[0]) | set(other)
        diff = [k for k in sorted(keys)
                if not k.startswith(("weno.", "decomposition.", "analysis.build",
                                     "analysis.matrix"))
                and plain[0].get(k, 0) != other.get(k, 0)]
        if diff:
            problems.append(f"counters differ between passes: {diff}")
    for scheme, (evals, steps) in scheme_work(plain[0]).items():
        want = RHS_EQUIV.get(scheme)
        if want is None or steps == 0 or evals / steps != want:
            problems.append(f"{scheme}: {evals} full evaluations in {steps} steps, "
                            f"expected {want} per step")
    return problems


def rhs_equiv_per_step(counts: dict) -> float:
    work = scheme_work(counts).values()
    steps = sum(s for _, s in work)
    return sum(e for e, _ in work) / steps if steps else 0.0


def speed_scale(passes: list[dict]) -> float:
    """Factor taking the passes' seconds to the reference machine speed."""
    count = sum(p["calibration"][0] for p in passes)
    return CAL_REF_S * count / sum(p["calibration"][1] for p in passes) if count else 1.0


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def layer_metrics(traced: dict, untraced: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics from the spans and counters of one traced pass."""
    import numpy as np

    self_by_name: dict[str, float] = {}
    calls_by_name: dict[str, int] = {}
    problems = []
    covered = calibration = outside = 0.0
    for proc in traced["procs"]:
        if not proc["spans"].is_file():
            problems.append(f"no spans from {proc['spans'].name}")
            continue
        data = np.load(proc["spans"])
        names = [str(n) for n in data["names"]]
        start, end, parent, nid = data["start"], data["end"], data["parent"], data["name"]
        dur = end - start
        inner = parent >= 0
        child_sum = np.bincount(parent[inner], weights=dur[inner], minlength=dur.size)
        self_t = dur - child_sum
        # nesting: every child inside its parent, roots disjoint in time
        if np.any(start[inner] < start[parent[inner]]) or np.any(end[inner] > end[parent[inner]]):
            problems.append("a span ends outside its parent")
        roots = np.flatnonzero(~inner)
        order = roots[np.argsort(start[roots])]
        if np.any(start[order[1:]] < end[order[:-1]]):
            problems.append("top-level spans overlap")
        # the calibration kernel ran inside whichever span was innermost
        for t0, t1 in data["calibration"]:
            calibration += t1 - t0
            around = np.flatnonzero((start <= t0) & (end >= t1))
            if around.size:
                self_t[around[np.argmax(start[around])]] -= t1 - t0
            else:
                outside += t1 - t0
        if np.any(self_t < -1e-9):
            problems.append("negative self time")
        covered += float(dur[roots].sum())
        for i, name in enumerate(names):
            sel = nid == i
            self_by_name[name] = self_by_name.get(name, 0.0) + float(self_t[sel].sum())
            calls_by_name[name] = calls_by_name.get(name, 0) + int(sel.sum())

    def self_s(prefix):
        return sum(v for k, v in self_by_name.items() if k.startswith(prefix))

    def calls(prefix):
        return sum(v for k, v in calls_by_name.items() if k.startswith(prefix))

    c = traced["counts"]
    layer_total = sum(self_by_name.values()) + calibration
    if abs(layer_total - outside - covered) > 1e-6 * max(1.0, covered):
        problems.append("layer self times do not add up to the traced time")
    wall = traced["wall_s"]
    scale = speed_scale([traced])
    self_by_name = {k: v * scale for k, v in self_by_name.items()}
    m = {
        "weno.calls": c.get("weno.calls", 0),
        "weno.edges": c.get("weno.edges", 0),
        "weno.self_s": self_s("weno."),
        "weno.ns_per_edge": 1e9 * self_s("weno.") / c["weno.edges"] if c.get("weno.edges") else 0.0,
        "spatial.rhs_calls": c.get("spatial.rhs_calls", 0),
        "spatial.flux_calls": c.get("spatial.flux_calls", 0),
        "spatial.self_s": self_s("spatial."),
    }
    for kind in ("cell", "flux", "dynamic"):
        computed = c.get(f"decomposition.{kind}.face_evals", 0)
        m[f"decomposition.{kind}.eval_parts_calls"] = c.get(
            f"decomposition.{kind}.eval_parts_calls", 0)
        m[f"decomposition.{kind}.face_evals"] = computed
        m[f"decomposition.{kind}.useful_ratio"] = (
            c.get(f"decomposition.{kind}.kept", 0) / computed if computed else 0.0)
        m[f"decomposition.{kind}.self_s"] = self_s(f"decomposition.{kind}.")
    m.update({
        "decomposition.begin_step_calls": c.get("decomposition.begin_step_calls", 0),
        "decomposition.begin_step_s": self_s("decomposition.begin_step"),
        "stepper.steps": c.get("stepper.steps", 0),
        "stepper.step_self_s": self_s("stepper.prk_step"),
        "stepper.integrate_self_s": self_s("stepper.integrate"),
        "stepper.ref_rhs_calls": c.get("stepper.ref_rhs_calls", 0),
        "stepper.ref_self_s": self_s("stepper.reference_integrate"),
        "analysis.build_ops_calls": c.get("analysis.build_ops_calls", 0),
        "analysis.build_ops_s": self_s("analysis.build_error_operators"),
        "analysis.solve_W_self_s": self_s("analysis.solve_W"),
        "analysis.stability_s": self_s("analysis.stability_check"),
        "analysis.self_s": self_s("analysis."),
        "analysis.cond_flagged": c.get("analysis.cond_flagged", 0),
        "analysis.matrix_bytes_computed": c.get("analysis.matrix_bytes_computed", 0),
        "tableau.calls": calls("tableau."),
        "tableau.self_s": self_s("tableau."),
        "harness.self_s": self_s("harness."),
        "harness.checks_total": traced["checks_total"],
        "harness.checks_failed": traced["checks_failed"],
        "harness.reports_identical": traced["identical"],
        "cli.self_s": self_s("cli."),
        "startup.self_s": self_s("startup."),
        "trace.wall_s": wall * scale,
        "trace.overhead_s": wall * scale - untraced["wall_s"] * speed_scale([untraced]),
        "trace.coverage": layer_total / wall,
        "trace.calibration_s": calibration,
        "trace.speed_scale": scale,
    })
    work = scheme_work(c)
    for scheme in RHS_EQUIV:
        evals, steps = work.get(scheme, (0.0, 0))
        m[f"work.{scheme}.rhs_equiv_per_step"] = evals / steps if steps else 0.0
    if m["trace.coverage"] > 1.0:
        problems.append("layer self times exceed the traced wall time")
    return m, problems


def declared_metrics(trace: int) -> dict[str, str]:
    """Name and unit of every metric ``BENCHMARK.json`` declares for the mode."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def environment(seed: int, threads: str) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "blas_threads": threads, "seed": seed}


# ----------------------------------------------------------------------
# main
# ----------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    start = time.perf_counter()
    if not (SRC / "prk" / "cli.py").is_file():
        print(f"no prk sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    jobs = workload_jobs(args.workload, args.seed)
    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    runner = Runner(workdir, start + RUN_LIMIT_S)

    passes, probes = [], []
    if args.trace:
        passes.append(runner.run_pass(jobs, "count", "pass0"))
        traced = runner.run_pass(jobs, "trace", "traced")
        all_checked = passes + [traced]
    else:
        for i in range(SETUP_PROBES):
            probes.append(runner.run_pass(jobs, "setup", f"probe{i}"))
        t0 = time.perf_counter()
        while not runner.timed_out:
            passes.append(runner.run_pass(jobs, "count", f"pass{len(passes)}"))
            elapsed = time.perf_counter() - t0
            typical = statistics.median(p["wall_s"] for p in passes)
            # start another pass only if at least half of it fits
            if len(passes) >= MIN_PASSES and elapsed + typical / 2 > args.seconds:
                break
        all_checked = passes

    problems = work_checks(passes + ([traced] if args.trace else []))
    attempted = sum(p["attempted"] for p in all_checked)
    failed = sum(p["failed"] for p in all_checked)
    if runner.timed_out:
        problems.append("a process was stopped at the run's time limit")

    walls = [p["wall_s"] for p in passes]
    if args.trace:
        metrics, trace_problems = layer_metrics(traced, passes[0])
        problems += trace_problems
    else:
        scaled = [p["wall_s"] * speed_scale([p]) for p in passes]
        setups = [p["setup_s"] for p in probes + passes if p["setup_s"] is not None]
        metrics = {
            "wall_s": statistics.median(scaled),
            "setup_s": (statistics.median(setups) * speed_scale(probes + passes)
                        if setups else 0.0),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            "pass_rate": 1.0 - failed / attempted,
            "rhs_equiv_per_step": rhs_equiv_per_step(passes[0]["counts"]),
        }
    units = declared_metrics(args.trace)
    if set(units) != set(metrics):
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}")
    env = environment(args.seed, runner.threads)
    detail = {
        "workload": args.workload, "env": env, "problems": problems,
        "raw_wall_s": {"samples": walls, "quartiles": quartiles(walls)},
        "passes": [{k: v for k, v in p.items() if k != "procs"} for p in all_checked],
        "metrics": metrics,
    }
    (workdir / "result.json").write_text(json.dumps(detail, indent=1, default=str))

    q1, q2, q3 = quartiles(walls)
    print(f"workload {args.workload}: {len(walls)} untraced passes, unscaled wall seconds "
          f"median {q2:.4f} (quartiles {q1:.4f}, {q3:.4f}); "
          f"{failed} of {attempted} operations failed")
    for problem in problems:
        print(f"problem: {problem}")
    print("env " + json.dumps(env))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units.get(k, "")} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
