"""Store the expected outputs the benchmark checks every pass against.

    python3 perfbench/record_expected.py

Runs each experiment of every workload once through ``prk run`` in its
canonical form (default scheme order; adv2d at all eight default
Courant numbers, so that the pair any seed picks can be checked) and
writes the CSV report and the check labels to ``perfbench/expected``.
Run it only at the commit whose output the benchmark should hold later
commits to; the stored files come from the seed commit.
"""

from __future__ import annotations

import subprocess
import sys
import tempfile
from pathlib import Path

from run import EXPECTED, OUT, ROOT, SRC, WORKLOADS, parse_checks, workload_jobs


def main() -> int:
    EXPECTED.mkdir(exist_ok=True)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        for workload in WORKLOADS:
            for job in workload_jobs(workload, None):
                cfg = Path(tmp) / f"{job.experiment}.cfg"
                cfg.write_text("".join(f"{k}={v}\n" for k, v in job.config.items()))
                done = subprocess.run(
                    [sys.executable, "-m", "prk.cli", "run", job.experiment,
                     "--config", str(cfg), "--out", tmp],
                    capture_output=True, text=True, cwd=ROOT, env={"PYTHONPATH": str(SRC)})
                print(done.stdout, end="")
                if done.returncode != 0:
                    print(done.stderr, file=sys.stderr)
                    return 1
                csv = (Path(tmp) / f"{job.experiment}.csv").read_text()
                (EXPECTED / f"{job.experiment}.csv").write_text(csv)
                labels = parse_checks(done.stdout)
                (EXPECTED / f"{job.experiment}.checks").write_text(
                    "".join(f"{label}\n" for label in labels))
    return 0


if __name__ == "__main__":
    sys.exit(main())
