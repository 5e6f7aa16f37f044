"""One process of a benchmark pass: ``prk run`` with counters or spans.

Usage (from the checkout root, with ``src`` on ``PYTHONPATH``):

    python3 perfbench/child.py MODE SPAWN_T SIDECAR -- run EXPERIMENT ...

MODE is ``count`` (work counters only; the timed passes), ``trace``
(counters plus a span around every call into a package layer) or
``setup`` (exit at the first integration or W solve, to time set-up).
SPAWN_T is the parent's ``time.perf_counter()`` when it started this
process; both read the same monotonic clock.  Counters go to SIDECAR as
JSON, spans to the same path with ``.npz`` in place of ``.json``.

In every mode a fixed calibration kernel runs every 0.1 s of wall time
in this process, so the parent can rescale the measured times to a
reference speed of the machine (see ``Calibrator``).  When tracing, its
intervals are saved with the spans and taken out of the self times.

Every wrapper is installed from here, on the name the package looks up
(``prk.harness.integrate``, ``prk.spatial.interface_states``, ...);
nothing inside ``src/prk`` changes.
"""

from __future__ import annotations

import functools
import json
import os
import signal
import sys
from collections import Counter
from time import perf_counter


class Calibrator:
    """Times a fixed kernel of about 1 ms every 0.1 s, on the process's own CPU.

    The speed of a virtual CPU can swing by 2x within seconds when other
    tenants load the host.  The kernel (small-array numpy arithmetic plus
    an interpreted loop, the same mix as the package) runs between the
    program's own bytecodes, so its mean time tracks the machine speed the
    program saw over exactly the same interval.  It adds about 1% of work.
    """

    INTERVAL_S = 0.1

    def __init__(self):
        import numpy as np

        self.x = np.linspace(0.0, 1.0, 1006)
        self.intervals: list[tuple[float, float]] = []

    def kernel(self, *_signal_args) -> None:
        a, b, c = self.x[:-2], self.x[1:-1], self.x[2:]
        t0 = perf_counter()
        for _ in range(40):
            13.0 / 12.0 * (a - 2.0 * b + c) ** 2 + 0.25 * (a - 4.0 * b + 3.0 * c) ** 2
            acc = 0.0
            for k in range(30):
                acc += k
        self.intervals.append((t0, perf_counter()))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.kernel)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)


class Recorder:
    """Counters for every pass and, when tracing, one span per wrapped call.

    A span is (name, start, end, parent); the parent is the span open
    when the call began, so self times follow by subtraction.
    """

    def __init__(self, mode: str, sidecar: str, spawn_t: float):
        self.mode = mode
        self.trace = mode == "trace"
        self.calibrator = Calibrator()
        self.sidecar = sidecar
        self.spawn_t = spawn_t
        self.main_start = spawn_t
        self.counts: Counter = Counter()
        self.first_heavy: float | None = None
        self.names: list[str] = []
        self.span_name: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self.stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def parent_name(self) -> str | None:
        return self.names[self.span_name[self.stack[-1]]] if self.stack else None

    def wrap(self, name, fn, after=None, before=None):
        """Wrap ``fn``: a span when tracing, the hooks in every mode.

        ``before(args, kwargs)`` returns a token that is handed to
        ``after(token, args, kwargs, result)``.  Without hooks and without
        tracing ``fn`` comes back unwrapped.
        """
        if not (self.trace or before or after):
            return fn
        nid = self.name_id(name)
        trace = self.trace

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            token = before(args, kwargs) if before else None
            if trace:
                idx = len(self.span_start)
                self.span_name.append(nid)
                self.span_parent.append(self.stack[-1] if self.stack else -1)
                self.span_end.append(0.0)
                self.stack.append(idx)
                self.span_start.append(perf_counter())
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self.span_end[idx] = perf_counter()
                    self.stack.pop()
            else:
                out = fn(*args, **kwargs)
            if after:
                after(token, args, kwargs, out)
            return out

        return wrapped

    def heavy(self) -> None:
        """Mark the first integration, reference run or W solve: set-up ends."""
        if self.first_heavy is None:
            self.first_heavy = perf_counter()
            if self.mode == "setup":
                self.calibrator.stop()
                self.dump()
                os._exit(0)

    def dump(self) -> None:
        cal = self.calibrator.intervals
        with open(self.sidecar, "w") as fh:
            json.dump({"first_heavy": self.first_heavy, "counts": self.counts,
                       "calibration": [len(cal), sum(t1 - t0 for t0, t1 in cal)]}, fh)
        if not self.trace:
            return
        import numpy as np

        # the interval before the package could be wrapped: interpreter
        # start, imports and installing the wrappers
        self.span_name.append(self.name_id("startup.interpreter_imports"))
        self.span_parent.append(-1)
        self.span_start.append(self.spawn_t)
        self.span_end.append(self.main_start)
        np.savez(self.sidecar[: -len(".json")] + ".npz",
                 name=np.array(self.span_name, dtype=np.int64),
                 start=np.array(self.span_start),
                 end=np.array(self.span_end),
                 parent=np.array(self.span_parent, dtype=np.int64),
                 names=np.array(self.names),
                 calibration=np.array(cal).reshape(-1, 2))


def install(rec: Recorder):
    """Install every wrapper; returns the command-line entry point to call."""
    import numpy as np

    import prk.analysis
    import prk.cli
    import prk.decomposition as dec
    import prk.harness
    import prk.spatial
    import prk.stepper

    cnt = rec.counts

    # -- spatial: problem builders, and rhs/flux of every problem built --
    def count_eval(key, weight):
        def after(_token, _args, _kwargs, _out):
            cnt[key] += 1
            cnt["work.full_evals"] += weight
        return after

    def wrap_problem(_token, _args, _kwargs, problem):
        problem.rhs = rec.wrap("spatial.rhs", problem.rhs,
                               after=count_eval("spatial.rhs_calls", 1.0))
        if isinstance(problem.flux, tuple):
            # a full 2D flux evaluation is the x-faces plus the y-faces
            problem.flux = tuple(
                rec.wrap("spatial.flux", f, after=count_eval("spatial.flux_calls", 0.5))
                for f in problem.flux)
        elif problem.flux is not None:
            problem.flux = rec.wrap("spatial.flux", problem.flux,
                                    after=count_eval("spatial.flux_calls", 1.0))

    for name in ("advection1d_weno5", "burgers_llf", "advection2d", "upwind1d"):
        setattr(prk.harness, name,
                rec.wrap("spatial.build", getattr(prk.harness, name), after=wrap_problem))
    prk.harness.norms = rec.wrap("spatial.norms", prk.harness.norms)

    # -- weno: the kernels spatial calls, on the names spatial looks up --
    def count_edges(edges_of):
        def after(_token, _args, _kwargs, out):
            cnt["weno.calls"] += 1
            cnt["weno.edges"] += edges_of(out)
        return after

    weno_edges = {
        "pad_periodic": lambda out: 0,
        "edge_from_left": lambda out: out.size,
        "interface_states": lambda out: out[0].size + out[1].size,
        # one left- and one right-biased reconstruction per interface
        "llf_split_flux": lambda out: 2 * out.size,
    }
    if rec.trace:
        for name, edges_of in weno_edges.items():
            setattr(prk.spatial, name, rec.wrap(
                f"weno.{name}", getattr(prk.spatial, name), after=count_edges(edges_of)))

    # -- stepper: the first integration or reference run ends set-up --
    def integrate_before(args, kwargs):
        rec.heavy()
        run = args[0] if args else kwargs["run"]
        return cnt["work.full_evals"], run.tableau.name

    def add_steps(scheme, steps):
        cnt[f"work.{scheme}.steps"] += steps
        cnt["stepper.steps"] += steps

    def integrate_after(token, _args, _kwargs, result):
        evals0, scheme = token
        cnt[f"work.{scheme}.full_evals"] += cnt["work.full_evals"] - evals0
        add_steps(scheme, result.n_steps)

    integrate_hooked = rec.wrap("stepper.integrate", prk.harness.integrate,
                                before=integrate_before, after=integrate_after)

    @functools.wraps(prk.harness.integrate)
    def integrate(*args, **kwargs):
        evals0 = cnt["work.full_evals"]
        try:
            return integrate_hooked(*args, **kwargs)
        except prk.stepper.IntegrationDiverged as exc:
            # the diverging step ran all its stages before the state check
            scheme = (args[0] if args else kwargs["run"]).tableau.name
            cnt[f"work.{scheme}.full_evals"] += cnt["work.full_evals"] - evals0
            add_steps(scheme, exc.step)
            raise

    prk.harness.integrate = integrate

    def ref_before(_args, _kwargs):
        rec.heavy()
        return cnt["spatial.rhs_calls"]

    def ref_after(rhs0, _args, _kwargs, _out):
        cnt["stepper.ref_rhs_calls"] += cnt["spatial.rhs_calls"] - rhs0

    prk.harness.reference_integrate = rec.wrap(
        "stepper.reference_integrate", prk.harness.reference_integrate,
        before=ref_before, after=ref_after)
    prk.stepper.prk_step = rec.wrap("stepper.prk_step", prk.stepper.prk_step)

    # -- analysis; a W solve also ends set-up --
    def solve_after(_token, _args, _kwargs, result):
        cnt["analysis.solve_W_calls"] += 1
        cnt["analysis.cond_flagged"] += int(result.cond_rTe > prk.analysis.COND_LIMIT)

    def build_after(_token, _args, _kwargs, ops):
        cnt["analysis.build_ops_calls"] += 1
        # bytes of the dense operators returned, computed from their sizes
        cnt["analysis.matrix_bytes_computed"] += (
            sum(a.nbytes for a in ops.r_blocks) + ops.R.nbytes
            + sum(a.nbytes for a in ops.d.values()))

    prk.harness.solve_W = rec.wrap("analysis.solve_W", prk.harness.solve_W,
                                   before=lambda _a, _k: rec.heavy(), after=solve_after)
    prk.harness.stability_check = rec.wrap("analysis.stability_check",
                                           prk.harness.stability_check)
    if rec.trace:
        prk.analysis.build_error_operators = rec.wrap(
            "analysis.build_error_operators", prk.analysis.build_error_operators,
            after=build_after)
        split_cls = prk.analysis.LinearSplitting
        split_cls.cell_based = classmethod(
            rec.wrap("analysis.cell_based", split_cls.cell_based.__func__))

    # -- tableau --
    prk.harness.builtin_tableau = rec.wrap("tableau.builtin_tableau",
                                           prk.harness.builtin_tableau)
    for name in ("stage_order", "classical_order"):
        setattr(prk.analysis, name, rec.wrap(f"tableau.{name}", getattr(prk.analysis, name)))

    # -- decomposition: eval_parts of every split class, begin_step --
    def count_parts(kind, masks_of):
        """Values computed (cells or faces) and values the masks keep."""
        def after(_token, args, kwargs, _out):
            # eval_parts(self, t, v, needed=None)
            split, v = args[0], args[2]
            needed = args[3] if len(args) > 3 else kwargs.get("needed")
            if needed is not None and not any(needed):
                return
            cnt[f"decomposition.{kind}.eval_parts_calls"] += 1
            groups = masks_of(split)
            if groups is None:  # trivial split: one region, everything kept
                cnt[f"decomposition.{kind}.face_evals"] += v.size
                cnt[f"decomposition.{kind}.kept"] += v.size
                return
            use = needed if needed is not None else [True] * split.r
            cnt[f"decomposition.{kind}.face_evals"] += sum(g[0].size for g in groups)
            cnt[f"decomposition.{kind}.kept"] += sum(
                int(np.count_nonzero(mk)) for g in groups for mk, u in zip(g, use) if u)
        return after

    splits = {
        # a trivial split is booked as a one-region cell split
        dec.CellSplitParts: ("cell", lambda s: (s.partition.masks,)),
        dec.TrivialParts: ("cell", lambda s: None),
        dec.FluxSplitParts: ("flux", lambda s: (s.partition.masks,)),
        dec.FluxSplit2DParts: ("flux", lambda s: (s.partition.xmasks, s.partition.ymasks)),
        dec.DynamicCellSplit: ("dynamic", lambda s: (s.partition.masks,)),
    }
    if rec.trace:
        for cls, (kind, masks_of) in splits.items():
            cls.eval_parts = rec.wrap(f"decomposition.{kind}.eval_parts", cls.eval_parts,
                                      after=count_parts(kind, masks_of))
        # a dynamic split evaluates through a fresh cell split each stage;
        # that inner call belongs to the dynamic kind and is counted once
        as_cell = dec.CellSplitParts.eval_parts
        as_inner = rec.wrap("decomposition.dynamic.inner", as_cell.__wrapped__)

        @functools.wraps(as_cell)
        def cell_eval_parts(*args, **kwargs):
            if rec.parent_name() == "decomposition.dynamic.eval_parts":
                return as_inner(*args, **kwargs)
            return as_cell(*args, **kwargs)

        dec.CellSplitParts.eval_parts = cell_eval_parts

        def begin_after(_token, _args, _kwargs, _out):
            cnt["decomposition.begin_step_calls"] += 1

        dec.DynamicCellSplit.begin_step = rec.wrap(
            "decomposition.begin_step", dec.DynamicCellSplit.begin_step, after=begin_after)

    # -- harness experiments (cli shares the EXPERIMENTS dict) and the cli --
    for name, fn in list(prk.harness.EXPERIMENTS.items()):
        prk.harness.EXPERIMENTS[name] = rec.wrap(f"harness.{name}", fn)
    return rec.wrap("cli.main", prk.cli.main)


if __name__ == "__main__":
    if len(sys.argv) < 6 or sys.argv[4] != "--":
        sys.exit("usage: child.py MODE SPAWN_T SIDECAR -- PRK_ARGS...")
    recorder = Recorder(sys.argv[1], sys.argv[3], float(sys.argv[2]))
    recorder.calibrator.start()
    main = install(recorder)
    recorder.main_start = perf_counter()
    try:
        main(args=sys.argv[5:], prog_name="prk")
    finally:
        recorder.calibrator.stop()
        recorder.dump()
