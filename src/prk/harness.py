"""Experiment driver: convergence tables, error profiles, shock tracking,
W-norm sweeps and the 2D rotation study, all emitted as CSV reports.

Each experiment is one :class:`Experiment` record in ``EXPERIMENTS``, and
:func:`run_experiment` runs any of them.  Every experiment is
deterministic; rerunning produces byte-identical CSV.
"""

from __future__ import annotations

import functools
import io
import math
import numbers
import operator
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .analysis import LinearSplitting, solve_W, stability_check
from .decomposition import (
    CellPartition,
    CellSplitParts,
    DynamicCellSplit,
    FluxPartition,
    FluxSplit2DParts,
    FluxSplitParts,
    PartitionSpec,
    TrivialParts,
    mass,
)
from .spatial import advection1d_weno5, advection2d, burgers_llf, norms, upwind1d
# reference_integrate is not called here; perfbench/child.py wraps it by name
from .stepper import (
    IntegrationDiverged,
    IntegrationRun,
    forked_references,
    integrate,
    reference_integrate,
    whole_steps,
)
from .tableau import builtin_names, builtin_tableau

__all__ = [
    "BadArgument",
    "Check",
    "ExperimentReport",
    "estimate_order",
    "shock_position",
    "Problem",
    "PROBLEMS",
    "MAX_STEPS",
    "MAX_CELLS",
    "MAX_BUILD_BYTES",
    "MAX_ANALYSIS_BYTES",
    "check_schemes",
    "courant_step",
    "parse_partition",
    "make_parts",
    "run_case",
    "Experiment",
    "run_experiment",
    "EXPERIMENTS",
]


@dataclass(frozen=True)
class Problem:
    """A problem of the standard runs: its builder on ``m`` cells (per
    direction in 2D), the final time and partition spec of its standard runs,
    the grid's dimension, the Courant step ``nu h / max|a|`` (h = 1/m) in
    the floating-point form its runs take, and the bytes per cell its build
    holds at its peak, a little above what ``tracemalloc`` measures."""

    build: Callable
    t_end: float
    partition: str
    ndim: int
    courant: Callable
    build_bytes: int

    def check_cells(self, key: str, value, m: int, where: str = "") -> None:
        """Refuse ``key=value`` if ``m`` cells a direction exceed ``MAX_CELLS``,
        or their build ``MAX_BUILD_BYTES``."""
        cells = m ** self.ndim
        _require(cells <= MAX_CELLS, key, value,
                 f"at most {MAX_CELLS} cells{where}, not {cells:.3g}")
        _require(cells * self.build_bytes <= MAX_BUILD_BYTES, key, value,
                 f"at most {MAX_BUILD_BYTES} bytes to build{where}, "
                 f"not {cells * self.build_bytes:.3g}")


# read by the experiments and by ``prk integrate``; each builder looks its
# function up among this module's globals at call time, where perfbench and
# the tests replace it.  The build bytes per cell bound tracemalloc peaks of
# about 64 (adv1d), 57 (burgers) and 108 (adv2d at n = 200); adv2d keeps
# the 184 of its former index plan, so it refuses the same sizes.
PROBLEMS = {
    "adv1d": Problem(lambda m: advection1d_weno5(m), 1.0,
                     "refined:(x>=0.125)&(x<=0.375)|(x>=0.625)&(x<=0.875)", 1,
                     lambda nu, m: nu / m, 72),
    "burgers": Problem(lambda m: burgers_llf(m), 0.5, "dynamic:burgers:threshold=0.125", 1,
                       lambda nu, m: nu / m, 72),
    "adv2d": Problem(lambda m: advection2d(m), 1.0 / 3.0, "coarse:abs(x-0.5)+abs(y-0.5)<=1/3",
                     2, lambda nu, m: nu * (1.0 / m) / (2.0 * np.pi), 184),
}

# the most steps one run may take; the largest standard run takes 2,000
MAX_STEPS = 10**7

# the most cells one problem may have, checked before it is built: 80 MB a
# state, where the largest standard run has 40,000 cells (adv2d at n = 200)
MAX_CELLS = 10**7

# the most bytes one problem's build may hold at its peak, checked before it
# is built after MAX_CELLS: it binds only in 2D, at n > 2415 for adv2d
MAX_BUILD_BYTES = 2**30

# the most bytes one (m, nu) point of the W study may hold, budgeted as ten dense
# m x m float64 arrays; a point holds five at its peak (by tracemalloc): its two
# Z_k, the [(r^T e)^{-1} | W] of one solve and one |.| for a norm, 16 MB at the
# default largest m = 640
MAX_ANALYSIS_BYTES = 2**30

# published reference values (max norm, L1) per scheme and resolution
TABLE1_ERRORS = {
    "CS2": {
        100: (8.22e-4, 2.85e-4), 200: (2.75e-4, 7.81e-5),
        400: (1.46e-4, 2.09e-5), 800: (8.37e-5, 5.73e-6),
    },
    "TW2": {
        100: (3.12e-4, 1.98e-4), 200: (8.04e-5, 5.12e-5),
        400: (2.02e-5, 1.28e-5), 800: (5.05e-6, 3.21e-6),
    },
    "SH2": {
        100: (3.13e-4, 1.99e-4), 200: (8.06e-5, 5.13e-5),
        400: (2.02e-5, 1.28e-5), 800: (5.05e-6, 3.21e-6),
    },
}
TABLE1_ORDERS = {"CS2": (1, 2), "TW2": (2, 2), "SH2": (2, 2)}

TABLE2_ERRORS = {
    "CS2": {
        100: (3.98e-2, 4.43e-3), 200: (3.65e-2, 1.48e-3),
        400: (3.54e-2, 5.12e-4), 800: (3.52e-2, 2.09e-4),
    },
    "TW2": {
        100: (8.20e-4, 2.45e-4), 200: (4.20e-4, 6.57e-5),
        400: (2.45e-4, 1.80e-5), 800: (1.31e-4, 5.08e-6),
    },
    "SH2": {
        100: (3.73e-4, 2.07e-4), 200: (1.30e-4, 5.29e-5),
        400: (6.69e-5, 1.36e-5), 800: (3.77e-5, 3.49e-6),
    },
}
TABLE2_ORDERS = {"CS2": (0, 1), "TW2": (1, 2), "SH2": (1, 2)}


@dataclass(frozen=True)
class Check:
    label: str
    ok: bool
    detail: str = ""


@dataclass
class ExperimentReport:
    """Rows plus metadata plus the experiment's built-in assertions."""

    name: str
    columns: list[str]
    rows: list[dict] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)
    checks: list[Check] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def add(self, **row) -> None:
        self.rows.append(row)

    def check(self, label: str, ok: bool, detail: str = "") -> None:
        self.checks.append(Check(label, bool(ok), detail))

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(f"# experiment = {self.name}\n")
        for key, val in self.metadata.items():
            buf.write(f"# {key} = {_fmt(val)}\n")
        buf.write(",".join(self.columns) + "\n")
        for row in self.rows:
            buf.write(",".join(_fmt(row.get(c, "")) for c in self.columns) + "\n")
        return buf.getvalue()

    def write(self, outdir) -> Path:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        path = outdir / f"{self.name}.csv"
        path.write_text(self.to_csv())
        return path

    def summary(self) -> str:
        lines = [f"{self.name}: {len(self.rows)} rows"]
        for c in self.checks:
            mark = "PASS" if c.ok else "FAIL"
            lines.append(f"  [{mark}] {c.label}" + (f"  ({c.detail})" if c.detail else ""))
        return "\n".join(lines)


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (tuple, list)):
        return " ".join(_fmt(v) for v in x)
    return str(x)


def estimate_order(errors) -> float:
    """Convergence order from an error-versus-resolution table.

    ``errors`` maps resolution to error.  Returns the least-squares slope
    of ``-log2(error)`` against ``log2(resolution)``, or 0 when an error
    is not positive.
    """
    items = sorted(errors.items())
    if len(items) < 2:
        raise ValueError("order estimation needs at least two resolutions")
    ms = np.array([m for m, _ in items], dtype=float)
    es = np.array([e for _, e in items], dtype=float)
    if np.any(es <= 0):
        return 0.0
    return float(-np.polyfit(np.log2(ms), np.log2(es), 1)[0])


def shock_position(x: np.ndarray, u: np.ndarray) -> float:
    """Downward crossing of the level 1/2, linearly interpolated."""
    down = np.where((u[:-1] >= 0.5) & (u[1:] < 0.5))[0]
    if down.size == 0:
        raise ValueError("no downward crossing found")
    i = int(down[-1])
    return float(x[i] + (u[i] - 0.5) * (x[i + 1] - x[i]) / (u[i] - u[i + 1]))


class BadArgument(ValueError):
    """An experiment argument the run cannot use, found before it starts."""


def _require(ok: bool, key: str, value, need: str) -> None:
    if not ok:
        raise BadArgument(f"bad value {key}={value!r}: need {need}")


def check_schemes(schemes) -> tuple[str, ...]:
    """The canonical names of the builtin ``schemes`` of a run, found by
    :func:`~prk.tableau.builtin_tableau`.  Every experiment and partition spec
    splits a problem into two regions, one part each; an unknown or repeated
    scheme, or one with another part count, raises :class:`BadArgument`; so
    does an empty or blank entry, before any name is looked up."""
    for i, s in enumerate(map(str, schemes), 1):
        _require(bool(s.strip()), "schemes", schemes, f"a scheme name in entry {i}")
    tableaus, unknown = [], []
    for s in map(str, schemes):
        try:
            tableaus.append(builtin_tableau(s))
        except KeyError:
            unknown.append(s)
    if unknown:
        raise BadArgument(f"unknown scheme(s) {', '.join(unknown)}; "
                          f"choose from {', '.join(builtin_names())}")
    wrong = [t.name for t in tableaus if t.r != 2]
    if wrong:
        raise BadArgument(f"scheme(s) {', '.join(wrong)} do not take 2 parts, "
                          f"one per region of the partition")
    names = tuple(t.name for t in tableaus)
    _require(len(set(names)) == len(names), "schemes", schemes, "each scheme once")
    return names


def _is_real(v, kind=numbers.Real) -> bool:  # a flag is not a number
    return isinstance(v, kind) and not isinstance(v, bool)


def _check_cells(key: str, ms, least: int = 6) -> None:
    for m in ms:
        _require(_is_real(m, numbers.Integral) and m >= least, key, m,
                 f"a whole number of at least {least} cells")


def _check_positive(key: str, values) -> None:
    for v in values:
        _require(_is_real(v) and 0 < v < math.inf, key, v, "a positive number")


def _check_step_count(key: str, value, steps: float, where: str = "") -> None:
    _require(steps <= MAX_STEPS, key, value,
             f"at most {MAX_STEPS} steps{where}, not {steps:.3g}")


def courant_step(problem: str, m: int, nu: float, t_end: float,
                 key: str = "nu", where: str = "") -> tuple[float, int]:
    """``(dt, n_steps)`` for ``problem`` on ``m`` cells at Courant number
    ``nu``: the problem's Courant step (``Problem.courant``), shortened to end
    at ``t_end`` unless it already does in whole steps.  Bad ``m``, ``nu`` or
    ``t_end``, more than ``MAX_STEPS`` steps, or a step of 0, raise
    :class:`BadArgument`; the step count names ``key=nu`` and ``where``."""
    _check_cells("m", (m,))
    _check_positive(key, (nu,))
    _check_positive("t_end", (t_end,))
    dt = PROBLEMS[problem].courant(nu, m)
    _check_step_count(key, nu, t_end / dt if dt > 0.0 else math.inf, where)
    n_steps = whole_steps(dt, t_end) or max(1, math.ceil(t_end / dt))
    return t_end / n_steps, n_steps


# ----------------------------------------------------------------------
# one run path: parts from a partition spec, one integration
# ----------------------------------------------------------------------

def parse_partition(spec: str, kind: str, problem: str) -> PartitionSpec:
    """The :class:`~prk.decomposition.PartitionSpec` of a ``kind`` (``"cell"`` or
    ``"flux"``) split of ``problem``, checked before any grid exists, or :class:`BadArgument`."""
    _require(kind in ("cell", "flux"), "kind", kind, "cell or flux")
    try:
        parsed = PartitionSpec.parse(spec)
        if parsed.threshold is not None and kind != "cell":
            raise ValueError("dynamic partitions support cell splitting only")
        parsed.check_grid(PROBLEMS[problem].ndim, kind == "flux")
    except ValueError as exc:
        raise BadArgument(f"bad partition: {exc}") from None
    return parsed


def make_parts(problem, kind: str, spec: PartitionSpec):
    """The ``kind`` split of ``problem`` over ``spec`` as :func:`parse_partition`
    read it; a spec that does not fit the grid raises :class:`BadArgument`."""
    grid = problem.grid
    try:
        if spec.threshold is not None:
            return DynamicCellSplit(problem.flux, spec.threshold, grid)
        if kind == "cell":
            return CellSplitParts(problem.flux, spec.cells(grid), grid)
        if len(grid.centres) == 2:  # x- and y-faces
            return FluxSplit2DParts(problem.flux, spec.faces(grid))
        return FluxSplitParts(problem.flux, FluxPartition.from_cells(spec.cells(grid), grid))
    except ValueError as exc:
        raise BadArgument(f"bad partition: {exc}") from None


@dataclass
class CaseResult:
    u: np.ndarray
    mass_drift: float
    # norms of u minus the exact solution, None without one
    errors: dict | None


def run_case(problem, scheme: str, parts, dt: float, t_end: float) -> CaseResult:
    """Integrate ``problem`` from its initial state with ``scheme``.

    Measures the mass drift with the cell measures, from the initial and
    the final state (no per-step trace), and the final error against the
    exact solution, when the problem has one.  A divergence is raised again
    with the scheme and the cells a direction (``m``) in its message, its
    step and ``t`` kept.
    """
    weights = problem.grid.measure
    try:
        res = integrate(IntegrationRun(builtin_tableau(scheme), parts, dt=dt, t_end=t_end,
                                       u0=problem.initial))
    except IntegrationDiverged as exc:
        raise IntegrationDiverged(f"{scheme} at m={len(problem.initial)}: {exc}",
                                  exc.step, exc.t) from None
    errors = None if problem.exact is None else norms(res.u - problem.exact(t_end), weights)
    drift = abs(mass(weights, res.u) - mass(weights, problem.initial))
    return CaseResult(res.u, drift, errors)


# ----------------------------------------------------------------------
# the experiment record and its run loop
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Experiment:
    """One experiment as data: each scheme run over the resolutions of the
    ``grid`` key on ``problem``, and the rows and checks its runs give.
    Calling it with keyword overrides of ``keys`` runs it through
    :func:`run_experiment`."""

    name: str
    problem: str  # a key of PROBLEMS, or fig3's name for its grid
    # config key -> (type, default); the type is int, float (a real), str
    # (text) or bool (a flag), or a 1-tuple of one of them for a list
    keys: dict
    grid: str  # the resolution key; errors name a resolution by its first letter
    least: int  # the fewest cells of a resolution
    # --quick: (key, given value, resolutions) -> [(kept m, its name in errors)]
    quick: Callable
    columns: tuple
    metadata: Callable  # run values -> the report's header
    # (run values, m, its name in errors) -> the step, or one per Courant
    # number; None for fig3, which integrates nothing
    step: Callable | None = None
    kind: str | None = "cell"  # the split; None when the kind key sets it
    partition: Callable | None = None  # run values -> the spec, if not the problem's
    baseline: str | None = None  # the label of ETR2 runs, unsplit at half the step
    # (report, run values, label, [(m, problem, case), ...]): one scheme's
    # rows and checks, from the scheme loop
    rows: Callable | None = None
    loop: Callable | None = None  # (record, report, run values): a loop of its own

    def __call__(self, **overrides) -> ExperimentReport:
        return run_experiment(self, **overrides)

    def check_keys(self, keys) -> None:
        """Raise :class:`BadArgument` naming each of ``keys`` it does not take."""
        unknown = [key for key in keys if key not in self.keys]
        if unknown:
            raise BadArgument(f"unknown option(s) for {self.name}: {', '.join(unknown)}")


def run_experiment(exp: Experiment, **overrides) -> ExperimentReport:
    """Run ``exp`` with ``overrides`` of its config keys.  Every value, step
    and partition spec is checked before the first problem is built; a bad
    one raises :class:`BadArgument`."""
    exp.check_keys(overrides)
    p = {key: default for key, (_, default) in exp.keys.items()} | {
        key: _as_float(exp.keys[key][0], value) for key, value in overrides.items()}
    p["schemes"] = check_schemes(p["schemes"])
    listed = isinstance(exp.keys[exp.grid][0], tuple)
    given = p[exp.grid]
    ms = tuple(given) if listed else (given,)
    _check_cells(exp.grid, ms, exp.least)
    # an integration experiment keeps its steps and runs per resolution
    _require(exp.step is None or len(set(ms)) == len(ms), exp.grid, given,
             "distinct resolutions")
    grids = (exp.quick(exp.grid, given, ms) if p["quick"]
             else [(m, f" at {exp.grid[0]}={m}") for m in ms])
    if exp.step is not None:
        problem = PROBLEMS[exp.problem]
        p.update(T=problem.t_end, decomposition=exp.kind or p["kind"])
        p["steps"] = {m: exp.step(p, m, at) for m, at in grids}
        p["partition"] = exp.partition(p) if exp.partition else problem.partition
        p["spec"] = parse_partition(p["partition"], p["decomposition"], exp.problem)
        for m, at in grids:
            problem.check_cells(exp.grid, given, m, at)
    kept = tuple(m for m, _ in grids)
    p[exp.grid] = kept if listed else kept[0]
    report = ExperimentReport(exp.name, list(exp.columns), metadata=exp.metadata(p))
    (exp.loop or _scheme_loop)(exp, report, p)
    return report


def _as_float(kind, value):
    """A value of a real key, or of a list of reals, with each real read as
    a float, as the command line reads it; any other value, a flag
    included, as given, for the checks to refuse."""
    if kind == (float,) and isinstance(value, (tuple, list)):
        return type(value)(_as_float(float, v) for v in value)
    return float(value) if kind is float and _is_real(value) else value


def _scheme_loop(exp: Experiment, report: ExperimentReport, p: dict) -> None:
    """Each scheme, then the baseline unless ``include_reference`` is false,
    on every resolution: one problem built and one run each."""
    build = PROBLEMS[exp.problem].build
    baseline = (exp.baseline,) if exp.baseline and p.get("include_reference", True) else ()
    for label in p["schemes"] + baseline:
        runs = []
        for m, dt in p["steps"].items():
            problem = build(m)
            parts = make_parts(problem, p["decomposition"], p["spec"])
            runs.append((m, problem, _run(exp, p, problem, label, parts, dt)))
        exp.rows(report, p, label, runs)


def _run(exp: Experiment, p: dict, problem, label: str, parts, dt: float) -> CaseResult:
    """One run of scheme ``label`` on ``parts``; the baseline runs ETR2 on
    the unsplit problem at half the step."""
    if label == exp.baseline:
        return run_case(problem, "ETR2", TrivialParts(problem.flux, problem.grid), 0.5 * dt,
                        p["T"])
    return run_case(problem, label, parts, dt, p["T"])


def _keep_half(key: str, value, ms) -> list:
    """--quick keeps the resolutions at most half the largest."""
    kept = [m for m in ms if m <= max(ms) // 2]
    _require(bool(kept), key, value, "a resolution at most half the largest, for --quick")
    return [(m, f" at {key[0]}={m}") for m in kept]


def _halve(least: int, key: str, value, ms) -> list:
    """--quick halves each resolution and keeps the distinct halves of at
    least ``least`` cells."""
    kept = [m for m in ms if m // 2 >= least]
    _require(bool(kept), key, value,
             f"a resolution of at least {2 * least} cells, for --quick")
    _require(len({m // 2 for m in kept}) == len(kept), key, value,
             "distinct halves, for --quick")
    c = key[0]
    return [(m // 2, f" at {c}={m // 2}, half the given {c}={m} for --quick") for m in kept]


def _keys(schemes, **keys) -> dict:
    """The config keys of an experiment: its ``schemes`` by default, its own
    ``keys`` and the ``quick`` flag."""
    return {"schemes": ((str,), schemes), **keys, "quick": (bool, False)}


# ----------------------------------------------------------------------
# 1D smooth advection tables
# ----------------------------------------------------------------------

def _unit_step(p: dict, m: int, at: str) -> float:
    """The step ``nu/m`` of the 1D advection runs, a whole number of which
    must end at ``T``."""
    nu, t_end = p["nu"], p["T"]
    _check_positive("nu", (nu,))
    _check_step_count("nu", nu, t_end * m / nu, at)
    _require(whole_steps(nu / m, t_end), "nu", nu, f"m/nu to be a whole number of steps{at}")
    return nu / m


def _table_rows(reference_errors, reference_orders, report, p, scheme, runs) -> None:
    kind, errs_linf, errs_l1, prev = p["decomposition"], {}, {}, None
    for m, _, case in runs:
        linf, l1, drift = case.errors["linf"], case.errors["l1"], case.mass_drift
        errs_linf[m], errs_l1[m] = linf, l1
        row = {
            "scheme": scheme, "decomposition": kind, "m": m, "nu": p["nu"],
            "err_linf": linf, "err_l1": l1, "order_linf": "",
            "order_l1": "", "mass_drift": drift,
        }
        if prev is not None:
            pm, plinf, pl1 = prev
            span = np.log2(m / pm)
            row["order_linf"] = float(np.log2(plinf / linf) / span)
            row["order_l1"] = float(np.log2(pl1 / l1) / span)
        prev = (m, linf, l1)
        report.add(**row)
        if kind == "flux":
            rel = drift / 0.5
            report.check(
                f"{scheme} m={m} flux mass drift <= 1e-10 relative",
                rel <= 1e-10,
                f"drift {rel:.2e}",
            )
        ref = reference_errors.get(scheme, {}).get(m)
        if ref is not None:
            ok = 0.5 <= linf / ref[0] <= 2.0 and 0.5 <= l1 / ref[1] <= 2.0
            report.check(
                f"{scheme} m={m} errors within factor 2 of published",
                ok,
                f"linf ratio {linf / ref[0]:.2f}, l1 ratio {l1 / ref[1]:.2f}",
            )
    # the published orders are asymptotic over the published
    # resolutions (the first doubling interval alone rounds high);
    # runs covering fewer than three of them skip the check
    published = [m for m in errs_linf if m in reference_errors.get(scheme, {})]
    if scheme in reference_orders and len(published) >= 3:
        slope_inf = estimate_order({m: errs_linf[m] for m in published})
        slope_l1 = estimate_order({m: errs_l1[m] for m in published})
        want = reference_orders[scheme]
        got = (round(slope_inf), round(slope_l1))
        report.check(
            f"{scheme} rounded orders (max, L1) = {want}",
            got == want,
            f"slopes ({slope_inf:.2f}, {slope_l1:.2f})",
        )


def _table(name: str, kind: str, reference_errors, reference_orders) -> Experiment:
    """Smooth-advection convergence on a ``kind`` split."""
    return Experiment(
        name, "adv1d",
        _keys(("CS2", "TW2", "SH2"), ms=((int,), (100, 200, 400, 800)), nu=(float, 0.5)),
        grid="ms", least=6, quick=_keep_half, step=_unit_step, kind=kind,
        columns=("scheme", "decomposition", "m", "nu", "err_linf", "err_l1",
                 "order_linf", "order_l1", "mass_drift"),
        metadata=lambda p: {"problem": "adv1d", "T": p["T"], "nu": p["nu"],
                            "partition": "x in [1/8,3/8] u [5/8,7/8]", "decomposition": kind},
        rows=functools.partial(_table_rows, reference_errors, reference_orders))


# ----------------------------------------------------------------------
# pointwise error profile
# ----------------------------------------------------------------------

def _profile_rows(report, p, scheme, runs) -> None:
    """Error versus position at the final time of the smooth test."""
    ((m, problem, case),) = runs
    x = problem.grid.x
    err = case.u - problem.exact(p["T"])
    for xj, ej in zip(x, err):
        report.add(scheme=scheme, x=float(xj), error=float(ej))
    abs_err = np.abs(err)
    if scheme == "CS2":
        # the cell edges where the partition switches region
        refined = p["spec"].cells(problem.grid).masks[1]
        interface_points = problem.grid.edges[1:-1][refined[1:] != refined[:-1]]
        worst = np.argsort(abs_err)[-4:]
        dist = [
            float(min(abs(x[j] - q) for q in interface_points) * m)
            for j in worst
        ]
        report.check(
            "CS2 four largest errors within 5 cells of an interface",
            max(dist) <= 5.0,
            f"cell distances {sorted(round(d, 1) for d in dist)}",
        )
    if scheme == "TW2":
        ratio = abs_err.max() / np.median(abs_err)
        report.check(
            "TW2 profile has no interface spike above 3x median",
            ratio <= 3.0,
            f"max/median {ratio:.2f}",
        )


# ----------------------------------------------------------------------
# Burgers shock tracking
# ----------------------------------------------------------------------

def _shock_step(p: dict, m: int, at: str) -> float:
    """The step 1/m of the schemes, a whole number of which must end at
    ``T``; the single-rate run takes twice as many steps of 1/(2m)."""
    t_end = p["T"]
    _check_step_count("m", p["m"], t_end * m * (2 if p["include_reference"] else 1))
    _require(whole_steps(1.0 / m, t_end), "m", p["m"],
             f"a whole number of steps of 1/m to T={t_end}{at}")
    return 1.0 / m


def _shock_rows(report, p, label, runs) -> None:
    """Shock location at T = 1/2 on the dynamic (shock-tracking) partition."""
    ((m, problem, case),) = runs
    pos = shock_position(problem.grid.x, case.u)
    cells = abs(pos - 0.75) * m
    report.add(scheme=label, m=m, shock_position=pos, displacement_cells=cells,
               mass_drift=case.mass_drift)
    if label == "single-rate":
        report.check("single-rate shock within 3 cells of x = 3/4",
                     cells <= 3.0, f"{cells:.1f} cells")
    elif label == "CS2":
        report.check("CS2 shock within 5 cells of x = 3/4", cells <= 5.0,
                     f"{cells:.1f} cells")
    else:
        # non-conservative schemes drift by an m-independent distance;
        # 0.005 is ten cells at the reference resolution m = 2000
        off = cells / m
        report.check(f"{label} shock displaced by >= 0.005",
                     off >= 0.005, f"{off:.4f} ({cells:.1f} cells)")


# ----------------------------------------------------------------------
# W-norm study
# ----------------------------------------------------------------------

def _wnorm_splitting(m: int, nu: float):
    """The splitting and partition of one (m, nu) point of the W study.

    Upwind inflow advection on the two-block nonuniform grid: the middle
    half of the indices is refined with half the cell width, coarse width
    ``h = 4/(3m)``, time step ``nu * h``.  ``Z_k = nu h I_k L`` is read off
    the cell split the stepper runs, into bands alone.
    """
    h = 4.0 / (3.0 * m)
    refined = np.zeros(m, dtype=bool)
    refined[m // 4 : (3 * m) // 4] = True
    dx = np.where(refined, 0.5 * h, h)
    part = CellPartition.two_region(refined)
    split = CellSplitParts(upwind1d(dx=dx, boundary="inflow").rhs, part)
    return LinearSplitting.probed(split, m, nu * h), part


def _wnorm_loop(exp: Experiment, report: ExperimentReport, p: dict) -> None:
    """Norm of W versus resolution for several Courant numbers.  It runs no
    integration, so it has a loop of its own: each distinct (m, nu) builds
    one splitting and one stability report for all schemes."""
    schemes, ms, nus = p["schemes"], p["ms"], p["nus"]
    for m in ms:  # ten m x m float64 arrays budgeted; a point holds W and row blocks
        _require(80 * m * m <= MAX_ANALYSIS_BYTES, "ms", m, f"at most {MAX_ANALYSIS_BYTES} "
                 f"bytes of dense analysis matrices, not {80 * m * m:.3g}")
    _check_positive("nus", nus)
    solved, stable = {}, {}
    w_scalars = operator.attrgetter("norm_w", "cond_rTe")  # keep these, not W
    for nu in nus:
        for m in ms:
            if (nu, m) not in stable:
                ls, part = _wnorm_splitting(m, nu)
                for scheme in schemes:
                    solved[scheme, nu, m] = w_scalars(solve_W(builtin_tableau(scheme), ls, part))
                stable[nu, m] = stability_check(ls)
    for scheme in schemes:
        for nu in nus:
            for m in ms:
                (norm_w, cond), stab = solved[scheme, nu, m], stable[nu, m]
                report.add(scheme=scheme, m=m, nu=nu, norm_W=norm_w,
                           cond_rTe=cond, stab1=stab.stab1, stab2=stab.stab2)
    if "TW2" not in schemes:
        return
    for nu, lo, hi in ((0.5, 0.0, 1.2), (1.0, 1.6, 2.4)):
        vals = {m: solved["TW2", nu, m][0] for m in ms if ("TW2", nu, m) in solved}
        pairs = [
            (m, 2 * m) for m in vals if 2 * m in vals and m >= 80
        ]
        ratios = [vals[m2] / vals[m1] for m1, m2 in pairs]
        if not ratios:
            continue
        ok = all(lo <= r <= hi for r in ratios)
        report.check(
            f"TW2 nu={nu} doubling ratios in [{lo}, {hi}] for m >= 80",
            ok,
            "ratios " + " ".join(f"{r:.2f}" for r in ratios),
        )


# ----------------------------------------------------------------------
# 2D rotation study
# ----------------------------------------------------------------------

def _adv2d_loop(exp: Experiment, report: ExperimentReport, p: dict) -> None:
    """Rotating-profile errors against the temporally exact semi-discrete
    solution, with the global half-step trapezoidal run as baseline.  It has
    a loop of its own: each n's problem and split serve every scheme and
    Courant number, its reference runs in a forked worker meanwhile, and a
    diverged run gives a row."""
    ns, nus, schemes, kind = p["ns"], p["nus"], p["schemes"], p["decomposition"]
    _check_positive("reference_tol", (p["reference_tol"],))
    tol = max(p["reference_tol"], 1e-9) if p["quick"] else p["reference_tol"]
    errs: dict[tuple[str, float, int], float] = {}
    problems = [PROBLEMS["adv2d"].build(n) for n in ns]
    # each reference runs in a worker while the schemes at its n run here
    with forked_references(problems, p["T"], tol=tol) as references:
        for (n, steps), problem in zip(p["steps"].items(), problems):
            parts = make_parts(problem, kind, p["spec"])
            cases = []  # (scheme, nu, dt, the run's result or its divergence)
            for scheme in (exp.baseline,) + schemes:
                for nu, dt in zip(nus, steps):
                    try:
                        case = _run(exp, p, problem, scheme, parts, dt)
                    except IntegrationDiverged as exc:
                        case = exc
                    cases.append((scheme, nu, dt, case))
            uref = next(references)
            for scheme, nu, dt, case in cases:
                if isinstance(case, IntegrationDiverged):
                    err, drift, status = float("inf"), float("nan"), f"diverged@{case.step}"
                else:
                    err = norms(case.u - uref, problem.grid.measure)["linf"]
                    drift, status = case.mass_drift, "ok"
                errs[(scheme, nu, n)] = err
                report.add(scheme=scheme, decomposition=kind, n=n, nu=float(nu),
                           dt=dt, err_linf=err, status=status, mass_drift=drift)
    # ordinal checks against the baseline and across grids; both claims are
    # asymptotic and only hold from about n = 50 upward
    asym = [n for n in ns if n >= 50]
    for scheme in schemes:
        if scheme not in ("TW2", "SH2"):
            continue
        verdict = (True, "skipped: all grids pre-asymptotic (n < 50)")
        if kind == "cell":
            label = f"{scheme} tracks the global half-step baseline (<= 2.2)"
            ratios = [
                errs[(scheme, nu, n)] / errs[(exp.baseline, nu, n)]
                for nu in nus for n in asym
                if np.isfinite(errs[(scheme, nu, n)])
                and np.isfinite(errs[(exp.baseline, nu, n)])
            ]
            if ratios:
                verdict = (max(ratios) <= 2.2, f"worst ratio {max(ratios):.2f}")
        else:
            label = f"{scheme} flux-based order about one under grid halving"
            slopes = []
            for nu in nus:
                for n1, n2 in zip(ns[:-1], ns[1:]):
                    if n1 < 50:
                        continue
                    e1, e2 = errs[(scheme, nu, n1)], errs[(scheme, nu, n2)]
                    if np.isfinite(e1) and np.isfinite(e2) and e2 > 0:
                        slopes.append(np.log2(e1 / e2) / np.log2(n2 / n1))
            if slopes:
                mean = float(np.mean(slopes))
                verdict = (0.5 <= mean <= 1.5, f"mean slope {mean:.2f}")
        report.check(label, *verdict)
    if "CS2" in schemes and "TW2" in schemes and len(ns) >= 2 and kind == "cell":
        nu0, coarse, fine = nus[0], min(ns), max(ns)
        r_coarse = errs[("CS2", nu0, coarse)] / errs[("TW2", nu0, coarse)]
        r_fine = errs[("CS2", nu0, fine)] / errs[("TW2", nu0, fine)]
        report.check("CS2/TW2 error ratio grows as the grid refines", r_fine > r_coarse,
                     f"ratio {r_coarse:.1f} -> {r_fine:.1f}")


def _adv2d_steps(p: dict, n: int, at: str) -> tuple:
    """The Courant step of each of ``nus`` on ``n`` cells a side; the
    baseline takes twice as many steps of half the size."""
    steps = [courant_step("adv2d", n, nu, p["T"], "nus", at) for nu in p["nus"]]
    for nu, (_, n_steps) in zip(p["nus"], steps):
        _check_step_count("nus", nu, 2 * n_steps, f"{at} for the half-step baseline")
    return tuple(dt for dt, _ in steps)


def _adv2d(kind: str) -> Experiment:
    return Experiment(
        f"adv2d-{kind}", "adv2d",
        _keys(("TW2", "CS2", "SH2"), ns=((int,), (50, 100, 200)),
              nus=((float,), tuple(np.linspace(0.5, 2.0, 8))), reference_tol=(float, 1e-10)),
        grid="ns", least=6, quick=functools.partial(_halve, 20), kind=kind,
        step=_adv2d_steps,
        columns=("scheme", "decomposition", "n", "nu", "dt", "err_linf", "status",
                 "mass_drift"),
        metadata=lambda p: {"problem": "adv2d", "T": p["T"], "decomposition": kind,
                            "partition": "abs(x-1/2)+abs(y-1/2) <= 1/3 coarse"},
        baseline="ETR2x2", loop=_adv2d_loop)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

EXPERIMENTS = {
    "table1": _table("table1", "cell", TABLE1_ERRORS, TABLE1_ORDERS),
    "table2": _table("table2", "flux", TABLE2_ERRORS, TABLE2_ORDERS),
    "fig1": Experiment(
        "fig1", "adv1d",
        _keys(("CS2", "TW2"), m=(int, 400), nu=(float, 0.5), kind=(str, "cell")),
        grid="m", least=6, quick=functools.partial(_halve, 6), step=_unit_step, kind=None,
        columns=("scheme", "x", "error"),
        metadata=lambda p: {"problem": "adv1d", "T": p["T"], "m": p["m"], "nu": p["nu"],
                            "decomposition": p["kind"]},
        rows=_profile_rows),
    "fig2": Experiment(
        "fig2", "burgers",
        _keys(("CS2", "TW2", "SH2"), m=(int, 2000), threshold=(float, None),
              include_reference=(bool, True)),
        grid="m", least=6, quick=functools.partial(_halve, 6), step=_shock_step,
        # the shock-tracking spec at the given threshold, which the spec's parser checks
        partition=lambda p: (PROBLEMS["burgers"].partition if p["threshold"] is None
                             else f"dynamic:burgers:threshold={p['threshold']}"),
        baseline="single-rate",
        columns=("scheme", "m", "shock_position", "displacement_cells", "mass_drift"),
        metadata=lambda p: {"problem": "burgers", "T": p["T"], "m": p["m"],
                            "partition": p["partition"]},
        rows=_shock_rows),
    "fig3": Experiment(
        "fig3", "upwind1d nonuniform",
        _keys(("TW2", "CS2"), ms=((int,), (20, 40, 80, 160, 320, 640)),
              nus=((float,), (0.5, 0.75, 0.9, 0.95, 1.0))),
        grid="ms", least=2, quick=_keep_half,
        columns=("scheme", "m", "nu", "norm_W", "cond_rTe", "stab1", "stab2"),
        metadata=lambda p: {"problem": "upwind1d nonuniform",
                            "partition": "middle half refined", "h": "4/(3m)"},
        loop=_wnorm_loop),
    "adv2d-cell": _adv2d("cell"),
    "adv2d-flux": _adv2d("flux"),
}
