"""Experiment driver: convergence tables, error profiles, shock tracking,
W-norm sweeps and the 2D rotation study, all emitted as CSV reports.

Every experiment is deterministic; rerunning produces byte-identical CSV.
Wall-clock timings are kept on the in-memory rows but never serialized.
"""

from __future__ import annotations

import functools
import io
import math
import numbers
import operator
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .analysis import LinearSplitting, linearize_parts, solve_W, stability_check
from .decomposition import (
    CellPartition,
    CellSplitParts,
    DynamicCellSplit,
    FluxPartition,
    FluxSplit2DParts,
    FluxSplitParts,
    PartitionSpec,
    TrivialParts,
)
from .spatial import advection1d_weno5, advection2d, burgers_llf, norms, upwind1d
# reference_integrate is not called here; perfbench/child.py wraps it by name
from .stepper import (
    IntegrationDiverged,
    IntegrationRun,
    forked_references,
    integrate,
    reference_integrate,
)
from .tableau import builtin_tableau

__all__ = [
    "BadArgument",
    "Check",
    "ExperimentReport",
    "estimate_order",
    "shock_position",
    "run_table1",
    "run_table2",
    "run_error_profile",
    "run_burgers_shock",
    "run_wnorm_study",
    "run_adv2d",
    "STANDARD_PARTITIONS",
    "MAX_STEPS",
    "make_parts",
    "run_case",
    "EXPERIMENTS",
]

# the standard partition of each problem, read by the experiments and by
# ``prk integrate``; the headers name two of them in the reports
STANDARD_PARTITIONS = {
    "adv1d": "refined:(x>=0.125)&(x<=0.375)|(x>=0.625)&(x<=0.875)",
    "burgers": "dynamic:burgers:threshold=0.125",
    "adv2d": "coarse:abs(x-0.5)+abs(y-0.5)<=1/3",
}
_PARTITION_HEADERS = {
    "adv1d": "x in [1/8,3/8] u [5/8,7/8]",
    "adv2d": "abs(x-1/2)+abs(y-1/2) <= 1/3 coarse",
}

# the most steps one run may take; the largest standard run takes 2,000
MAX_STEPS = 10**7

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
        cols = [c for c in self.columns if c != "runtime"]
        buf.write(",".join(cols) + "\n")
        for row in self.rows:
            buf.write(",".join(_fmt(row.get(c, "")) for c in cols) + "\n")
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


def _check_cells(key: str, ms, least: int = 6) -> None:
    for m in ms:
        _require(isinstance(m, numbers.Integral) and m >= least, key, m,
                 f"a whole number of at least {least} cells")


def _check_positive(key: str, values) -> None:
    for v in values:
        _require(isinstance(v, numbers.Real) and 0 < v < math.inf, key, v, "a positive number")


def _quick_resolutions(ms):
    """The resolutions a --quick run keeps, those at most half the largest;
    a run that would keep none stops here."""
    kept = tuple(m for m in ms if m <= max(ms) // 2)
    _require(bool(kept), "ms", ms, "a resolution at most half the largest, for --quick")
    return kept


def _check_step_count(key: str, value, steps: float, where: str = "") -> None:
    _require(steps <= MAX_STEPS, key, value,
             f"at most {MAX_STEPS} steps{where}, not {steps:.3g}")


def _check_unit_steps(ms, nu) -> None:
    """The 1D runs step ``dt = nu/m`` to T = 1, as a whole number of steps."""
    _check_positive("nu", (nu,))
    for m in ms:
        _check_step_count("nu", nu, m / nu, f" at m={m}")
        n = round(m / nu)
        _require(n >= 1 and abs(n * (nu / m) - 1.0) <= 1e-9, "nu", nu,
                 f"m/nu to be a whole number of steps at m={m}")


# ----------------------------------------------------------------------
# one run path: parts from a partition spec, one timed integration
# ----------------------------------------------------------------------

def make_parts(problem, kind: str, spec: str):
    """The ``kind`` (``"cell"`` or ``"flux"``) split of ``problem`` over the
    partition ``spec`` (see :class:`~prk.decomposition.PartitionSpec`)."""
    parsed = PartitionSpec.parse(spec)
    if parsed.rule is not None:
        if kind != "cell":
            raise ValueError("dynamic partitions support cell splitting only")
        return DynamicCellSplit(problem.rhs, parsed.rule)
    if kind == "cell":
        return CellSplitParts(problem.rhs, parsed.cells(problem.grid))
    if kind != "flux":
        raise ValueError(f"unknown decomposition kind {kind!r}")
    grid = problem.grid
    if len(grid.centres) == 2:  # x- and y-faces
        return FluxSplit2DParts(problem.flux, parsed.faces(grid))
    return FluxSplitParts(problem.flux, FluxPartition.from_cells(parsed.cells(grid), grid))


@dataclass
class CaseResult:
    u: np.ndarray
    runtime: float
    mass_drift: float
    # norms of u minus the exact solution, None without one
    errors: dict | None


def run_case(problem, scheme: str, parts, dt: float, t_end: float) -> CaseResult:
    """Integrate ``problem`` from its initial state with ``scheme``.

    Times the integration, traces the mass with the cell measures and
    measures the final error against the exact solution, when the problem
    has one.
    """
    weights = problem.grid.measure
    t0 = time.perf_counter()
    res = integrate(IntegrationRun(builtin_tableau(scheme), parts, dt=dt, t_end=t_end,
                                   u0=problem.initial, mass_weights=weights))
    runtime = time.perf_counter() - t0
    errors = None if problem.exact is None else norms(res.u - problem.exact(t_end), weights)
    drift = abs(res.mass_trace[-1] - res.mass_trace[0])
    return CaseResult(res.u, runtime, drift, errors)


# ----------------------------------------------------------------------
# 1D smooth advection tables
# ----------------------------------------------------------------------

def _table_experiment(
    name: str,
    kind: str,
    schemes,
    ms,
    nu: float,
    reference_errors,
    reference_orders,
) -> ExperimentReport:
    _check_cells("ms", ms)
    _check_unit_steps(ms, nu)
    report = ExperimentReport(
        name=name,
        columns=[
            "scheme", "decomposition", "m", "nu", "err_linf", "err_l1",
            "order_linf", "order_l1", "mass_drift", "runtime",
        ],
        metadata={
            "problem": "adv1d",
            "T": 1.0,
            "nu": nu,
            "partition": _PARTITION_HEADERS["adv1d"],
            "decomposition": kind,
        },
    )
    for scheme in schemes:
        errs_linf, errs_l1 = {}, {}
        prev = None
        for m in ms:
            problem = advection1d_weno5(m)
            parts = make_parts(problem, kind, STANDARD_PARTITIONS["adv1d"])
            case = run_case(problem, scheme, parts, nu / m, 1.0)
            linf, l1, drift = case.errors["linf"], case.errors["l1"], case.mass_drift
            errs_linf[m], errs_l1[m] = linf, l1
            row = {
                "scheme": scheme, "decomposition": kind, "m": m, "nu": nu,
                "err_linf": linf, "err_l1": l1, "order_linf": "",
                "order_l1": "", "mass_drift": drift, "runtime": case.runtime,
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
    return report


def run_table1(schemes=("CS2", "TW2", "SH2"), ms=(100, 200, 400, 800), nu=0.5,
               quick=False) -> ExperimentReport:
    """Smooth-advection convergence, cell-based decomposition."""
    if quick:
        ms = _quick_resolutions(ms)
    return _table_experiment("table1", "cell", schemes, ms, nu,
                             TABLE1_ERRORS, TABLE1_ORDERS)


def run_table2(schemes=("CS2", "TW2", "SH2"), ms=(100, 200, 400, 800), nu=0.5,
               quick=False) -> ExperimentReport:
    """Smooth-advection convergence, flux-based decomposition."""
    if quick:
        ms = _quick_resolutions(ms)
    return _table_experiment("table2", "flux", schemes, ms, nu,
                             TABLE2_ERRORS, TABLE2_ORDERS)


# ----------------------------------------------------------------------
# pointwise error profile
# ----------------------------------------------------------------------

def run_error_profile(schemes=("CS2", "TW2"), m=400, nu=0.5,
                      kind="cell", quick=False) -> ExperimentReport:
    """Error versus position at the final time of the smooth test."""
    if quick:
        m = m // 2
    _check_cells("m", (m,))
    _check_unit_steps((m,), nu)
    _require(kind in ("cell", "flux"), "kind", kind, "cell or flux")
    report = ExperimentReport(
        name="fig1",
        columns=["scheme", "x", "error"],
        metadata={"problem": "adv1d", "T": 1.0, "m": m, "nu": nu,
                  "decomposition": kind},
    )
    spec = STANDARD_PARTITIONS["adv1d"]
    for scheme in schemes:
        problem = advection1d_weno5(m)
        x = problem.grid.x
        # the cell edges where the partition switches region
        refined = PartitionSpec.parse(spec).cells(problem.grid).masks[1]
        interface_points = problem.grid.edges[1:-1][refined[1:] != refined[:-1]]
        u = run_case(problem, scheme, make_parts(problem, kind, spec), nu / m, 1.0).u
        err = u - problem.exact(1.0)
        for xj, ej in zip(x, err):
            report.add(scheme=scheme, x=float(xj), error=float(ej))
        abs_err = np.abs(err)
        if scheme == "CS2":
            worst = np.argsort(abs_err)[-4:]
            dist = [
                float(min(abs(x[j] - p) for p in interface_points) * m)
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
    return report


# ----------------------------------------------------------------------
# Burgers shock tracking
# ----------------------------------------------------------------------

def run_burgers_shock(schemes=("CS2", "TW2", "SH2"), m=2000, threshold=None,
                      include_reference=True, quick=False) -> ExperimentReport:
    """Shock location at T = 1/2 with the dynamic (shock-tracking) partition
    (the standard one unless ``threshold`` is given)."""
    if quick:
        m = m // 2
    _check_cells("m", (m,))
    _require(threshold is None or math.isfinite(threshold), "threshold", threshold,
             "a finite number")
    # to T = 1/2 the schemes take m/2 steps of 1/m, the single-rate run m of 1/(2m)
    _check_step_count("m", m, m if include_reference else m / 2)
    spec = (STANDARD_PARTITIONS["burgers"] if threshold is None
            else f"dynamic:burgers:threshold={threshold}")
    report = ExperimentReport(
        name="fig2",
        columns=["scheme", "m", "shock_position", "displacement_cells",
                 "mass_drift", "runtime"],
        metadata={"problem": "burgers", "T": 0.5, "m": m, "partition": spec},
    )

    def add_row(label, problem, scheme, parts, dt):
        case = run_case(problem, scheme, parts, dt, 0.5)
        pos = shock_position(problem.grid.x, case.u)
        cells = abs(pos - 0.75) * m
        report.add(scheme=label, m=m, shock_position=pos, displacement_cells=cells,
                   mass_drift=case.mass_drift, runtime=case.runtime)
        return cells

    for scheme in schemes:
        problem = burgers_llf(m)
        cells = add_row(scheme, problem, scheme, make_parts(problem, "cell", spec), 1.0 / m)
        if scheme == "CS2":
            report.check("CS2 shock within 5 cells of x = 3/4", cells <= 5.0,
                         f"{cells:.1f} cells")
        else:
            # non-conservative schemes drift by an m-independent distance;
            # 0.005 is ten cells at the reference resolution m = 2000
            off = cells / m
            report.check(f"{scheme} shock displaced by >= 0.005",
                         off >= 0.005, f"{off:.4f} ({cells:.1f} cells)")
    if include_reference:
        problem = burgers_llf(m)
        cells = add_row("single-rate", problem, "ETR2", TrivialParts(problem.rhs), 0.5 / m)
        report.check("single-rate shock within 3 cells of x = 3/4",
                     cells <= 3.0, f"{cells:.1f} cells")
    return report


# ----------------------------------------------------------------------
# W-norm study
# ----------------------------------------------------------------------

def _wnorm_splitting(m: int, nu: float):
    """The splitting and partition of one (m, nu) point of the W study.

    Upwind inflow advection on the two-block nonuniform grid: the middle
    half of the indices is refined with half the cell width, coarse width
    ``h = 4/(3m)``, time step ``nu * h``.  ``Z_k = nu h I_k L`` is read off
    the cell split the stepper runs, and scaled in place.
    """
    h = 4.0 / (3.0 * m)
    refined = np.zeros(m, dtype=bool)
    refined[m // 4 : (3 * m) // 4] = True
    dx = np.where(refined, 0.5 * h, h)
    part = CellPartition.two_region(refined)
    Zs = linearize_parts(CellSplitParts(upwind1d(dx=dx, boundary="inflow").rhs, part), m)
    for Z in Zs:
        Z *= nu * h
    return LinearSplitting(tuple(Zs)), part


def run_wnorm_study(schemes=("TW2", "CS2"), ms=(20, 40, 80, 160, 320, 640),
                    nus=(0.5, 0.75, 0.9, 0.95, 1.0), quick=False) -> ExperimentReport:
    """Norm of W versus resolution for several Courant numbers; each distinct
    (m, nu) builds one splitting and one stability report for all schemes."""
    if quick:
        ms = _quick_resolutions(ms)
    _check_cells("ms", ms, least=2)
    _check_positive("nus", nus)
    report = ExperimentReport(
        name="fig3",
        columns=["scheme", "m", "nu", "norm_W", "cond_rTe", "stab1", "stab2"],
        metadata={"problem": "upwind1d nonuniform", "partition": "middle half refined",
                  "h": "4/(3m)"},
    )
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
    for scheme in schemes:
        if scheme != "TW2":
            continue
        for nu, lo, hi in ((0.5, 0.0, 1.2), (1.0, 1.6, 2.4)):
            vals = {m: solved[scheme, nu, m][0] for m in ms if (scheme, nu, m) in solved}
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
    return report


# ----------------------------------------------------------------------
# 2D rotation study
# ----------------------------------------------------------------------

def run_adv2d(kind="cell", ns=(50, 100, 200), nus=None,
              schemes=("TW2", "CS2", "SH2"), reference_tol=1e-10,
              quick=False) -> ExperimentReport:
    """Rotating-profile errors against the temporally exact semi-discrete
    solution, with the global half-step trapezoidal run as baseline."""
    if quick:
        halved = tuple(n // 2 for n in ns if n // 2 >= 20)
        _require(bool(halved), "ns", ns, "a resolution of at least 40 cells, for --quick")
        ns = halved
        reference_tol = max(reference_tol, 1e-9)
    if nus is None:
        nus = tuple(np.linspace(0.5, 2.0, 8))
    _check_cells("ns", ns)
    _check_positive("nus", nus)
    _check_positive("reference_tol", (reference_tol,))
    t_end = 1.0 / 3.0
    for n in ns:
        for nu in nus:
            dt = nu * (1.0 / n) / (2.0 * np.pi)  # the step of every run below
            _check_step_count("nus", nu, t_end / dt if dt > 0.0 else math.inf, f" at n={n}")
    report = ExperimentReport(
        name=f"adv2d-{kind}",
        columns=["scheme", "decomposition", "n", "nu", "dt", "err_linf",
                 "status", "mass_drift", "runtime"],
        metadata={"problem": "adv2d", "T": t_end, "decomposition": kind,
                  "partition": _PARTITION_HEADERS["adv2d"]},
    )
    errs: dict[tuple[str, float, int], float] = {}
    problems = [advection2d(n) for n in ns]
    # each reference runs in a worker while the schemes at its n run here
    with forked_references(problems, t_end, tol=reference_tol) as references:
        for n, problem in zip(ns, problems):
            parts = make_parts(problem, kind, STANDARD_PARTITIONS["adv2d"])
            cases = []  # (scheme, nu, dt, the run's result or its divergence)
            for scheme in ("ETR2x2",) + tuple(schemes):
                for nu in nus:
                    dt = nu * problem.grid.h / (2.0 * np.pi)
                    n_steps = max(1, int(np.ceil(t_end / dt)))
                    dt = t_end / n_steps
                    if scheme == "ETR2x2":  # the base method, unsplit, at half the step
                        tableau, split, step = "ETR2", TrivialParts(problem.rhs), 0.5 * dt
                    else:
                        tableau, split, step = scheme, parts, dt
                    try:
                        case = run_case(problem, tableau, split, step, t_end)
                    except IntegrationDiverged as exc:
                        case = exc
                    cases.append((scheme, nu, dt, case))
            uref = next(references)
            for scheme, nu, dt, case in cases:
                if isinstance(case, IntegrationDiverged):
                    err, drift, status = float("inf"), float("nan"), f"diverged@{case.step}"
                    runtime = float("nan")
                else:
                    err = norms(case.u - uref, problem.grid.measure)["linf"]
                    drift, status, runtime = case.mass_drift, "ok", case.runtime
                errs[(scheme, nu, n)] = err
                report.add(scheme=scheme, decomposition=kind, n=n, nu=float(nu),
                           dt=dt, err_linf=err, status=status,
                           mass_drift=drift, runtime=runtime)
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
                errs[(scheme, nu, n)] / errs[("ETR2x2", nu, n)]
                for nu in nus for n in asym
                if np.isfinite(errs[(scheme, nu, n)])
                and np.isfinite(errs[("ETR2x2", nu, n)])
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
        nu0 = nus[0]
        r_first = errs[("CS2", nu0, ns[0])] / errs[("TW2", nu0, ns[0])]
        r_last = errs[("CS2", nu0, ns[-1])] / errs[("TW2", nu0, ns[-1])]
        report.check(
            "CS2/TW2 error ratio grows as the grid refines",
            r_last > r_first,
            f"ratio {r_first:.1f} -> {r_last:.1f}",
        )
    return report


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

EXPERIMENTS = {
    "table1": run_table1,
    "table2": run_table2,
    "fig1": run_error_profile,
    "fig2": run_burgers_shock,
    "fig3": run_wnorm_study,
    "adv2d-cell": functools.partial(run_adv2d, "cell"),
    "adv2d-flux": functools.partial(run_adv2d, "flux"),
}
