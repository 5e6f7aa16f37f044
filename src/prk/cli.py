"""Command-line interface for the experiment harness and analysis tools."""

from __future__ import annotations

import inspect
import sys
from pathlib import Path

import click
import numpy as np

from .harness import (
    EXPERIMENTS,
    STANDARD_PARTITIONS,
    make_parts,
    run_case,
    run_wnorm_study,
    shock_position,
)
from .spatial import advection1d_weno5, advection2d, burgers_llf
from .tableau import (
    builtin_names,
    builtin_tableau,
    tableau_from_text,
    tableau_properties,
    tableau_to_text,
)


# config keys whose values are names; every other value is a number or a flag
_TEXT_KEYS = ("schemes", "kind")

# every experiment splits its problem into two regions, one part each
_EXPERIMENT_PARTS = 2


def _parse_value(raw: str, key: str):
    raw = raw.strip()
    if "," in raw:
        return tuple(_parse_value(v, key) for v in raw.split(","))
    if key in _TEXT_KEYS:
        return raw
    low = raw.lower()
    if low in ("true", "false"):
        return low == "true"
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            pass
    raise click.ClickException(f"bad config value {key}={raw!r}: not a number")


def _parse_list(text: str, cast, option: str) -> tuple:
    """Comma-separated ``cast`` values of a command-line ``option``."""
    try:
        return tuple(cast(v) for v in text.split(","))
    except ValueError:
        raise click.ClickException(
            f"bad {option} {text!r}: need comma-separated {cast.__name__} values") from None


def _load_config(path: str | None) -> dict:
    """Plain ``key=value`` overrides, one per line, ``#`` comments allowed."""
    if not path:
        return {}
    overrides = {}
    for line in Path(path).read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise click.ClickException(f"bad config line (need key=value): {line!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        overrides[key] = _parse_value(val, key)
    return overrides


def _check_schemes(names, r: int | None = None) -> None:
    """Reject names that are not builtin tableaus and, given ``r``, tableaus
    with another number of parts."""
    unknown = [s for s in names if s not in builtin_names()]
    if unknown:
        raise click.ClickException(f"unknown scheme(s) {', '.join(unknown)}; "
                                   f"choose from {', '.join(builtin_names())}")
    wrong = [s for s in names if r is not None and builtin_tableau(s).r != r]
    if wrong:
        raise click.ClickException(f"scheme(s) {', '.join(wrong)} do not take {r} parts, "
                                   f"one per region of the partition")


@click.group()
def main():
    """Partitioned / multirate Runge-Kutta experiments."""


@main.command("run")
@click.argument("experiment", type=click.Choice(sorted(EXPERIMENTS)))
@click.option("--out", "outdir", default="results", show_default=True,
              help="Directory for the CSV report.")
@click.option("--schemes", default=None,
              help="Comma-separated scheme names overriding the default set.")
@click.option("--quick", is_flag=True, help="Halve resolutions (CI-sized run).")
@click.option("--config", "config_path", default=None,
              help="key=value file with extra overrides for the experiment.")
def run_cmd(experiment, outdir, schemes, quick, config_path):
    """Run one experiment and write its CSV report.

    Exits nonzero when any of the experiment's built-in assertions fail.
    """
    kwargs = _load_config(config_path)
    for key in ("ms", "ns", "nus", "schemes"):
        if key in kwargs and not isinstance(kwargs[key], tuple):
            kwargs[key] = (kwargs[key],)
    if "schemes" in kwargs:
        kwargs["schemes"] = tuple(str(s).upper() for s in kwargs["schemes"])
    if schemes:
        kwargs["schemes"] = tuple(s.strip().upper() for s in schemes.split(","))
    _check_schemes(kwargs.get("schemes", ()), _EXPERIMENT_PARTS)
    if quick:
        kwargs["quick"] = True
    fn = EXPERIMENTS[experiment]
    unknown = [k for k in kwargs if k not in inspect.signature(fn).parameters]
    if unknown:
        raise click.ClickException(
            f"unknown option(s) for {experiment}: {', '.join(unknown)}"
        )
    report = fn(**kwargs)
    path = report.write(outdir)
    click.echo(report.summary())
    click.echo(f"wrote {path}")
    if not report.passed:
        sys.exit(1)


@main.command("analyze")
@click.option("--schemes", default="TW2,CS2", show_default=True)
@click.option("--m", "ms", default="20,40,80,160,320,640", show_default=True,
              help="Comma-separated resolutions.")
@click.option("--nu", "nus", default="0.5,0.75,0.9,0.95,1.0", show_default=True,
              help="Comma-separated Courant numbers.")
@click.option("--out", "outfile", default=None,
              help="CSV output file (default: stdout).")
def analyze_cmd(schemes, ms, nus, outfile):
    """W-norm and stability analysis on the nonuniform upwind test grid.

    Emits CSV with columns (scheme, m, nu, norm_W, cond_rTe, stab1, stab2).
    """
    schemes_t = tuple(s.strip().upper() for s in schemes.split(","))
    _check_schemes(schemes_t, _EXPERIMENT_PARTS)
    ms_t = _parse_list(ms, int, "--m")
    nus_t = _parse_list(nus, float, "--nu")
    report = run_wnorm_study(schemes=schemes_t, ms=ms_t, nus=nus_t)
    text = report.to_csv()
    if outfile:
        Path(outfile).write_text(text)
        click.echo(f"wrote {outfile}")
    else:
        click.echo(text, nl=False)


# builder and final time of each problem's standard run
_BUILDERS = {"adv1d": advection1d_weno5, "burgers": burgers_llf, "adv2d": advection2d}
_T_END = {"adv1d": 1.0, "burgers": 0.5, "adv2d": 1.0 / 3.0}


@main.command("integrate")
@click.option("--problem", type=click.Choice(sorted(_T_END)), required=True)
@click.option("--m", "m", type=int, required=True,
              help="Cells (per direction for adv2d).")
@click.option("--nu", type=click.FloatRange(0.0, min_open=True), default=0.5,
              show_default=True, help="Courant number fixing the step size.")
@click.option("--scheme", default="TW2", show_default=True)
@click.option("--decomposition", "kind", type=click.Choice(["cell", "flux"]),
              default="cell", show_default=True)
@click.option("--partition", "partition_spec", default=None,
              help="Partition spec (see docs); defaults to the problem's standard one.")
@click.option("--t-end", type=click.FloatRange(0.0, min_open=True), default=None,
              help="Final time (defaults to the problem's standard value).")
@click.option("--out", "outfile", default=None,
              help="Write the final state as CSV.")
def integrate_cmd(problem, m, nu, scheme, kind, partition_spec, t_end, outfile):
    """Integrate one problem with one scheme and report the errors."""
    scheme = scheme.strip().upper()
    _check_schemes((scheme,))
    t_end = _T_END[problem] if t_end is None else t_end
    spec = partition_spec or STANDARD_PARTITIONS[problem]

    try:
        prob = _BUILDERS[problem](m)
    except ValueError as exc:
        raise click.ClickException(f"bad --m: {exc}") from None
    dt = nu * prob.grid.h / (2.0 * np.pi) if problem == "adv2d" else nu / m
    n_steps = max(1, int(np.ceil(t_end / dt)))
    dt = t_end / n_steps

    try:
        parts = make_parts(prob, kind, spec)
    except ValueError as exc:
        raise click.ClickException(f"bad partition: {exc}") from None
    r = builtin_tableau(scheme).r
    if r != parts.r:
        raise click.ClickException(f"scheme {scheme} takes {r} part(s), "
                                   f"the partition {spec!r} gives {parts.r}")
    case = run_case(prob, scheme, parts, dt, t_end)
    click.echo(f"{problem} m={m} scheme={scheme} {kind}-based: "
               f"{n_steps} steps of dt={dt:.3e}")
    click.echo(f"mass drift |m(T) - m(0)| = {case.mass_drift:.3e}")
    if case.errors is not None:
        click.echo(f"error vs exact: linf={case.errors['linf']:.6e}  "
                   f"l1={case.errors['l1']:.6e}")
    if problem == "burgers":
        pos = shock_position(prob.grid.x, case.u)
        click.echo(f"shock position {pos:.6f} (target 0.75, "
                   f"{abs(pos - 0.75) * m:.1f} cells off)")
    if outfile:
        centres = prob.grid.centres
        with open(outfile, "w") as fh:
            # one row per cell, x fastest: the [iy, ix] order of 2D states
            fh.write(",".join("xy"[: len(centres)]) + ",u\n")
            for row in zip(*(c.ravel() for c in centres), case.u.ravel()):
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        click.echo(f"wrote {outfile}")


@main.group("tableau")
def tableau_group():
    """Inspect or validate coefficient tableaus."""


@tableau_group.command("show")
@click.argument("name", type=click.Choice(sorted(builtin_names()),
                                          case_sensitive=False))
def tableau_show(name):
    """Print a builtin tableau in the text exchange format, plus properties."""
    t = builtin_tableau(name)
    click.echo(tableau_to_text(t), nl=False)
    p = tableau_properties(t)
    click.echo(f"# order={p.classical_order} stage_order={p.stage_order} "
               f"conservative={p.conservative} "
               f"internally_consistent={p.internally_consistent}")


@tableau_group.command("check")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
def tableau_check(file):
    """Parse a tableau file and report its structural properties."""
    try:
        t = tableau_from_text(Path(file).read_text(), name=Path(file).stem)
    except ValueError as exc:
        raise click.ClickException(f"bad tableau file {file}: {exc}") from None
    p = tableau_properties(t)
    click.echo(f"{t.name or 'tableau'}: r={t.r} s={t.s} order={p.classical_order} "
               f"stage_order={p.stage_order} conservative={p.conservative} "
               f"internally_consistent={p.internally_consistent}")


if __name__ == "__main__":
    main()
