"""Command-line interface for the experiment harness and analysis tools."""

from __future__ import annotations

import inspect
import sys
from pathlib import Path

import click

from .harness import (
    EXPERIMENTS,
    PROBLEMS,
    BadArgument,
    check_schemes,
    courant_step,
    make_parts,
    parse_partition,
    run_case,
    shock_position,
)
from .stepper import IntegrationDiverged
from .tableau import (
    builtin_names,
    builtin_tableau,
    classical_order,
    is_conservative,
    stage_order,
    tableau_from_text,
    tableau_to_text,
)


def _parse_value(raw: str, kind, where: str):
    """``raw`` read as a value of the config key type ``kind`` (see
    :class:`~prk.harness.Experiment`), a list's entries comma-separated;
    ``where`` names its source in an error."""
    raw = raw.strip()
    if isinstance(kind, tuple):
        return tuple(_parse_value(entry, kind[0], where) for entry in raw.split(","))
    if kind is str:
        return raw
    if kind is bool:
        if raw.lower() not in ("true", "false"):
            raise click.ClickException(f"bad {where}{raw!r}: not true or false")
        return raw.lower() == "true"
    try:
        return kind(raw)
    except ValueError:
        need = "a whole number" if kind is int else "a number"
        raise click.ClickException(f"bad {where}{raw!r}: not {need}") from None


def _load_config(path: str | None, exp) -> dict:
    """Plain ``key=value`` overrides of ``exp``'s config keys, one per line,
    ``#`` comments allowed, each read by its key's type."""
    if not path:
        return {}
    lines = {}
    for line in Path(path).read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise click.ClickException(f"bad config line (need key=value): {line!r}")
        key, _, val = line.partition("=")
        lines[key.strip()] = val
    exp.check_keys(lines)
    return {key: _parse_value(val, exp.keys[key][0], f"config value {key}=")
            for key, val in lines.items()}


def _check_out(given: str, name: str | None = None) -> None:
    """Refuse, before any work, an ``--out`` that cannot take its file: the
    file ``given`` in a directory that exists or, with ``name``, the file
    ``name`` in the directory ``given``, which ``mkdir`` makes with its
    parents.  Nothing is created."""
    path = Path(given) if name is None else Path(given, name)
    folder = path.parent
    if name is not None:  # the nearest directory that exists; mkdir makes the rest
        folder = next(p for p in (folder, *folder.parents) if p.exists())
    if path.is_dir():
        problem = f"{path} is a directory"
    elif not folder.exists():
        problem = f"no directory {folder}"
    elif not folder.is_dir():
        problem = f"{folder} is not a directory"
    else:
        return
    raise click.ClickException(f"cannot write --out {given}: {problem}")


class _Group(click.Group):
    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except BadArgument as exc:  # raised by the harness before any work
            raise click.ClickException(str(exc)) from None
        except IntegrationDiverged as exc:  # names the scheme, m, the step and t
            raise click.ClickException(str(exc)) from None


@click.group(cls=_Group)
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
    # the record, also through the wrapper a profiler may have put around it
    exp = inspect.unwrap(EXPERIMENTS[experiment])
    _check_out(outdir, f"{experiment}.csv")
    kwargs = _load_config(config_path, exp)
    if schemes is not None:
        kwargs["schemes"] = _parse_value(schemes, exp.keys["schemes"][0], "--schemes ")
    if quick:
        kwargs["quick"] = True
    report = EXPERIMENTS[experiment](**kwargs)
    path = report.write(outdir)
    click.echo(report.summary())
    click.echo(f"wrote {path}")
    if not report.passed:
        sys.exit(1)


def _fig3_default(key: str) -> str:
    """The fig3 record's default of ``key``, as ``prk analyze --help`` shows it."""
    return ",".join(map(str, inspect.unwrap(EXPERIMENTS["fig3"]).keys[key][1]))


@main.command("analyze")
@click.option("--schemes", show_default=_fig3_default("schemes"),
              help="Comma-separated scheme names.")
@click.option("--m", "ms", show_default=_fig3_default("ms"),
              help="Comma-separated resolutions.")
@click.option("--nu", "nus", show_default=_fig3_default("nus"),
              help="Comma-separated Courant numbers.")
@click.option("--out", "outfile", default=None,
              help="CSV output file (default: stdout).")
def analyze_cmd(schemes, ms, nus, outfile):
    """W-norm and stability analysis on the nonuniform upwind test grid.

    Emits CSV with columns (scheme, m, nu, norm_W, cond_rTe, stab1, stab2).
    """
    if outfile:
        _check_out(outfile)
    keys = inspect.unwrap(EXPERIMENTS["fig3"]).keys  # prk analyze runs fig3
    report = EXPERIMENTS["fig3"](**{
        key: _parse_value(raw, keys[key][0], where)
        for key, raw, where in (("schemes", schemes, "--schemes "), ("ms", ms, "--m "),
                                ("nus", nus, "--nu "))
        if raw is not None})
    text = report.to_csv()
    if outfile:
        Path(outfile).write_text(text)
        click.echo(f"wrote {outfile}")
    else:
        click.echo(text, nl=False)


@main.command("integrate")
@click.option("--problem", type=click.Choice(sorted(PROBLEMS)), required=True)
@click.option("--m", "m", type=int, required=True,
              help="Cells (per direction for adv2d).")
@click.option("--nu", type=float, default=0.5, show_default=True,
              help="Courant number fixing the step size.")
@click.option("--scheme", default="TW2", show_default=True)
@click.option("--decomposition", "kind", type=click.Choice(["cell", "flux"]),
              default="cell", show_default=True)
@click.option("--partition", "partition_spec", default=None,
              help="Partition spec (see docs); defaults to the problem's standard one.")
@click.option("--t-end", type=float, default=None,
              help="Final time (defaults to the problem's standard value).")
@click.option("--out", "outfile", default=None,
              help="Write the final state as CSV.")
def integrate_cmd(problem, m, nu, scheme, kind, partition_spec, t_end, outfile):
    """Integrate one problem with one scheme and report the errors."""
    if outfile:
        _check_out(outfile)
    standard = PROBLEMS[problem]
    t_end = standard.t_end if t_end is None else t_end
    (scheme,) = check_schemes((scheme,))
    dt, n_steps = courant_step(problem, m, nu, t_end, where=f" at m={m}, t_end={t_end!r}")
    spec = parse_partition(partition_spec or standard.partition, kind, problem)
    standard.check_cells("m", m, m)
    prob = standard.build(m)
    case = run_case(prob, scheme, make_parts(prob, kind, spec), dt, t_end)
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


def _properties(t) -> str:
    """The structural properties that ``tableau show`` and ``check`` print."""
    return (f"order={classical_order(t)} stage_order={stage_order(t)} "
            f"conservative={is_conservative(t)} "
            f"internally_consistent={t.internally_consistent}")


@tableau_group.command("show")
@click.argument("name", type=click.Choice(sorted(builtin_names()),
                                          case_sensitive=False))
def tableau_show(name):
    """Print a builtin tableau in the text exchange format, plus properties."""
    t = builtin_tableau(name)
    click.echo(tableau_to_text(t), nl=False)
    click.echo(f"# {_properties(t)}")


@tableau_group.command("check")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
def tableau_check(file):
    """Parse a tableau file and report its structural properties."""
    try:
        t = tableau_from_text(Path(file).read_text(), name=Path(file).stem)
    except ValueError as exc:
        raise click.ClickException(f"bad tableau file {file}: {exc}") from None
    click.echo(f"{t.name or 'tableau'}: r={t.r} s={t.s} {_properties(t)}")


if __name__ == "__main__":
    main()
