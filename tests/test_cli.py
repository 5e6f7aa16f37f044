"""Command-line surface: experiment runner, analyzer, generic integrator."""

import inspect

import pytest
from click.testing import CliRunner

import prk.cli
import prk.harness

from prk.cli import _load_config, main
from prk.tableau import builtin_names


@pytest.fixture
def runner():
    return CliRunner()


def test_tableau_show_lists_coefficients(runner):
    out = runner.invoke(main, ["tableau", "show", "OS1"])
    assert out.exit_code == 0
    lines = out.output.splitlines()
    assert lines[0] == "2 2"
    assert "1/2 1/2" in lines
    assert "order=1 stage_order=0" in lines[-1]


def test_tableau_check_round_trip(runner, tmp_path):
    shown = runner.invoke(main, ["tableau", "show", "TW2"]).output
    body = "\n".join(ln for ln in shown.splitlines() if not ln.startswith("#"))
    f = tmp_path / "tw2.txt"
    f.write_text(body + "\n")
    out = runner.invoke(main, ["tableau", "check", str(f)])
    assert out.exit_code == 0
    assert "order=2" in out.output and "stage_order=1" in out.output


@pytest.mark.parametrize("name", builtin_names())
def test_tableau_check_reads_show_output(runner, tmp_path, name):
    shown = runner.invoke(main, ["tableau", "show", name])
    assert shown.exit_code == 0, shown.output
    f = tmp_path / f"{name}.txt"
    f.write_text(shown.output)
    out = runner.invoke(main, ["tableau", "check", str(f)])
    assert out.exit_code == 0, out.output
    # the properties read back are the ones show printed
    properties = shown.output.splitlines()[-1].removeprefix("# ")
    assert out.output.strip().endswith(properties), (shown.output, out.output)


def test_tableau_check_reads_stage_order_one_as_internal_consistency(runner, tmp_path):
    # the first part's last row sums to 0.4999999999999999 against c_3 = 1/2,
    # and the weights differ by 1e-16: every condition compares by one rule
    f = tmp_path / "decimal.txt"
    f.write_text("2 3\n0 0 0\n0.5 0 0\n0.3333333333333333 0.1666666666666666 0\n"
                 "0 0 0\n0.5 0 0\n0.5 0 0\n0 0 1\n0 0 1.0000000000000001\n")
    out = runner.invoke(main, ["tableau", "check", str(f)])
    assert out.exit_code == 0, out.output
    assert out.output == ("decimal: r=2 s=3 order=2 stage_order=1 conservative=True "
                          "internally_consistent=True\n")


def test_analyze_emits_csv(runner):
    out = runner.invoke(main, ["analyze", "--schemes", "tw2",
                               "--m", "20,40", "--nu", "0.5"])
    assert out.exit_code == 0
    lines = out.output.splitlines()
    assert "scheme,m,nu,norm_W,cond_rTe,stab1,stab2" in lines
    data = [ln for ln in lines if ln.startswith("TW2,")]
    assert len(data) == 2
    assert data[0].split(",")[5] == "true"  # stab1 at nu = 0.5


def test_run_writes_report_and_respects_config(runner, tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("# small slice\nschemes=TW2\nms=50,100\n")
    out = runner.invoke(main, ["run", "table1", "--out", str(tmp_path),
                               "--config", str(cfg)])
    assert out.exit_code == 0, out.output
    csv = (tmp_path / "table1.csv").read_text()
    assert csv.startswith("# experiment = table1")
    assert "TW2,cell,100,0.5," in csv
    assert "[PASS]" in out.output


def test_run_rejects_unknown_config_keys(runner, tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("grid=99\n")
    out = runner.invoke(main, ["run", "table1", "--config", str(cfg)])
    assert out.exit_code != 0
    assert "unknown option" in out.output


@pytest.mark.parametrize("line", ["bogus=1", "kind=flux"])
def test_run_adv2d_rejects_unknown_config_keys(runner, tmp_path, line):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(line + "\n")
    out = runner.invoke(main, ["run", "adv2d-cell", "--config", str(cfg),
                               "--out", str(tmp_path)])
    assert out.exit_code == 1
    key = line.split("=")[0]
    assert out.output == f"Error: unknown option(s) for adv2d-cell: {key}\n"


@pytest.mark.parametrize("args, message", [
    (["run", "table1", "--schemes", "TW2,XX"], "unknown scheme(s) XX; choose from"),
    (["analyze", "--schemes", "TW2,XX"], "unknown scheme(s) XX; choose from"),
    (["integrate", "--problem", "adv1d", "--m", "12", "--scheme", "BOGUS"],
     "unknown scheme(s) BOGUS; choose from"),
    (["integrate", "--problem", "adv1d", "--m", "12", "--scheme", "FE1"],
     "scheme(s) FE1 do not take 2 parts, one per region of the partition"),
    (["integrate", "--problem", "adv1d", "--m", "12", "--t-end", "-1"],
     "bad value t_end=-1.0: need a positive number"),
    (["integrate", "--problem", "adv1d", "--m", "12", "--nu", "0"],
     "bad value nu=0.0: need a positive number"),
    (["integrate", "--problem", "adv1d", "--m", "12", "--nu", "nan"],
     "bad value nu=nan: need a positive number"),
    (["integrate", "--problem", "adv1d", "--m", "12", "--nu", "inf"],
     "bad value nu=inf: need a positive number"),
    (["integrate", "--problem", "adv1d", "--m", "12", "--t-end", "nan"],
     "bad value t_end=nan: need a positive number"),
    (["integrate", "--problem", "adv1d", "--m", "12", "--t-end", "inf"],
     "bad value t_end=inf: need a positive number"),
    (["integrate", "--problem", "adv1d", "--m", "3"],
     "bad value m=3: need a whole number of at least 6 cells"),
    (["integrate", "--problem", "adv1d", "--m", "0"],
     "bad value m=0: need a whole number of at least 6 cells"),
    (["integrate", "--problem", "adv1d", "--m", "12", "--nu", "1e-300"],
     "bad value nu=1e-300: need at most 10000000 steps at m=12, t_end=1.0, not 1.2e+301"),
    (["integrate", "--problem", "adv1d", "--m", "12", "--t-end", "1e300"],
     "bad value nu=0.5: need at most 10000000 steps at m=12, t_end=1e+300, not 2.4e+301"),
    (["integrate", "--problem", "adv1d", "--m", "12", "--nu", "5e-324"],
     "bad value nu=5e-324: need at most 10000000 steps at m=12, t_end=1.0, not inf"),
    (["run", "table1", "--schemes", "FE1"], "scheme(s) FE1 do not take 2 parts"),
    (["run", "adv2d-flux", "--schemes", "TW2,ETR2"], "scheme(s) ETR2 do not take 2 parts"),
    (["analyze", "--schemes", "ETR2"], "scheme(s) ETR2 do not take 2 parts"),
    (["analyze", "--m", "20,abc"], "bad --m 'abc': not a whole number"),
    (["analyze", "--nu", "0.5,fast"], "bad --nu 'fast': not a number"),
    (["analyze", "--m", "20,0"], "bad value ms=0: need a whole number of at least 2 cells"),
    (["analyze", "--nu", "0.5,-1"], "bad value nus=-1.0: need a positive number"),
    (["analyze", "--m", "20,3700"], "bad value ms=3700: need at most 1073741824 bytes of "
                                    "dense analysis matrices, not 1.1e+09"),
    (["analyze", "--nu", "true"], "bad --nu 'true': not a number"),
    (["run", "fig3", "--schemes", ""], "bad value schemes=('',): need a scheme name in entry 1"),
    (["analyze", "--schemes", ""], "bad value schemes=('',): need a scheme name in entry 1"),
    (["analyze", "--schemes", "TW2,,CS2"],
     "bad value schemes=('TW2', '', 'CS2'): need a scheme name in entry 2"),
    (["run", "fig3", "--config", "schemes=TW2,,CS2"],
     "bad value schemes=('TW2', '', 'CS2'): need a scheme name in entry 2"),
    (["integrate", "--problem", "adv1d", "--m", "12", "--scheme", ""],
     "bad value schemes=('',): need a scheme name in entry 1"),
], ids=["run-scheme", "analyze-scheme", "integrate-scheme", "part-count", "t-end", "nu",
        "nu-nan", "nu-inf", "t-end-nan", "t-end-inf", "m",
        "m-zero", "nu-tiny", "t-end-huge", "nu-underflow",
        "run-one-part", "run-adv2d-one-part", "analyze-one-part", "analyze-m", "analyze-nu",
        "analyze-m-zero", "analyze-nu-negative", "analyze-m-dense-bytes", "analyze-nu-flag",
        "run-schemes-empty",
        "analyze-schemes-empty", "analyze-schemes-empty-entry", "config-schemes-empty-entry",
        "integrate-scheme-empty"])
def test_bad_input_fails_in_one_line_before_the_first_step(runner, tmp_path, monkeypatch,
                                                           args, message):
    def no_steps(*_args, **_kwargs):
        raise AssertionError("integration started")

    if "--config" in args:  # the argument after it is the file's text
        i = args.index("--config") + 1
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(args[i] + "\n")
        args = [*args[:i], str(cfg), *args[i + 1:]]
    monkeypatch.setattr(prk.harness, "integrate", no_steps)
    monkeypatch.setattr(prk.harness, "solve_W", no_steps)
    out = runner.invoke(main, [*args, "--out", str(tmp_path / "out")])
    assert isinstance(out.exception, SystemExit) and out.exit_code in (1, 2), out.output
    last = out.output.strip().splitlines()[-1]
    assert last.startswith("Error: ") and message in last, out.output
    assert "Traceback" not in out.output


@pytest.mark.parametrize("experiment, line", [
    ("table1", "ms=abc"),
    ("table1", "ms=100,2OO"),
    ("fig2", "m=2000.0.0"),
    ("adv2d-cell", "nus=0.5,x"),
])
def test_run_rejects_non_numeric_config_values(runner, tmp_path, monkeypatch,
                                               experiment, line):
    def no_steps(*_args, **_kwargs):
        raise AssertionError("integration started")

    monkeypatch.setattr(prk.harness, "integrate", no_steps)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(line + "\n")
    out = runner.invoke(main, ["run", experiment, "--config", str(cfg),
                               "--out", str(tmp_path / "out")])
    assert out.exit_code == 1 and isinstance(out.exception, SystemExit), out.output
    key = line.partition("=")[0]
    assert out.output.strip().splitlines()[-1].startswith(f"Error: bad config value {key}=")


@pytest.mark.parametrize("experiment, config, message", [
    ("table1", "ms=50.5", "bad config value ms='50.5': not a whole number"),
    ("table1", "ms=0", "bad value ms=0: need a whole number of at least 6 cells"),
    ("table1", "nu=-1", "bad value nu=-1.0: need a positive number"),
    ("table1", "nu=0.3\nms=50", "bad value nu=0.3: need m/nu to be a whole number of steps "
                                "at m=50"),
    ("fig1", "kind=edge", "bad value kind='edge': need cell or flux"),
    ("fig2", "threshold=nan", "bad partition: dynamic option threshold=nan must be finite"),
    ("adv2d-cell", "reference_tol=-1", "bad value reference_tol=-1.0: need a positive number"),
    ("adv2d-cell", "reference_tol=true", "bad config value reference_tol='true': not a number"),
    ("table1", "nu=true", "bad config value nu='true': not a number"),
    ("fig2", "threshold=true", "bad config value threshold='true': not a number"),
    ("fig2", "include_reference=5", "bad config value include_reference='5': not true or false"),
    ("table1", "quick=2", "bad config value quick='2': not true or false"),
    ("table1", "ms=100\nquick=true",
     "bad value ms=(100,): need a resolution at most half the largest, for --quick"),
    ("fig3", "ms=20\nquick=true",
     "bad value ms=(20,): need a resolution at most half the largest, for --quick"),
    ("adv2d-cell", "ns=20\nquick=true",
     "bad value ns=(20,): need a resolution of at least 40 cells, for --quick"),
    ("table1", "ms=100\nnu=1e-6",
     "bad value nu=1e-06: need at most 10000000 steps at m=100, not 1e+08"),
    ("table1", "nu=5e-324", "bad value nu=5e-324: need at most 10000000 steps at m=100, "
                            "not inf"),
    ("fig2", "m=30000000", "bad value m=30000000: need at most 10000000 steps, not 3e+07"),
    ("fig2", "m=30000000\ninclude_reference=false",
     "bad value m=30000000: need at most 10000000 steps, not 1.5e+07"),
    ("adv2d-cell", "ns=20\nnus=1e-7",
     "bad value nus=1e-07: need at most 10000000 steps at n=20, not 4.19e+08"),
    ("adv2d-cell", "ns=50,20\nnus=0.5,5e-324",
     "bad value nus=5e-324: need at most 10000000 steps at n=50, not inf"),
    ("adv2d-cell", "ns=20\nnus=5e-6", "bad value nus=5e-06: need at most 10000000 steps "
                                      "at n=20 for the half-step baseline, not 1.68e+07"),
    ("adv2d-flux", "ns=50,5000",
     "bad value ns=(50, 5000): need at most 10000000 cells at n=5000, not 2.5e+07"),
    ("fig1", "m=100000000\nnu=100",
     "bad value m=100000000: need at most 10000000 cells at m=100000000, not 1e+08"),
    ("adv2d-cell", "ns=50,2500", "bad value ns=(50, 2500): need at most 1073741824 bytes "
                                 "to build at n=2500, not 1.15e+09"),
    ("table1", "ms=50,50", "bad value ms=(50, 50): need distinct resolutions"),
    ("table2", "ms=100,50,100\nquick=true",
     "bad value ms=(100, 50, 100): need distinct resolutions"),
    ("adv2d-cell", "ns=20,20", "bad value ns=(20, 20): need distinct resolutions"),
    ("adv2d-flux", "ns=40,41\nquick=true",
     "bad value ns=(40, 41): need distinct halves, for --quick"),
    ("fig1", "m=11\nquick=true", "bad value m=11: need a resolution of at least 12 cells, "
                                  "for --quick"),
    ("fig2", "m=11\nquick=true", "bad value m=11: need a resolution of at least 12 cells, "
                                  "for --quick"),
    ("fig2", "m=5\nquick=true", "bad value m=5: need a whole number of at least 6 cells"),
    ("adv2d-cell", "reference_tol=-1\nquick=true",
     "bad value reference_tol=-1.0: need a positive number"),
    ("table1", "schemes=TW2,tw2", "bad value schemes=('TW2', 'tw2'): need each scheme once"),
    ("fig2", "m=13", "bad value m=13: need a whole number of steps of 1/m to T=0.5 at m=13"),
    ("fig2", "m=26\nquick=true", "bad value m=26: need a whole number of steps of 1/m "
                                 "to T=0.5 at m=13, half the given m=26 for --quick"),
    ("fig1", "m=101\nnu=0.3\nquick=true", "bad value nu=0.3: need m/nu to be a whole number "
                                          "of steps at m=50, half the given m=101 for --quick"),
], ids=["ms-float", "ms-zero", "nu-negative", "nu-steps", "kind", "threshold",
        "reference-tol", "reference-tol-flag", "nu-flag", "threshold-flag", "flag-number",
        "quick-number",
        "quick-table1", "quick-fig3", "quick-adv2d", "steps-table1",
        "steps-table1-nu-underflow", "steps-fig2", "steps-fig2-schemes", "steps-adv2d",
        "steps-adv2d-nu-underflow", "steps-adv2d-baseline", "cells-adv2d", "cells-fig1",
        "build-bytes-adv2d", "repeated-ms-table1", "repeated-ms-table2-quick",
        "repeated-ns", "repeated-ns-halves-quick", "quick-fig1-m", "quick-fig2-m",
        "quick-fig2-given-m", "quick-reference-tol", "repeated-schemes", "steps-fig2-odd-m",
        "steps-fig2-odd-half-quick", "steps-fig1-quick-names-given-m"])
def test_run_checks_experiment_values_before_the_first_integration(
        runner, tmp_path, monkeypatch, experiment, config, message):
    def no_steps(*_args, **_kwargs):
        raise AssertionError("integration started")

    def no_problem(*_args, **_kwargs):
        raise AssertionError("problem built")

    monkeypatch.setattr(prk.harness, "integrate", no_steps)
    monkeypatch.setattr(prk.harness, "reference_integrate", no_steps)
    monkeypatch.setattr(prk.harness, "forked_references", no_steps)  # forks the reference worker
    for builder in ("advection1d_weno5", "advection2d", "burgers_llf", "upwind1d"):
        monkeypatch.setattr(prk.harness, builder, no_problem)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(config + "\n")
    out = runner.invoke(main, ["run", experiment, "--config", str(cfg),
                               "--out", str(tmp_path / "out")])
    assert out.exit_code == 1 and isinstance(out.exception, SystemExit), out.output
    assert out.output == f"Error: {message}\n"


@pytest.mark.parametrize("args, message", [
    (["--scheme", "FE1"], "scheme(s) FE1 do not take 2 parts, one per region of the partition"),
    (["--nu", "1e-7"],
     "bad value nu=1e-07: need at most 10000000 steps at m=2000, t_end=0.3333333333333333, "
     "not 4.19e+10"),
    (["--partition", "bogus("], "bad partition: predicate 'bogus(': '(' was never closed "
                                "at column 6"),
    (["--partition", "dynamic:burgers", "--decomposition", "flux"],
     "bad partition: dynamic partitions support cell splitting only"),
    (["--m", "0"], "bad value m=0: need a whole number of at least 6 cells"),
    (["--t-end", "-1"], "bad value t_end=-1.0: need a positive number"),
    # a later option replaces the one given above
    (["--m", "100000"], "bad value m=100000: need at most 10000000 cells, not 1e+10"),
    (["--problem", "adv1d", "--m", "1000000000", "--nu", "1000"],
     "bad value m=1000000000: need at most 10000000 cells, not 1e+09"),
    # 6.25e6 cells pass MAX_CELLS; at 184 bytes a cell their build would take 1.15 GB
    (["--m", "2500"], "bad value m=2500: need at most 1073741824 bytes to build, not 1.15e+09"),
], ids=["part-count", "steps", "partition-syntax", "partition-dynamic-flux", "m-zero",
        "t-end-negative", "cells-adv2d", "cells-adv1d", "build-bytes-adv2d"])
def test_integrate_checks_scheme_and_steps_before_any_build(runner, tmp_path, monkeypatch,
                                                            args, message):
    def no_problem(*_args, **_kwargs):
        raise AssertionError("problem built")

    for builder in ("advection1d_weno5", "advection2d", "burgers_llf"):
        monkeypatch.setattr(prk.harness, builder, no_problem)
    monkeypatch.setattr(prk.cli, "make_parts", no_problem)
    out = runner.invoke(main, ["integrate", "--problem", "adv2d", "--m", "2000", *args,
                               "--out", str(tmp_path / "state.csv")])
    assert out.exit_code == 1 and isinstance(out.exception, SystemExit), out.output
    assert out.output == f"Error: {message}\n"


def test_config_values_keep_their_types(tmp_path):
    # the lines the benchmark writes, plus a name-valued key and flags; each
    # value is read by the type its experiment declares for the key
    configs = {
        "table1": ("ms=100,200,400,800\nnu=0.5\nschemes=SH2,TW2,CS2\nquick=true\n",
                   {"ms": (100, 200, 400, 800), "nu": 0.5, "schemes": ("SH2", "TW2", "CS2"),
                    "quick": True}),
        "fig1": ("m=2000\nnu=1\nkind=flux\n", {"m": 2000, "nu": 1.0, "kind": "flux"}),
        "fig2": ("threshold=1\ninclude_reference=False\n",
                 {"threshold": 1.0, "include_reference": False}),
        "adv2d-cell": ("ns=50\nnus=0.5,2\nreference_tol=1e-9\n",
                       {"ns": (50,), "nus": (0.5, 2.0), "reference_tol": 1e-9}),
    }
    for experiment, (text, want) in configs.items():
        cfg = tmp_path / f"{experiment}.txt"
        cfg.write_text(text)
        got = _load_config(str(cfg), prk.harness.EXPERIMENTS[experiment])
        assert got == want
        # ints stay ints, and an integer literal for a real key is read as a float
        assert [type(v) for v in got.values()] == [type(v) for v in want.values()]


@pytest.mark.parametrize("args, config, call", [
    (["run", "table1", "--schemes", "TW2"], "ms=50,100\nnu={}\n",
     lambda nu: prk.harness.EXPERIMENTS["table1"](schemes=("TW2",), ms=(50, 100), nu=nu)),
    (["analyze", "--schemes", "TW2", "--m", "20,40", "--nu", "{}"], None,
     lambda nu: prk.harness.EXPERIMENTS["fig3"](schemes=("TW2",), ms=(20, 40), nus=[nu])),
], ids=["run-table1", "analyze"])
def test_integer_literals_of_real_keys_give_the_same_bytes(runner, tmp_path, args, config,
                                                           call):
    def output(nu):
        out = tmp_path / nu
        out.mkdir()
        cmd = [a.format(nu) for a in args]
        if config is not None:
            cfg = out / "cfg.txt"
            cfg.write_text(config.format(nu))
            cmd += ["--config", str(cfg), "--out", str(out)]
        else:
            cmd += ["--out", str(out / "w.csv")]
        result = runner.invoke(main, cmd)  # nu = 1 is off table1's published errors
        assert result.exit_code in (0, 1) and "Error" not in result.output, result.output
        return (out / ("table1.csv" if config else "w.csv")).read_bytes()

    cli = output("1.0")
    assert output("1") == cli
    # a Python caller's integer literal is read as a float too
    assert call(1).to_csv().encode() == call(1.0).to_csv().encode() == cli


def test_analyze_follows_the_fig3_records_defaults(runner, monkeypatch):
    keys = inspect.unwrap(prk.harness.EXPERIMENTS["fig3"]).keys
    assert "[default: (20,40,80,160,320,640)]" in " ".join(
        runner.invoke(main, ["analyze", "--help"]).output.split())
    monkeypatch.setitem(keys, "ms", ((int,), (20, 40)))
    monkeypatch.setitem(keys, "nus", ((float,), (0.5,)))
    out = runner.invoke(main, ["analyze", "--schemes", "TW2"])
    assert out.exit_code == 0, out.output
    rows = [line.split(",") for line in out.output.splitlines()
            if line.startswith("TW2,")]
    assert [(m, nu) for _, m, nu, *_ in rows] == [("20", "0.5"), ("40", "0.5")]


@pytest.mark.parametrize("text, message", [
    ("1 2\n0 0\n1/x 0\n1 0\n", "line 3, entry 1: '1/x' is not a rational number"),
    ("1 2\n\n0 0\n1 0\n1 1/0\n", "line 5, entry 2: '1/0' is not a rational number"),
    ("1 2\n0 0\n1 0 0\n1 0\n", "line 3: expected 2 entries, got 3"),
    ("\n1 two\n", "line 2: expected a header line 'r s' of positive integers"),
    ("# order=1\n1 2\n\n0 0\n1/x 0\n1 0\n", "line 5, entry 1: '1/x' is not a rational number"),
], ids=["entry", "zero-denominator", "row-length", "header", "after-comment"])
def test_tableau_check_names_the_bad_line(runner, tmp_path, text, message):
    f = tmp_path / "bad.txt"
    f.write_text(text)
    out = runner.invoke(main, ["tableau", "check", str(f)])
    assert out.exit_code == 1 and isinstance(out.exception, SystemExit), out.output
    lines = out.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"Error: bad tableau file {f}: {message}")


def test_integrate_adv1d_reports_error_and_mass(runner, tmp_path):
    out_file = tmp_path / "state.csv"
    out = runner.invoke(main, [
        "integrate", "--problem", "adv1d", "--m", "64", "--nu", "0.5",
        "--scheme", "TW2", "--decomposition", "cell", "--out", str(out_file),
    ])
    assert out.exit_code == 0, out.output
    assert "error vs exact" in out.output
    assert "mass drift" in out.output
    rows = out_file.read_text().splitlines()
    assert rows[0] == "x,u"
    assert len(rows) == 65


def test_integrate_burgers_dynamic_flux_rejected(runner):
    out = runner.invoke(main, [
        "integrate", "--problem", "burgers", "--m", "64",
        "--decomposition", "flux",
    ])
    assert out.exit_code != 0
    assert "dynamic" in out.output


def test_integrate_burgers_reports_shock(runner):
    out = runner.invoke(main, [
        "integrate", "--problem", "burgers", "--m", "200", "--nu", "1.0",
        "--scheme", "CS2",
    ])
    assert out.exit_code == 0, out.output
    assert "shock position" in out.output


def test_integrate_adv1d_flux_partition_ranges(runner):
    out = runner.invoke(main, [
        "integrate", "--problem", "adv1d", "--m", "64", "--scheme", "SH2",
        "--decomposition", "flux", "--partition", "ranges:16-31",
    ])
    assert out.exit_code == 0, out.output
    drift = float(out.output.split("mass drift |m(T) - m(0)| = ")[1].split()[0])
    assert drift < 1e-12


@pytest.mark.parametrize("args, message", [
    (["--problem", "adv2d", "--partition", "ranges:2-4"], "need a 1D grid"),
    (["--problem", "adv1d", "--partition", "0.5"], r"mask of shape ()"),
    (["--problem", "adv2d", "--decomposition", "flux", "--partition", "ranges:2-4"],
     "needs a predicate"),
    (["--problem", "adv1d", "--partition", "bogus("], "was never closed"),
    (["--problem", "adv1d", "--partition", "x.__class__"], "Attribute at column 1"),
    (["--problem", "adv1d", "--partition", "x*" * 2000 + "x<1"], "nested deeper than 100"),
    (["--problem", "adv1d", "--partition", "-" * 3000 + "x<1"], "nested deeper than 100"),
    (["--problem", "burgers", "--partition", "dynamic:burgers:threshold=nan"],
     "threshold=nan must be finite"),
])
def test_integrate_rejects_bad_partitions_without_a_traceback(runner, monkeypatch, args,
                                                              message):
    def no_problem(*_args, **_kwargs):
        raise AssertionError("problem built")

    # a spec that cannot split the 2D grid fails before the grid is built
    monkeypatch.setattr(prk.harness, "advection2d", no_problem)
    out = runner.invoke(main, ["integrate", "--m", "12", *args])
    assert out.exit_code == 1
    assert isinstance(out.exception, SystemExit), out.exception
    assert out.output.startswith("Error: bad partition: "), out.output
    assert message in out.output


@pytest.mark.parametrize("args, config, message", [
    (["run", "table1"], "ms=400,800\nnu=20\nschemes=TW2",
     "TW2 at m=800: integration diverged at step 21, t=0.5"),
    (["run", "fig1"], "m=400\nnu=20", "CS2 at m=400: integration diverged at step 20, t=0.95"),
    (["integrate", "--problem", "burgers", "--m", "100", "--nu", "40"], None,
     "TW2 at m=100: integration diverged at step 2, t=0.25"),
], ids=["table1", "fig1", "integrate"])
# the numpy kernel warns on the way to the non-finite state; the C kernel does not
@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_a_diverged_run_ends_in_one_error_line(runner, tmp_path, args, config, message):
    # table1 diverges at m = 800, after its m = 400 run has finished
    if config is not None:
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(config + "\n")
        args = [*args, "--config", str(cfg), "--out", str(tmp_path / "out")]
    else:
        args = [*args, "--out", str(tmp_path / "state.csv")]
    out = runner.invoke(main, args)
    assert out.exit_code == 1 and isinstance(out.exception, SystemExit), out.output
    assert out.output == f"Error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == (["cfg.txt"] if config else [])


def test_adv2d_keeps_a_row_for_a_diverged_run(runner, tmp_path, monkeypatch):
    integrate = prk.harness.integrate

    def diverge_at_large_steps(run):
        if run.tableau.name == "TW2" and run.dt > 0.02:
            raise prk.stepper.IntegrationDiverged("diverged", step=7, t=0.25)
        return integrate(run)

    monkeypatch.setattr(prk.harness, "integrate", diverge_at_large_steps)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("ns=20\nnus=0.5,4\nschemes=TW2\n")
    out = runner.invoke(main, ["run", "adv2d-cell", "--config", str(cfg),
                               "--out", str(tmp_path)])
    assert out.exit_code == 0, out.output
    rows = (tmp_path / "adv2d-cell.csv").read_text().splitlines()
    assert [row.split(",")[6] for row in rows if row.startswith("TW2,")] == ["ok", "diverged@7"]


@pytest.mark.parametrize("args, given", [
    (["run", "fig3", "--quick", "--out", "{f}"], "{f}: {f} is not a directory"),
    (["run", "fig3", "--quick", "--out", "{f}/sub"], "{f}/sub: {f} is not a directory"),
    (["run", "fig3", "--quick", "--out", "{d}"], "{d}: {d}/fig3.csv is a directory"),
    (["analyze", "--m", "20", "--out", "{f}/x.csv"], "{f}/x.csv: {f} is not a directory"),
    (["analyze", "--m", "20", "--out", "{d}"], "{d}: {d} is a directory"),
    (["integrate", "--problem", "adv1d", "--m", "20", "--out", "{f}/x.csv"],
     "{f}/x.csv: {f} is not a directory"),
    (["integrate", "--problem", "adv1d", "--m", "20", "--out", "{d}/no/x.csv"],
     "{d}/no/x.csv: no directory {d}/no"),
], ids=["run-file", "run-below-file", "run-report-is-directory", "analyze-below-file",
        "analyze-directory", "integrate-below-file", "integrate-missing-directory"])
def test_an_unusable_out_fails_before_any_work(runner, tmp_path, monkeypatch, args, given):
    def no_work(*_args, **_kwargs):
        raise AssertionError("work started")

    for name in ("integrate", "solve_W", "advection1d_weno5", "upwind1d"):
        monkeypatch.setattr(prk.harness, name, no_work)
    f, d = tmp_path / "f", tmp_path / "d"
    f.write_text("")
    (d / "fig3.csv").mkdir(parents=True)
    out = runner.invoke(main, [a.format(f=f, d=d) for a in args])
    assert out.exit_code == 1 and isinstance(out.exception, SystemExit), out.output
    assert out.output == f"Error: cannot write --out {given.format(f=f, d=d)}\n"
    # nothing is left behind: no file, no directory
    assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")) == [
        "d", "d/fig3.csv", "f"]
    assert f.read_text() == ""
