"""Byte identity of small experiment reports against stored CSVs.

The files under ``tests/golden/`` were written by the WENO5 kernels in
their textbook evaluation order, before any kernel was fused.  Every
rerun must reproduce them byte for byte: a change in the last bit of a
reconstruction, a stage time or a step plan shows up here, not only in
the benchmark.

Bytes can only be compared where numpy's transcendental functions (the
exact solutions use sin, cos and exp) round as they did when the files
were recorded; ``libm.sha256`` fingerprints them.  On a platform with a
different fingerprint the reports are compared at round-off instead.

The final states written by ``prk integrate --out`` are compared the
same way, one file per problem and decomposition path of the command.

To re-record after a deliberate change of the numbers, run
``python tests/test_golden.py`` from the repository root (with ``src`` on
``PYTHONPATH``) and say why in CHANGES.md.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from click.testing import CliRunner

from prk.cli import main
from prk.harness import EXPERIMENTS

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "table1": dict(schemes=("SH2",), ms=(100, 200)),
    "table2": dict(schemes=("SH2",), ms=(100, 200)),
    "fig1": dict(m=200),
    "fig2": dict(m=400),
    "fig3": dict(schemes=("TW2", "CS2"), ms=(20, 40, 80), nus=(0.5, 1.0)),
    # scheme order, unsorted resolutions and a repeated m, whose rows repeat
    "fig3-order": dict(experiment="fig3", schemes=("CS2", "SH2", "TW2"),
                       ms=(40, 20, 40), nus=(1.0, 0.5)),
    # every default point, m = 20..640: the only byte gate on the large-m splittings
    "fig3-full": dict(experiment="fig3"),
    "adv2d-cell": dict(ns=(20,), nus=(1.0,), reference_tol=1e-8),
    "adv2d-flux": dict(ns=(20,), nus=(1.0,), reference_tol=1e-8),
    # two resolutions, the finer first: each n's rows pair with that n's reference
    "adv2d-cell-order": dict(experiment="adv2d-cell", ns=(24, 20), nus=(2.0, 1.0),
                             reference_tol=1e-8),
}

# ``prk integrate`` arguments per stored final state
INTEGRATE_CASES = {
    "adv1d-cell": ["--problem", "adv1d", "--m", "64", "--scheme", "TW2"],
    "adv1d-flux-ranges": ["--problem", "adv1d", "--m", "64", "--scheme", "SH2",
                          "--decomposition", "flux", "--partition", "ranges:16-31"],
    "burgers-dynamic": ["--problem", "burgers", "--m", "100", "--scheme", "CS2"],
    "adv2d-cell": ["--problem", "adv2d", "--m", "12", "--scheme", "TW2"],
    "adv2d-flux": ["--problem", "adv2d", "--m", "12", "--scheme", "TW2",
                   "--decomposition", "flux"],
    # odd n: the middle x-line's speed is -3.5e-16, so that line is mirrored
    "adv2d-flux-49": ["--problem", "adv2d", "--m", "49", "--scheme", "SH2",
                      "--decomposition", "flux"],
}


def libm_fingerprint() -> str:
    x = np.linspace(-10.0, 10.0, 4001)
    bits = [np.__version__.encode()]
    bits += [f(x).tobytes() for f in (np.sin, np.cos, np.exp)]
    bits.append(np.log2(np.abs(x) + 0.5).tobytes())
    return hashlib.sha256(b"".join(bits)).hexdigest()


def _assert_round_off(got: str, want: str) -> None:
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert len(got_lines) == len(want_lines)
    for gl, wl in zip(got_lines, want_lines):
        gf, wf = gl.split(","), wl.split(",")
        assert len(gf) == len(wf), (gl, wl)
        for g, w in zip(gf, wf):
            try:
                g_val, w_val = float(g), float(w)
            except ValueError:
                assert g == w, (gl, wl)
                continue
            assert g_val == pytest.approx(w_val, rel=1e-9, abs=1e-12, nan_ok=True), (gl, wl)


def _assert_same(got: str, want: str) -> None:
    if (GOLDEN / "libm.sha256").read_text().strip() == libm_fingerprint():
        assert got.encode() == want.encode()
    else:
        _assert_round_off(got, want)


def integrated_state(name: str, out_file: Path) -> str:
    result = CliRunner().invoke(main, ["integrate", *INTEGRATE_CASES[name],
                                       "--out", str(out_file)])
    assert result.exit_code == 0, result.output
    return out_file.read_text()


def report(name: str) -> str:
    """The CSV of case ``name``; its experiment defaults to the name."""
    kwargs = dict(CASES[name])
    return EXPERIMENTS[kwargs.pop("experiment", name)](**kwargs).to_csv()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_is_byte_identical(name):
    want = (GOLDEN / f"{name}.csv").read_text()
    _assert_same(report(name), want)


@pytest.mark.parametrize("name", sorted(INTEGRATE_CASES))
def test_integrated_state_is_byte_identical(name, tmp_path):
    want = (GOLDEN / f"integrate-{name}.csv").read_text()
    _assert_same(integrated_state(name, tmp_path / "state.csv"), want)


if __name__ == "__main__":
    for name in CASES:
        (GOLDEN / f"{name}.csv").write_text(report(name))
    for name in INTEGRATE_CASES:
        path = GOLDEN / f"integrate-{name}.csv"
        integrated_state(name, path)
    (GOLDEN / "libm.sha256").write_text(libm_fingerprint() + "\n")
