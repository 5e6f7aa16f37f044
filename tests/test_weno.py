"""Reconstruction-kernel behavior: consistency, polynomial reproduction,
mirror symmetry, the split-flux path, bitwise equality with the textbook
evaluation order, input checks, fresh results, run tables checked when
they bind, bound calls that hold their buffers, the compiled kernel
bitwise equal to the numpy kernel, and the numpy fallback when the
compiled one cannot load."""

import gc
import os
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from prk import weno
from prk.weno import (
    WENO_EPS,
    edge_from_left,
    interface_states,
    llf_split_flux,
    pad_periodic,
)


def test_constant_field_reproduced():
    w = pad_periodic(np.full(17, 3.25))
    um, up = interface_states(w)
    assert um.shape == up.shape == (18,)
    assert np.abs(um - 3.25).max() < 1e-14
    assert np.abs(up - 3.25).max() < 1e-14


def test_linear_data_exact():
    # On linear data every candidate stencil is exact, so the nonlinear
    # weights cannot spoil the reconstruction.
    cells = (np.arange(20) - 3.0) * 0.37 + 2.1
    want = (np.arange(15) - 0.5) * 0.37 + 2.1
    assert np.abs(edge_from_left(cells) - want).max() < 1e-12
    assert np.abs(interface_states(cells)[1] - want).max() < 1e-12


def test_mirror_symmetry():
    rng = np.random.default_rng(7)
    w = rng.random(25)
    left = edge_from_left(w)
    right_on_reversed = interface_states(w[::-1])[1]
    assert np.abs(left - right_on_reversed[::-1]).max() < 1e-14


def test_pad_periodic_wraps():
    u = np.arange(8.0)
    w = pad_periodic(u)
    assert list(w[:3]) == [5.0, 6.0, 7.0]
    assert list(w[-3:]) == [0.0, 1.0, 2.0]


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_pad_periodic_wraps_short_lines_as_often_as_needed(m):
    # three ghost cells a side even where the line has fewer cells, so a
    # kernel gets the m + 1 interfaces of the line
    u = np.arange(2.0 * m).reshape(2, m)
    w = pad_periodic(u)
    assert w.tolist() == [[row[i % m] for i in range(-3, m + 3)] for row in u.tolist()]
    assert edge_from_left(w).shape == (2, m + 1)


@pytest.mark.parametrize("shape", [(0,), (3, 0)])
def test_pad_periodic_rejects_an_empty_line(shape):
    with pytest.raises(ValueError, match="at least 1 cell, got length 0$"):
        pad_periodic(np.ones(shape))


def test_llf_split_reduces_to_upwind_for_positive_wind():
    # with alpha = |a| the downwind half of the splitting vanishes, so the
    # result is the left-biased reconstruction of the flux values
    rng = np.random.default_rng(11)
    u = rng.random(30) + 1.0
    a = 1.7
    w = pad_periodic(u)
    split = llf_split_flux(a * w, w, a)
    assert np.abs(split - edge_from_left(a * w)).max() < 1e-13


def test_llf_split_reduces_to_downwind_for_negative_wind():
    rng = np.random.default_rng(12)
    u = rng.random(30) + 1.0
    a = -0.8
    w = pad_periodic(u)
    split = llf_split_flux(a * w, w, abs(a))
    assert np.abs(split - interface_states(a * w)[1]).max() < 1e-13


def test_kernels_broadcast_over_leading_axes():
    rng = np.random.default_rng(13)
    u = rng.random((4, 30))
    w = pad_periodic(u)
    out = edge_from_left(w)
    assert out.shape == (4, 31)
    for i in range(4):
        assert np.allclose(out[i], edge_from_left(w[i]))


# ----------------------------------------------------------------------
# bitwise oracle: the five-cell formula in its textbook evaluation order
# ----------------------------------------------------------------------

_GAMMAS = (0.1, 0.6, 0.3)


def _weighted_edge(a, b, c, d, e):
    # Value at the downstream edge of the center cell c, biased to the
    # (a, b, c) side; candidate stencils and Jiang-Shu indicators.
    p0 = (2.0 * a - 7.0 * b + 11.0 * c) / 6.0
    p1 = (-b + 5.0 * c + 2.0 * d) / 6.0
    p2 = (2.0 * c + 5.0 * d - e) / 6.0
    beta0 = 13.0 / 12.0 * (a - 2.0 * b + c) ** 2 + 0.25 * (a - 4.0 * b + 3.0 * c) ** 2
    beta1 = 13.0 / 12.0 * (b - 2.0 * c + d) ** 2 + 0.25 * (b - d) ** 2
    beta2 = 13.0 / 12.0 * (c - 2.0 * d + e) ** 2 + 0.25 * (3.0 * c - 4.0 * d + e) ** 2
    a0 = _GAMMAS[0] / (WENO_EPS + beta0) ** 2
    a1 = _GAMMAS[1] / (WENO_EPS + beta1) ** 2
    a2 = _GAMMAS[2] / (WENO_EPS + beta2) ** 2
    s = a0 + a1 + a2
    return (a0 * p0 + a1 * p1 + a2 * p2) / s


def _oracle_left(w):
    n = w.shape[-1] - 5
    return _weighted_edge(*(w[..., o : o + n] for o in (0, 1, 2, 3, 4)))


def _oracle_right(w):
    n = w.shape[-1] - 5
    return _weighted_edge(*(w[..., o : o + n] for o in (5, 4, 3, 2, 1)))


def _assert_bitwise(got, want):
    # np.array_equal would pass -0.0 for 0.0; the bytes tell them apart
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# padded lines with up to two leading batch axes: 6 values, the kernels'
# minimum (one interface), the 12 of the smallest WENO5 grid (6 cells),
# and lengths up to 40
shapes = st.tuples(
    st.lists(st.integers(1, 4), max_size=2),
    st.one_of(st.sampled_from([6, 12]), st.integers(6, 40)),
).map(lambda lead_len: tuple(lead_len[0]) + (lead_len[1],))


@st.composite
def lines(draw, shape):
    """Smooth-ish, integer-valued, step or signed-zero data at scales 1e-8
    to 1e8.  Every value is drawn (no fill), so neighbouring cells differ
    and some all-zero stencils reconstruct -0.0."""
    kind = draw(st.sampled_from(["float", "integer", "step", "zeros"]))
    if kind == "zeros":
        signs = st.sampled_from([0.0, -0.0])
        return draw(arrays(np.float64, shape, elements=signs, fill=st.nothing()))
    if kind == "integer":
        ints = st.integers(-60, 60)
        return draw(arrays(np.int64, shape, elements=ints, fill=st.nothing())).astype(float)
    scale = 10.0 ** draw(st.integers(-8, 8))
    if kind == "float":
        floats = st.floats(-1.0, 1.0)
        return scale * draw(arrays(np.float64, shape, elements=floats, fill=st.nothing()))
    low, high = draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))
    cut = draw(st.integers(0, shape[-1]))
    step = np.where(np.arange(shape[-1]) < cut, low, high)
    return scale * np.broadcast_to(step, shape).copy()


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_kernels_bitwise_equal_textbook_order(data):
    w = data.draw(lines(data.draw(shapes)))
    left, right = _oracle_left(w), _oracle_right(w)
    _assert_bitwise(edge_from_left(w), left)
    _assert_bitwise(interface_states(w)[1], right)
    um, up = interface_states(w)
    _assert_bitwise(um, left)
    _assert_bitwise(up, right)


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_llf_split_flux_bitwise_equal_textbook_order(data):
    shape = data.draw(shapes)
    phi = data.draw(lines(shape))
    u = data.draw(lines(shape))
    # one dissipation speed per line, broadcast along it
    alpha = np.abs(data.draw(lines(shape[:-1] + (1,))))
    fplus = 0.5 * (phi + alpha * u)
    fminus = 0.5 * (phi - alpha * u)
    want = _oracle_left(fplus) + _oracle_right(fminus)
    _assert_bitwise(llf_split_flux(phi, u, alpha), want)


def test_kernels_bitwise_equal_on_transposed_lines():
    # the kernels keep the oracle's bits on a transposed, non-contiguous view
    rng = np.random.default_rng(17)
    w = rng.random((26, 26))
    cols = w[:, 3:-3].T
    a = rng.standard_normal((20, 1))
    _assert_bitwise(edge_from_left(cols), _oracle_left(cols))
    _assert_bitwise(interface_states(cols)[1], _oracle_right(cols))
    want = _oracle_left(0.5 * (a * cols + np.abs(a) * cols)) + _oracle_right(
        0.5 * (a * cols - np.abs(a) * cols))
    _assert_bitwise(llf_split_flux(a * cols, cols, np.abs(a)), want)


# ----------------------------------------------------------------------
# input checks and fresh results
# ----------------------------------------------------------------------

_KERNELS = {
    "edge_from_left": edge_from_left,
    "interface_states": interface_states,
    "llf_split_flux": lambda w: llf_split_flux(w, w, 1.0),
}


@pytest.mark.parametrize("kernel", sorted(_KERNELS))
@pytest.mark.parametrize("length", [0, 1, 3, 4, 5])
def test_short_lines_are_rejected(kernel, length):
    with pytest.raises(ValueError, match=f"at least 6 values, got length {length}$"):
        _KERNELS[kernel](np.ones((2, length)))


@pytest.mark.parametrize("kernel", sorted(_KERNELS))
def test_0d_input_is_rejected(kernel):
    with pytest.raises(ValueError, match="at least 6 values, got a 0-d input$"):
        _KERNELS[kernel](np.float64(1.5))


def _all_results(w):
    left = edge_from_left(w)
    um, up = interface_states(w)
    return [left, um, up, llf_split_flux(w, 0.5 * w, 0.75)]


def test_results_keep_their_bytes_after_later_calls_on_the_shape():
    rng = np.random.default_rng(19)
    first = rng.random((3, 21))
    results = _all_results(first)
    kept = [r.tobytes() for r in results]
    for _ in range(2):
        _all_results(rng.random((3, 21)))
    assert [r.tobytes() for r in results] == kept
    assert kept == [r.tobytes() for r in _all_results(first)]


def test_interface_states_outputs_share_no_memory():
    w = np.random.default_rng(23).random(30)
    um, up = interface_states(w)
    assert not np.shares_memory(um, up)
    assert not np.shares_memory(um, w) and not np.shares_memory(up, w)


def test_read_only_line_is_never_written():
    w = np.random.default_rng(29).random(26)
    w.flags.writeable = False
    before = w.tobytes()
    _assert_bitwise(edge_from_left(w), _oracle_left(w))
    um, up = interface_states(w)
    _assert_bitwise(um, _oracle_left(w))
    _assert_bitwise(up, _oracle_right(w))
    llf_split_flux(w, w, 1.0)
    assert w.tobytes() == before


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_two_lines_of_one_shape_each_match_the_oracle(data):
    # two calls on one shape give each line its own values
    shape = data.draw(shapes)
    for w in (data.draw(lines(shape)), data.draw(lines(shape))):
        _assert_bitwise(edge_from_left(w), _oracle_left(w))
        um, up = interface_states(w)
        _assert_bitwise(um, _oracle_left(w))
        _assert_bitwise(up, _oracle_right(w))


# ----------------------------------------------------------------------
# both biases from one call: the right bias reads each line backwards
# ----------------------------------------------------------------------

def _read_only(w):
    w = w.copy()
    w.flags.writeable = False
    return w


_rng = np.random.default_rng(31)
_LAYOUTS = {
    "six values": _rng.standard_normal(6),
    "negative stride": _rng.standard_normal((3, 41))[::-1, ::-2],
    "transposed": _rng.standard_normal((23, 4)).T,
    "read-only": _read_only(_rng.standard_normal((2, 15))),
}


@pytest.mark.parametrize("layout", sorted(_LAYOUTS))
def test_mirrored_pass_bitwise_equal_textbook_order_on_any_layout(layout):
    w = _LAYOUTS[layout]
    before = w.tobytes()
    um, up = interface_states(w)
    _assert_bitwise(um, _oracle_left(w))
    _assert_bitwise(up, _oracle_right(w))
    u = 0.5 * w[::-1]
    want = _oracle_left(0.5 * (w + 0.75 * u)) + _oracle_right(0.5 * (w - 0.75 * u))
    _assert_bitwise(llf_split_flux(w, u, 0.75), want)
    assert w.tobytes() == before


@pytest.mark.parametrize("alpha", ["scalar", "per line", "per value"])
def test_llf_split_flux_bitwise_equal_for_each_alpha_shape(alpha):
    rng = np.random.default_rng(37)
    phi, u = rng.standard_normal((2, 3, 19))
    a = {"scalar": 1.25,
         "per line": np.abs(rng.standard_normal((3, 1))),
         "per value": np.abs(rng.standard_normal((3, 19)))}[alpha]
    want = _oracle_left(0.5 * (phi + a * u)) + _oracle_right(0.5 * (phi - a * u))
    _assert_bitwise(llf_split_flux(phi, u, a), want)


def test_writing_into_u_minus_changes_neither_u_plus_nor_a_later_call():
    w = np.random.default_rng(43).standard_normal(30)
    um, up = interface_states(w)
    kept = up.tobytes()
    um[...] = 7.0
    assert up.tobytes() == kept
    um, up = interface_states(w)
    _assert_bitwise(um, _oracle_left(w))
    _assert_bitwise(up, _oracle_right(w))


# ----------------------------------------------------------------------
# the compiled kernel and the numpy kernel it falls back to
# ----------------------------------------------------------------------

def _compiled_library():
    if weno.KERNEL == "numpy":
        pytest.skip("the compiled kernel does not build or load here")
    return weno._kernel_library()


def _run_on(library, kernel, *args):
    """``kernel(*args)`` on ``library``, or on the numpy twins if None."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(weno, "_kernel_library", lambda: library)
        return kernel(*args)


@pytest.fixture(params=["c", "numpy"])
def each_kernel(request, monkeypatch):
    """The compiled kernel, then the numpy kernel: every call bound in the
    test, and every problem built in it, runs on that kernel."""
    library = _compiled_library() if request.param == "c" else None
    monkeypatch.setattr(weno, "_kernel_library", lambda: library)
    return request.param


@pytest.mark.parametrize("case", [
    test_kernels_bitwise_equal_on_transposed_lines,
    test_read_only_line_is_never_written,
    test_results_keep_their_bytes_after_later_calls_on_the_shape,
    test_interface_states_outputs_share_no_memory,
    test_writing_into_u_minus_changes_neither_u_plus_nor_a_later_call,
], ids=lambda case: case.__name__[len("test_"):])
def test_each_kernel_passes(each_kernel, case):
    case()


@pytest.mark.parametrize("layout", sorted(_LAYOUTS))
def test_each_kernel_keeps_the_oracle_bits_on_any_layout(each_kernel, layout):
    w = _LAYOUTS[layout]
    _assert_bitwise(edge_from_left(w), _oracle_left(w))
    test_mirrored_pass_bitwise_equal_textbook_order_on_any_layout(layout)


@pytest.mark.parametrize("kernel", sorted(_KERNELS))
def test_each_kernel_rejects_short_lines(each_kernel, kernel):
    for length in (0, 1, 3, 4, 5):
        test_short_lines_are_rejected(kernel, length)
    test_0d_input_is_rejected(kernel)


# signed zeros, subnormals, the extremes of the normal range and integers
_SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1e300,
            -1e300, 1.0, -7.0)


@st.composite
def wide_lines(draw, leads=((), (2,), (3, 2))):
    """Padded lines of 6 to 3000 values, under one of the lead shapes
    ``leads``, each value drawn from the chosen mix of special values,
    integers, normal values and normal values scaled by up to 1e+-300."""
    shape = draw(st.sampled_from(leads)) + (draw(st.integers(6, 3000)),)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sources = (rng.choice(_SPECIAL, shape),
               rng.integers(-60, 61, shape).astype(float),
               rng.standard_normal(shape),
               rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 301, shape))
    mix = sorted(draw(st.sets(st.integers(0, len(sources) - 1), min_size=1)))
    return np.choose(rng.choice(mix, shape), sources)


def _periodic_values(entry, v):
    """The values of ``entry`` of ``_weno5.c`` over the periodic line ``v``."""
    v = np.array(v, dtype=float)
    line, out = np.empty(v.size + 6), np.empty(v.size + 1)
    weno.periodic_call(entry, v, line, out)()
    return out


def _runs_values(src, starts, counts, steps):
    """The values of ``weno5_runs`` of ``_weno5.c`` over the run table."""
    out = np.empty(int(counts.sum()))
    weno.runs_call(src, starts, counts, steps, out)()
    return out


@st.composite
def run_tables(draw, w):
    """``w`` as one source of values and a run table over it: 1 to 6 runs,
    each with a step of +-1 or +-p (p the line length, if the source holds
    more than four lines' worth), a count of 0 up to all the faces that fit
    (a face subset) and a start at which it reads inside the source."""
    src = np.ascontiguousarray(w).reshape(-1)
    strides = [1, -1] + [w.shape[-1], -w.shape[-1]] * (4 * w.shape[-1] < src.size)
    table = []
    for _ in range(draw(st.integers(1, 6))):
        step = draw(st.sampled_from(strides))
        count = draw(st.integers(0, src.size - 4 * abs(step)))
        low = draw(st.integers(0, src.size - 4 * abs(step) - count))  # its lowest cell
        table.append((low - min(4 * step, 0), count, step))
    return (src, *np.array(table, dtype=np.intp).T.copy())


def _oracle_runs(src, starts, counts, steps):
    """The textbook formula on the five cells of every face of the runs."""
    return np.concatenate([_weighted_edge(*(src[s + np.arange(c) + j * d] for j in range(5)))
                           for s, c, d in zip(starts, counts, steps)])


@settings(deadline=None, max_examples=100,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_runs_kernel_bitwise_equals_textbook_oracle(each_kernel, data):
    # +-1e300 overflows to inf and NaN, at the same faces with the same bits
    table = data.draw(run_tables(data.draw(wide_lines())))
    with np.errstate(all="ignore"):
        _assert_bitwise(_runs_values(*table), _oracle_runs(*table))


def _table(**changes):
    """A run table of one run over 20 values, 16 faces, with ``changes``."""
    table = dict(src=np.empty(20), starts=np.array([0]), counts=np.array([16]),
                 steps=np.array([1]), out=np.empty(16))
    return {**table, **changes}


_read_only_out = np.empty(16)
_read_only_out.flags.writeable = False


@pytest.mark.parametrize("table", [
    _table(starts=np.array([3]), steps=np.array([-1])),
    _table(starts=np.array([1])),
    _table(counts=np.array([1]), steps=np.array([5]), out=np.empty(1)),
    _table(starts=np.array([0, 0]), counts=np.array([-1, 17]), steps=np.array([1, 1])),
    _table(counts=np.array([15])),
    _table(out=np.empty(17)),
    _table(src=np.empty(20, dtype=np.float32)),
    _table(src=np.empty(40)[::2]),
    _table(src=np.empty((1, 20))),
    _table(starts=np.array([0], dtype=np.int32)),
    _table(steps=np.array([1, 1])),
    _table(out=_read_only_out),
    _table(out=np.empty((4, 4))),
], ids=["reads-before-src", "reads-past-src", "stride-past-src", "negative-count",
        "fewer-faces", "more-values", "float32", "strided", "2-d-src", "int32-starts",
        "table-lengths", "read-only-out", "2-d-out"])
def test_runs_call_rejects_tables_the_kernel_cannot_take(each_kernel, table):
    # the compiled entry would read or write past a wrong buffer
    with pytest.raises(ValueError, match="^runs_call"):
        weno.runs_call(**table)


def _bound_over_fresh_arrays(entry):
    """A bound call of ``entry`` over arrays nothing else refers to, weak
    references to the arrays (the values last) and the values it must give."""
    v = np.random.default_rng(53).standard_normal(20)
    w = pad_periodic(v)
    if entry == "weno5_periodic":
        arrays = [v, np.empty(26), np.empty(21)]
        call, want = weno.periodic_call(entry, *arrays), _oracle_left(w)
    else:
        arrays = [w, np.array([0, 5]), np.array([21, 21]), np.array([1, -1]), np.empty(42)]
        call, want = weno.runs_call(*arrays), np.concatenate([_oracle_left(w), _oracle_right(w)])
    return call, [weakref.ref(a) for a in arrays], want


@pytest.mark.parametrize("entry", ["weno5_periodic", "weno5_runs"])
def test_a_bound_call_holds_its_buffers(each_kernel, entry):
    # the compiled call reads and writes its arrays by address: freed, they
    # would be memory the process reuses
    call, arrays, want = _bound_over_fresh_arrays(entry)
    gc.collect()
    assert all(array() is not None for array in arrays)
    call()
    _assert_bitwise(arrays[-1](), want)


_read_only_line = np.empty(16)
_read_only_line.flags.writeable = False


@pytest.mark.parametrize("v, line, out", [
    (np.empty(2), np.empty(8), np.empty(3)),
    (np.empty(10), np.empty(15), np.empty(11)),
    (np.empty(10), np.empty(16), np.empty(10)),
    (np.empty(10, dtype=np.float32), np.empty(16), np.empty(11)),
    (np.empty(20)[::2], np.empty(16), np.empty(11)),
    (np.empty((1, 10)), np.empty(16), np.empty(11)),
    (np.empty(10), _read_only_line, np.empty(11)),
], ids=["two-cells", "short-line", "short-out", "float32", "strided", "2-d", "read-only"])
def test_periodic_call_rejects_buffers_the_kernel_cannot_take(each_kernel, v, line, out):
    # the compiled entries would read or write past a wrong buffer
    with pytest.raises(ValueError, match="^periodic_call needs 1-d contiguous float64"):
        weno.periodic_call("weno5_periodic", v, line, out)


@settings(deadline=None, max_examples=100)
@given(wide_lines(), st.floats(0.0, 4.0), st.data())
def test_compiled_kernel_bitwise_equals_numpy_kernel(w, alpha, data):
    compiled = _compiled_library()
    cells = w.reshape(-1, w.shape[-1])[0]  # one periodic line of 6 to 3000 cells
    calls = [(edge_from_left, w), (interface_states, w), (llf_split_flux, w, w[..., ::-1], alpha),
             (_runs_values, *data.draw(run_tables(w))),
             *((_periodic_values, entry, cells) for entry in weno._PERIODIC_TWINS)]
    with np.errstate(all="ignore"):  # +-1e300 overflows to inf and NaN in both
        for kernel, *args in calls:
            got, want = (np.asarray(_run_on(library, kernel, *args))
                         for library in (compiled, None))
            _assert_bitwise(got, want)


# A fresh process runs the three kernels and the 1D and 2D fluxes, then the
# numpy kernel on the same lines, and writes KERNEL and whether the bytes
# agree.
_PROBE = """
import sys
import numpy as np
from prk import weno
from prk.spatial import advection1d_weno5, advection2d, burgers_llf

def values():
    w = np.linspace(-1.0, 2.0, 120).reshape(3, 40) ** 3
    out = [weno.edge_from_left(w), *weno.interface_states(w), weno.llf_split_flux(w, w, 0.5),
           advection1d_weno5(40).flux(0.0, w[0]), burgers_llf(40).flux(0.0, w[1]),
           *advection2d(12).flux(0.1, np.outer(w[0, :12], w[1, :12]))]
    return b"".join(v.tobytes() for v in out)

first, kernel = values(), weno.KERNEL
weno._kernel_library = lambda: None
with open(sys.argv[1], "w") as fh:
    fh.write(f"{kernel} {values() == first}")
"""


def _probe(tmp_path, cache, path=None) -> str:
    """What the probe writes, run on the cache directory ``cache`` with
    ``path`` for PATH; the process must print nothing."""
    out = tmp_path / "probe.txt"
    env = dict(os.environ, XDG_CACHE_HOME=str(cache),
               PYTHONPATH=str(Path(weno.__file__).parents[1]))
    if path is not None:
        env["PATH"] = str(path)
    done = subprocess.run([sys.executable, "-c", _PROBE, str(out)], env=env,
                          capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
    return out.read_text()


def _bin(tmp_path, cc=None) -> Path:
    """A directory for PATH holding only ``cc`` as a shell script, if given."""
    path = tmp_path / "bin"
    path.mkdir()
    if cc is not None:
        (path / "cc").write_text(f"#!/bin/sh\n{cc}\n")
        (path / "cc").chmod(0o755)
    return path


def test_no_compiler_falls_back_to_numpy(tmp_path):
    assert _probe(tmp_path, tmp_path / "cache", _bin(tmp_path)) == "numpy True"


def test_a_failing_compiler_falls_back_to_numpy(tmp_path):
    path = _bin(tmp_path, "echo 'cc: error: no' >&2; exit 1")
    assert _probe(tmp_path, tmp_path / "cache", path) == "numpy True"
    assert list((tmp_path / "cache" / "prk").iterdir()) == []  # no temporary file is left


def test_an_unwritable_cache_falls_back_to_numpy(tmp_path):
    (tmp_path / "file").write_text("")  # the cache would be a directory under a file
    assert _probe(tmp_path, tmp_path / "file") == "numpy True"


def test_a_cache_others_can_write_to_falls_back_to_numpy(tmp_path):
    (tmp_path / "cache" / "prk").mkdir(parents=True)
    (tmp_path / "cache" / "prk").chmod(0o777)
    assert _probe(tmp_path, tmp_path / "cache") == "numpy True"


@pytest.mark.skipif(shutil.which("cc") is None, reason="no cc on PATH")
def test_the_cache_serves_later_processes_and_a_damaged_library_falls_back(tmp_path):
    cache = tmp_path / "cache"
    assert _probe(tmp_path, cache) == "c True"
    (library,) = (cache / "prk").iterdir()
    assert (cache / "prk").stat().st_mode & 0o777 == 0o700
    # a second process loads the library without a compiler on PATH
    no_cc = _bin(tmp_path)
    assert _probe(tmp_path, cache, no_cc) == "c True"
    # loading a truncated library would kill the process, so it is rebuilt
    size = library.stat().st_size
    os.truncate(library, size // 2)
    assert _probe(tmp_path, cache) == "c True"
    (library,) = (cache / "prk").iterdir()
    assert library.stat().st_size == size
    # without a compiler the damaged library is deleted, not loaded
    os.truncate(library, size // 2)
    assert _probe(tmp_path, cache, no_cc) == "numpy True"
    assert list((cache / "prk").iterdir()) == []
