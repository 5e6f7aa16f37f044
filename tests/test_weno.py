"""Reconstruction-kernel behavior: consistency, polynomial reproduction,
mirror symmetry, the split-flux path, bitwise equality with the textbook
evaluation order, input checks, fresh results, run tables checked when
they bind, bound calls that hold their buffers, stage sums bitwise equal
to the textbook sum, the compiled kernel bitwise equal to the numpy
kernel, and the numpy fallback when the compiled one cannot load."""

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


def _bound_over_fresh_arrays(entry, kernel):
    """A bound call of ``entry`` on ``kernel`` over arrays nothing else
    refers to, weak references to the arrays it must hold (the values
    last) and the values it must give.  A compiled call holds every array
    it was given; the numpy ``weno5_runs`` reads its run table once, as it
    binds, and holds the source and the values."""
    rng = np.random.default_rng(53)
    v = rng.standard_normal(20)
    w = pad_periodic(v)
    if entry == "weno5_periodic":
        arrays = [v, np.empty(26), np.empty(21)]
        call, want = weno.periodic_call(entry, *arrays), _oracle_left(w)
    elif entry == "weno5_runs":
        arrays = [w, np.array([0, 5]), np.array([21, 21]), np.array([1, -1]), np.empty(42)]
        call, want = weno.runs_call(*arrays), np.concatenate([_oracle_left(w), _oracle_right(w)])
        if kernel == "numpy":
            arrays = [arrays[0], arrays[-1]]
    elif entry == "split_parts":
        arrays = [rng.standard_normal(21), np.ones(20), (v > 0).astype(np.intp),
                  np.array([0, 1]), np.empty((2, 20))]
        call = weno.split_parts_call(arrays[0], arrays[1], 1, arrays[2], None, *arrays[3:])
        want = np.stack(_textbook_parts(*arrays[:2], (20,), "cells", arrays[2], 2))
        if kernel == "numpy":  # it reads the parts once, as it binds
            del arrays[3]
    else:
        arrays = [rng.standard_normal((3, 20)), np.array([2, 0]), np.array([0.5, -2.0]), v,
                  np.empty(20)]
        call = weno.stage_sum_call(*arrays[:3], 0.25, *arrays[3:])
        want = _textbook_stage_sum(*arrays[:3], 0.25, v)
    return call, [weakref.ref(a) for a in arrays], want


@pytest.mark.parametrize("entry", ["weno5_periodic", "weno5_runs", "stage_sum", "split_parts"])
def test_a_bound_call_holds_its_buffers(each_kernel, entry):
    # the compiled call reads and writes its arrays by address: freed, they
    # would be memory the process reuses
    call, arrays, want = _bound_over_fresh_arrays(entry, each_kernel)
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


# ----------------------------------------------------------------------
# stage sums
# ----------------------------------------------------------------------

def _textbook_stage_sum(store, rows, coeffs, dt, u):
    """``u + dt * (a_0 K_0 + a_1 K_1 + ...)`` term by term, left to right
    from the first term.  Both operations that place ``u`` and ``dt`` keep
    the sum as their first operand, as the kernel does."""
    acc = coeffs[0] * store[rows[0]]
    for row, a in zip(rows[1:], coeffs[1:]):
        acc = acc + a * store[row]
    return acc * dt + u


# the NaN that an invalid operation makes on this machine; the sums make
# it from infinities, and a sum that also met another NaN (np.nan has the
# other sign on x86) could return either, since numpy's own add picks the
# first operand's in some lanes of a call and the second's in others
with np.errstate(invalid="ignore"):
    _MADE_NAN = float(np.multiply(np.inf, 0.0))

# the values of a stage store: signed zeros, NaN, both infinities and the
# extremes of 1e+-300, among normal values
_STAGE_SPECIAL = (0.0, -0.0, _MADE_NAN, np.inf, -np.inf, 1e300, -1e300, 1e-300, -1e-300)


@st.composite
def stage_sums(draw):
    """A store of 1 to 6 rows of 0 to 600 values (more than two of the
    kernel's blocks of 256), a state and a term table of 1 to 8 terms with
    coefficients of either sign."""
    nrows, size = draw(st.integers(1, 6)), draw(st.integers(0, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    special = draw(st.floats(0.0, 1.0))  # the share of special values

    def values(shape):
        normal = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
        return np.where(rng.random(shape) < special, rng.choice(_STAGE_SPECIAL, shape), normal)

    nterms = draw(st.integers(1, 8))
    rows = np.array(draw(st.lists(st.integers(0, nrows - 1), min_size=nterms,
                                  max_size=nterms)), dtype=np.intp)
    coeffs = np.array(draw(st.lists(st.sampled_from([1.0, -1.0, 0.5, -1.0 / 6.0, 2.0 / 3.0])
                                    | st.floats(-4.0, 4.0, allow_subnormal=False),
                                    min_size=nterms, max_size=nterms)))
    dt = draw(st.sampled_from([1.0, 0.1, 1.0 / 3.0]) | st.floats(1e-6, 10.0))
    return values((nrows, size)), rows, coeffs, dt, values(size)


@settings(deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(stage_sums(), st.booleans())
def test_stage_sum_bitwise_equals_textbook_sum(each_kernel, case, in_place):
    # NaN, infinities and overflow at 1e+-300 come out with the same bits;
    # the update writes over its own state
    store, rows, coeffs, dt, u = case
    with np.errstate(all="ignore"):
        want = _textbook_stage_sum(store, rows, coeffs, dt, u)
        out = u if in_place else np.empty_like(u)
        weno.stage_sum_call(store, rows, coeffs, dt, u, out)()
    _assert_bitwise(out, want)


def _stage(**changes):
    """A stage sum over a store of 4 rows of 10 values, with ``changes``."""
    stage = dict(store=np.empty((4, 10)), rows=np.array([0, 3]), coeffs=np.array([1.0, 0.5]),
                 dt=0.1, u=np.empty(10), out=np.empty(10))
    return {**stage, **changes}


_read_only_state = np.empty(10)
_read_only_state.flags.writeable = False


@pytest.mark.parametrize("stage, message", [
    (_stage(store=np.empty((4, 10), dtype=np.float32)), "needs"),
    (_stage(store=np.empty(40)), "needs"),
    (_stage(store=np.empty((4, 2, 5))), "needs"),
    (_stage(store=np.empty((10, 4)).T), "needs"),
    (_stage(u=np.empty(11)), "needs"),
    (_stage(u=np.empty(20)[::2]), "needs"),
    (_stage(out=np.empty((1, 10))), "needs"),
    (_stage(out=_read_only_state), "needs"),
    (_stage(rows=np.array([0, 3], dtype=np.int32)), "needs"),
    (_stage(coeffs=np.array([1.0])), "needs"),
    (_stage(coeffs=np.array([1.0, 0.5], dtype=np.float32)), "needs"),
    (_stage(rows=np.array([0, 4])), "row 4 outside the 4 rows"),
    (_stage(rows=np.array([-1, 0])), "row -1 outside the 4 rows"),
    (_stage(rows=np.array([], dtype=np.intp), coeffs=np.array([])), "at least one term"),
], ids=["float32-store", "1-d-store", "3-d-store", "strided-store", "short-u", "strided-u",
        "2-d-out", "read-only-out", "int32-rows", "short-coeffs", "float32-coeffs",
        "row-past-end", "negative-row", "no-terms"])
def test_stage_sum_call_rejects_buffers_the_kernel_cannot_take(each_kernel, stage, message):
    # the compiled entry would read or write past a wrong buffer
    with pytest.raises(ValueError, match=f"^stage_sum_call.*{message}"):
        weno.stage_sum_call(**stage)


# ----------------------------------------------------------------------
# the parts of a split right-hand side
# ----------------------------------------------------------------------

def _textbook_divergence(phi, width, shape):
    """The conservative difference of the face fluxes ``phi`` on cells of
    ``shape``, as the grids wrote it in numpy: the x-faces ``(rows, cols +
    1)``, then in 2D the y-faces ``(rows + 1, cols)``, and ``(fx[:, :-1] -
    fx[:, 1:]) / width[col]``, plus ``(fy[:-1] - fy[1:]) / width[cols +
    row]`` in 2D."""
    rows, cols = ((1,) + shape)[-2:]
    fx = phi[:rows * (cols + 1)].reshape(rows, cols + 1)
    div = np.subtract(fx[:, :-1], fx[:, 1:])
    np.divide(div, width[:cols], div)
    if len(shape) == 2:
        fy = phi[rows * (cols + 1):].reshape(rows + 1, cols)
        dy = fy[:-1, :] - fy[1:, :]
        dy /= width[cols:, None]
        np.add(div, dy, div)
    return div.reshape(shape)


def _textbook_parts(phi, width, shape, kind, table, r):
    """Part k of a split for each region k, as the splits wrote them in
    numpy.  The right-hand side is ``phi`` itself without ``width``, else
    its divergence.  A cell split (``kind`` "cells") copies it where the
    table says k and +0 elsewhere, a face split ("faces") divides the
    fluxes with every face outside region k made +0, and with no table
    ("none") every part is the whole right-hand side."""
    full = lambda f: f.reshape(shape) if width is None else _textbook_divergence(f, width, shape)
    parts = []
    for k in range(r):
        if kind == "faces":
            parts.append(full(np.where(table == k, phi, 0.0)))
            continue
        mask = table.reshape(shape) == k if kind == "cells" else np.ones(shape, dtype=bool)
        part = np.empty(shape)
        np.copyto(part, full(phi), where=mask)
        np.copyto(part, 0.0, where=~mask)
        parts.append(part)
    return parts


@st.composite
def split_cases(draw):
    """A line of 1 to 40 cells or a grid of 1..8 x 1..8, the right-hand
    side itself (dims 0) or the grid's face fluxes with cell widths, 1 to
    3 regions by a random cell table, face table or none, and a random set
    of parts.  Values mix ``_STAGE_SPECIAL`` into normal ones; widths are
    positive, 1e+-300 among them."""
    shape = draw(st.sampled_from([(draw(st.integers(1, 40)),),
                                  (draw(st.integers(1, 8)), draw(st.integers(1, 8)))]))
    rows, cols = ((1,) + shape)[-2:]
    dims = draw(st.sampled_from([0, len(shape)]))
    nphi = (rows * cols, rows * (cols + 1), rows * (cols + 1) + (rows + 1) * cols)[dims]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    special = draw(st.floats(0.0, 1.0))
    normal = rng.standard_normal(nphi) * 10.0 ** rng.integers(-3, 4, nphi)
    phi = np.where(rng.random(nphi) < special, rng.choice(_STAGE_SPECIAL, nphi), normal)
    nwidth = (0, cols, cols + rows)[dims]
    width = None if dims == 0 else np.where(
        rng.random(nwidth) < special, rng.choice([1e-300, 1e300], nwidth), rng.random(nwidth) + 0.1)
    r, kind = draw(st.integers(1, 3)), draw(st.sampled_from(["cells", "faces", "none"]))
    table = None if kind == "none" else rng.integers(0, r, rows * cols if kind == "cells" else nphi)
    parts = sorted(draw(st.sets(st.integers(0, r - 1))))
    return phi, width, shape, kind, table, r, np.array(parts, dtype=np.intp)


@settings(deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(split_cases())
def test_split_parts_bitwise_equals_textbook_masking(each_kernel, case):
    # every part row gets the masked evaluation with its bits, NaN and
    # infinities included, and the rows of other parts keep theirs; a
    # table rewritten in place (as a dynamic split does) is read again
    phi, width, shape, kind, table, r, parts = case
    table = None if table is None else table.astype(np.intp)
    out = np.full((r,) + shape, np.nan)
    call = weno.split_parts_call(phi, width, 0 if width is None else len(shape),
                                 table if kind == "cells" else None,
                                 table if kind == "faces" else None, parts, out)
    for _ in range(2):
        with np.errstate(all="ignore"):
            call()
            want = _textbook_parts(phi, width, shape, kind, table, r)
        for k in range(r):
            _assert_bitwise(out[k], want[k] if k in parts else np.full(shape, np.nan))
        if table is not None:
            table[:] = table[::-1].copy()


def _split(**changes):
    """The parts 0 and 1 of a cell split of 10 cells on a line, from its
    11 fluxes, with ``changes``."""
    split = dict(phi=np.empty(11), width=np.ones(10), dims=1,
                 cells=np.zeros(10, dtype=np.intp), faces=None, parts=np.array([0, 1]),
                 out=np.empty((2, 10)))
    return {**split, **changes}


_read_only_parts = np.empty((2, 10))
_read_only_parts.flags.writeable = False


@pytest.mark.parametrize("split, message", [
    (_split(phi=np.empty(11, dtype=np.float32)), "needs"),
    (_split(phi=np.empty(10)), "needs"),
    (_split(phi=np.empty(22)[::2]), "needs"),
    (_split(width=np.ones(9)), "needs"),
    (_split(width=None), "needs"),
    (_split(dims=0), "needs"),
    (_split(dims=3), "needs"),
    (_split(cells=np.zeros(10, dtype=np.int32)), "needs"),
    (_split(cells=None, faces=np.zeros(10, dtype=np.intp)), "needs"),
    (_split(parts=np.array([0, 1], dtype=np.int32)), "needs"),
    (_split(out=np.empty((10, 2)).T), "needs"),
    (_split(out=_read_only_parts), "needs"),
    (_split(out=np.empty(20)), "needs"),
    (_split(out=np.empty((2, 1, 1, 10))), "needs"),
    (_split(parts=np.array([0, 2])), "part 2 outside the 2 rows"),
    (_split(parts=np.array([-1])), "part -1 outside the 2 rows"),
], ids=["float32-phi", "short-phi", "strided-phi", "short-width", "no-width", "width-for-dims-0",
        "dims-3", "int32-cells", "short-faces", "int32-parts", "strided-out", "read-only-out",
        "1-d-out", "4-d-out", "part-past-end", "negative-part"])
def test_split_parts_call_rejects_buffers_the_kernel_cannot_take(each_kernel, split, message):
    # the compiled entry would read or write past a wrong buffer
    with pytest.raises(ValueError, match=f"^split_parts_call.*{message}"):
        weno.split_parts_call(**split)


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
