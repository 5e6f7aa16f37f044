"""WENO5 reconstruction kernels (classic smoothness-weighted stencils).

All kernels act on the last axis and expect arrays padded with three
ghost cells on each side, so a line of ``m`` cells comes in with length
``m + 6`` (at least 6) and produces values at the ``m + 1`` interfaces.

The kernels are bitwise equal to the textbook evaluation of the five-cell
formula (Jiang & Shu's indicators, written out in ``_Plan.edge``), and
that equality is part of their contract.  Only the left bias is ever
evaluated.  The right-biased value of a line is bitwise the left-biased
value of its mirror image, which hands the formula the same cells in the
same roles.  So :func:`interface_states` and :func:`llf_split_flux` make
one left-biased pass over a line twice as long: the line (or the ``+``
part of the split) followed by the mirror image of the line (or of the
``-`` part).  Its first ``m + 1`` values are the left bias and its last
``m + 1``, read backwards, the right bias; the 5 values between them,
which no interface needs, are dropped.

Each quantity of a line is computed once and read back through views:
the multiples ``2w, 3w, 4w, 5w, 7w, 11w``, and the curvature term
``13/12 ((a - 2b) + c)^2`` and central term ``0.25 (a - c)^2`` of every
3-cell window, the curvature read at three shifts.

At the 1D experiments' sizes a kernel costs per numpy call, not per
value.  So each line shape gets a plan that owns a buffer per quantity,
with the three weights and the three candidate values each stacked for
one call, and every view the kernel reads.  A call copies its line in
and returns fresh arrays.  Each numpy call is also dispatched at its
cheapest (numpy 2.4.6, m = 100, 2-vCPU AMD EPYC): constants are
read-only 0-d float64 arrays (an operation takes about 160 ns with one,
290-330 ns with a numpy or Python float), outputs go by position (25 ns
less than ``out=``), and the plan holds the linear weights at the full
shape of the weights they divide (220 ns, 670 ns broadcast).  A
plan holds about 18 floats per value of its line.  Plans are cached by
shape up to a fixed budget of bytes, and the oldest go first when a new
one does not fit; a plan larger than the budget is built, used and not
kept.  The cache is not safe for two threads at once, and a forked
process gets its own copy.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["WENO_EPS", "pad_periodic", "edge_from_left", "interface_states", "llf_split_flux"]

WENO_EPS = 1e-6  # regularization in the nonlinear weights

# a float as a read-only 0-d float64 array, the cheapest constant operand
_constant = functools.partial(np.broadcast_to, shape=())
_CURVATURE, _QUARTER, _EPS, _SIX = map(_constant, (13.0 / 12.0, 0.25, WENO_EPS, 6.0))

# The plan cache keeps at most this many bytes of plans.  A plan is charged
# its buffers and 6 KB for its views and array headers (measured with
# tracemalloc: about 5.3 KB).  The package's own plans, a few per run on
# lines of at most 8192 values, take under 1 MB each.
_PLAN_CACHE_BYTES = 32 * 2**20
_PLAN_OBJECT_BYTES = 6144


def pad_periodic(u: np.ndarray) -> np.ndarray:
    """The lines of ``u`` with three periodic ghost cells on each side."""
    return u.take(_periodic_index(u.shape[-1]), axis=-1)


@functools.lru_cache(maxsize=128)
def _periodic_index(m: int) -> np.ndarray:
    """Cells read by :func:`pad_periodic` on a line of ``m`` cells: the
    last three, all ``m``, then the first three, wrapping around a line
    shorter than three cells as often as it takes."""
    if m < 1:
        raise ValueError("pad_periodic needs a line of at least 1 cell, got length 0")
    index = np.arange(-3, m + 3) % m
    index.flags.writeable = False  # one cached array serves every caller
    return index


class _Plan:
    """The buffers and views of one line shape.  ``load`` copies a line
    in, ``load_mirrored`` fills the two halves of the line, and both form
    the multiples and central terms; ``edge`` evaluates the left bias."""

    def __init__(self, shape: tuple):
        _check_line(shape)
        lead, length, n = shape[:-1], shape[-1], shape[-1] - 5
        axes = (1,) * len(shape)
        self.factors = np.reshape([2.0, 3.0, 4.0, 5.0, 7.0, 11.0], (6,) + axes)
        alpha, p = np.empty((3,) + lead + (n,)), np.empty((3,) + lead + (n,))
        self.gammas = np.broadcast_to(np.reshape([0.1, 0.6, 0.3], (3,) + axes), alpha.shape).copy()
        w, self.multiples = np.empty(shape), np.empty((6,) + shape)
        w2, w3, w4, w5, w7, w11 = self.multiples
        # the stacked rows, the outer weights 0 and 2, and every single row
        self.rows = (alpha, alpha[::2], *alpha, p, *p)
        terms = np.empty((2,) + lead + (length - 2,))
        central, curv = terms
        self.nbytes = _PLAN_OBJECT_BYTES + sum(
            b.nbytes for b in (w, self.multiples, alpha, p, self.gammas, terms))

        def cut(values, start, size=n):
            return values[..., start:start + size]

        # the first, doubled middle and last cell of every 3-cell window
        lo, mid, hi = cut(w, 0, length - 2), cut(w2, 1, length - 2), cut(w, 2, length - 2)
        self.shared = w, lo, hi, central
        # the two halves of an even line, the second one back to front
        half = length // 2
        self.halves = w[..., :half], w[..., half:][..., ::-1]
        # curv[j] and central[j] are the terms of the window centred on
        # cell j + 1; interface k reads cells k..k+4 as (a, b, c, d, e)
        self.views = (lo, mid, hi, curv,
                      cut(w, 0), cut(w4, 1), cut(w3, 2), cut(w4, 3), cut(w, 4),
                      cut(curv, 0), cut(curv, 1), cut(central, 1), cut(curv, 2),
                      cut(w2, 0), cut(w7, 1), cut(w11, 2),
                      cut(w5, 2), cut(w, 1), cut(w2, 3), cut(w2, 2), cut(w5, 3))

    def load(self, values) -> _Plan:
        """Copy a line in and form its multiples and central terms."""
        np.copyto(self.shared[0], values)
        return self._form()

    def load_mirrored(self, first, second) -> _Plan:
        """Copy ``first`` into the first half of the line and the mirror
        image of ``second`` into the second half, and form the multiples
        and central terms."""
        head, tail = self.halves
        np.copyto(head, first)
        np.copyto(tail, second)
        return self._form()

    def _form(self) -> _Plan:
        w, lo, hi, central = self.shared
        np.multiply(self.factors, w, self.multiples)
        np.subtract(lo, hi, central)
        np.multiply(central, central, central)
        np.multiply(central, _QUARTER, central)
        return self

    def edge(self) -> np.ndarray:
        """Left-biased WENO5 values at every interface of the loaded line.

        With ``(a, b, c, d, e)`` the cells ``k..k+4`` of interface ``k``
        this evaluates

            p0 = (2a - 7b + 11c) / 6
            p1 = (-b + 5c + 2d) / 6
            p2 = (2c + 5d - e) / 6
            beta0 = 13/12 (a - 2b + c)^2 + 1/4 (a - 4b + 3c)^2
            beta1 = 13/12 (b - 2c + d)^2 + 1/4 (b - d)^2
            beta2 = 13/12 (c - 2d + e)^2 + 1/4 (3c - 4d + e)^2
            alpha_k = gamma_k / (eps + beta_k)^2
            value = (alpha0 p0 + alpha1 p1 + alpha2 p2) / (alpha0 + alpha1 + alpha2)

        left to right, in place.  Commuting the two operands of one ``+``
        or ``*`` is exact, and ``-b + 5c`` is ``5c - b`` exactly.
        """
        (lo, mid, hi, curv, wa, w4b, w3c, w4d, we, cb, cc, central, cd,
         w2a, w7b, w11c, w5c, wb, w2d, w2c, w5d) = self.views
        alpha, outer, alpha0, alpha1, alpha2, p, p0, p1, p2 = self.rows
        add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide

        # 13/12 (a - 2b + c)^2 on every 3-cell window
        subtract(lo, mid, curv)
        add(curv, hi, curv)
        multiply(curv, curv, curv)
        multiply(curv, _CURVATURE, curv)

        # the indicators beta_k, turned into the weights alpha_k in place
        subtract(wa, w4b, alpha0)
        add(alpha0, w3c, alpha0)
        subtract(w3c, w4d, alpha2)
        add(alpha2, we, alpha2)
        multiply(outer, outer, outer)
        multiply(outer, _QUARTER, outer)
        add(alpha0, cb, alpha0)
        add(cc, central, alpha1)
        add(alpha2, cd, alpha2)
        add(alpha, _EPS, alpha)
        multiply(alpha, alpha, alpha)
        divide(self.gammas, alpha, alpha)

        subtract(w2a, w7b, p0)
        add(p0, w11c, p0)
        subtract(w5c, wb, p1)
        add(p1, w2d, p1)
        add(w2c, w5d, p2)
        subtract(p2, we, p2)
        divide(p, _SIX, p)

        multiply(p, alpha, p)
        value = add(p0, p1)
        add(value, p2, value)
        add(alpha0, alpha1, alpha0)
        add(alpha0, alpha2, alpha0)
        divide(value, alpha0, value)
        return value


class _PlanCache(dict):
    """Plans by line shape, holding at most ``budget`` bytes of plans in
    all and dropping the oldest first; a larger plan is built and not kept."""

    def __init__(self, budget: int):
        super().__init__()
        self.budget, self.nbytes = budget, 0

    def __missing__(self, shape: tuple) -> _Plan:
        plan = _Plan(shape)
        if plan.nbytes <= self.budget:
            self.nbytes += plan.nbytes
            while self.nbytes > self.budget:
                self.nbytes -= self.pop(next(iter(self))).nbytes
            self[shape] = plan
        return plan


_plans = _PlanCache(_PLAN_CACHE_BYTES)


def _check_line(shape: tuple) -> None:
    if not shape or shape[-1] < 6:
        got = f"length {shape[-1]}" if shape else "a 0-d input"
        raise ValueError(f"WENO5 needs a padded line of at least 6 values, got {got}")


def _mirrored_plan(shape: tuple) -> _Plan:
    """The plan of a line of shape ``shape`` followed by a mirror image."""
    _check_line(shape)
    return _plans[shape[:-1] + (2 * shape[-1],)]


def edge_from_left(w: np.ndarray) -> np.ndarray:
    """Left-biased interface values from a padded line.

    For interfaces ``i = 0..m`` this uses cells ``i-3..i+1`` and returns
    the reconstruction at the right edge of cell ``i-1`` (the upwind value
    for positive wind).
    """
    return _plans[w.shape].load(w).edge()


def interface_states(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reconstructed left/right states ``(u_minus, u_plus)`` at all interfaces.

    ``u_minus`` is :func:`edge_from_left` of ``w``; ``u_plus``, the right
    bias, is :func:`edge_from_left` of ``w`` reversed, read backwards.  One
    left-biased pass over ``w`` followed by its mirror image gives both,
    as two views of one fresh array that do not overlap.
    """
    shape = np.shape(w)
    values = _mirrored_plan(shape).load_mirrored(w, w).edge()
    n = shape[-1] - 5
    return values[..., :n], values[..., :-n - 1:-1]


def llf_split_flux(phi_pad: np.ndarray, u_pad: np.ndarray, alpha) -> np.ndarray:
    """Interface fluxes via Lax-Friedrichs flux splitting.

    ``phi_pad`` holds pointwise fluxes and ``u_pad`` the states, both
    padded; ``alpha`` is the dissipation speed (scalar or broadcastable
    against the padded line).  The split parts ``(phi +/- alpha u)/2``
    are reconstructed with opposite bias and summed: one left-biased pass
    over ``fplus`` followed by the mirror image of ``fminus``.
    """
    spread = alpha * u_pad
    fplus, fminus = (phi_pad + spread) * 0.5, (phi_pad - spread) * 0.5
    values = _mirrored_plan(fplus.shape).load_mirrored(fplus, fminus).edge()
    n = fplus.shape[-1] - 5
    return values[..., :n] + values[..., :-n - 1:-1]
