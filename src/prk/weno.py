"""WENO5 reconstruction kernels (classic smoothness-weighted stencils).

All kernels act on the last axis and expect arrays padded with three
ghost cells on each side, so a line of ``m`` cells comes in with length
``m + 6`` (at least 6) and produces values at the ``m + 1`` interfaces.

The kernels are bitwise equal to the textbook evaluation of the five-cell
formula (Jiang & Shu's indicators, written out in ``_Plan.edge``), and
that equality is part of their contract.  Each quantity of a padded line
is computed once and read back through views: the multiples ``2w, 3w,
4w, 5w, 7w, 11w``, the curvature term ``13/12 ((a - 2b) + c)^2`` of every
3-cell window, read at three shifts, and the central term ``0.25 (b -
d)^2``, which both biases share.  Every operation keeps the textbook's
operand order, so the biases do not share curvature terms: ``(a - 2b) +
c`` and ``(c - 2b) + a`` round differently.

At the 1D experiments' sizes a kernel costs per numpy call, not per
value.  So each padded line shape gets a cached plan that owns a buffer
per quantity, with the three weights and the three candidate values each
stacked for one call, and every view the kernel reads.  A call copies
its line in and returns fresh arrays.  A plan holds about 16 floats per
value; it is not safe for two threads on one shape at once, and a forked
process gets its own copy.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["WENO_EPS", "pad_periodic", "edge_from_left", "interface_states", "llf_split_flux"]

WENO_EPS = 1e-6  # regularization in the nonlinear weights

# Offsets of the cells (a, b, c, d, e) of interface k in the padded line,
# relative to k: the left bias reads k..k+4 and the right bias is its
# mirror image k+5..k+1.  The value is taken at the edge of c facing d.
_LEFT = (0, 1, 2, 3, 4)
_RIGHT = (5, 4, 3, 2, 1)


def pad_periodic(u: np.ndarray) -> np.ndarray:
    """The lines of ``u`` with three periodic ghost cells on each side."""
    return u.take(_periodic_index(u.shape[-1]), axis=-1)


@functools.lru_cache(maxsize=128)
def _periodic_index(m: int) -> np.ndarray:
    """Cells read by :func:`pad_periodic` on a line of ``m`` cells: the
    last three, all ``m``, then the first three."""
    cells = np.arange(m)
    index = np.concatenate([cells[-3:], cells, cells[:3]])
    index.flags.writeable = False  # one cached array serves every caller
    return index


class _Plan:
    """The buffers and views of one padded line shape.  ``load`` copies a
    line in and forms what both biases share; ``edge`` evaluates one bias."""

    def __init__(self, shape: tuple):
        if not shape or shape[-1] < 6:
            got = f"length {shape[-1]}" if shape else "a 0-d input"
            raise ValueError(f"WENO5 needs a padded line of at least 6 values, got {got}")
        lead, length, n = shape[:-1], shape[-1], shape[-1] - 5
        axes = (1,) * len(shape)
        self.factors = np.reshape([2.0, 3.0, 4.0, 5.0, 7.0, 11.0], (6,) + axes)
        self.gammas = np.reshape([0.1, 0.6, 0.3], (3,) + axes)  # the linear weights
        w, self.multiples = np.empty(shape), np.empty((6,) + shape)
        w2, w3, w4, w5, w7, w11 = self.multiples
        alpha, p = np.empty((3,) + lead + (n,)), np.empty((3,) + lead + (n,))
        # the stacked rows, the outer weights 0 and 2, and every single row
        self.rows = (alpha, alpha[::2], *alpha, p, *p)
        central, *curvs = np.empty((3,) + lead + (length - 2,))

        def cut(values, start, size=n):
            return values[..., start:start + size]

        # the first, doubled middle and last cell of every 3-cell window
        lo, mid, hi = cut(w, 0, length - 2), cut(w2, 1, length - 2), cut(w, 2, length - 2)
        self.shared = w, lo, hi, central

        def views(curv, a, b, c, d, e):
            # curv[j] is the curvature term of the window centred on cell j + 1
            first, last = (lo, hi) if a < c else (hi, lo)  # read from a to c
            return (first, mid, last, curv,
                    cut(w, a), cut(w4, b), cut(w3, c), cut(w4, d), cut(w, e),
                    cut(curv, b - 1), cut(curv, c - 1), cut(central, c - 1), cut(curv, d - 1),
                    cut(w2, a), cut(w7, b), cut(w11, c),
                    cut(w5, c), cut(w, b), cut(w2, d), cut(w2, c), cut(w5, d))

        self.views = {o: views(curv, *o) for o, curv in zip((_LEFT, _RIGHT), curvs)}

    def load(self, values) -> _Plan:
        """Copy a line in and form its multiples and central terms."""
        w, lo, hi, central = self.shared
        np.copyto(w, values)
        np.multiply(self.factors, w, out=self.multiples)
        np.subtract(lo, hi, out=central)
        central *= central
        central *= 0.25
        return self

    def edge(self, offsets) -> np.ndarray:
        """WENO5 values at every interface of the loaded line.

        With ``(a, b, c, d, e)`` the cells at ``offsets`` this evaluates

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
        (first, mid, last, curv, wa, w4b, w3c, w4d, we, cb, cc, central, cd,
         w2a, w7b, w11c, w5c, wb, w2d, w2c, w5d) = self.views[offsets]
        alpha, outer, alpha0, alpha1, alpha2, p, p0, p1, p2 = self.rows

        # 13/12 (a - 2b + c)^2 on every 3-cell window, oriented from a to c
        np.subtract(first, mid, out=curv)
        curv += last
        curv *= curv
        curv *= 13.0 / 12.0

        # the indicators beta_k, turned into the weights alpha_k in place
        np.subtract(wa, w4b, out=alpha0)
        alpha0 += w3c
        np.subtract(w3c, w4d, out=alpha2)
        alpha2 += we
        outer *= outer
        outer *= 0.25
        alpha0 += cb
        np.add(cc, central, out=alpha1)
        alpha2 += cd
        alpha += WENO_EPS
        alpha *= alpha
        np.divide(self.gammas, alpha, out=alpha)

        np.subtract(w2a, w7b, out=p0)
        p0 += w11c
        np.subtract(w5c, wb, out=p1)
        p1 += w2d
        np.add(w2c, w5d, out=p2)
        p2 -= we
        p /= 6.0

        p *= alpha
        value = p0 + p1
        value += p2
        alpha0 += alpha1
        alpha0 += alpha2
        value /= alpha0
        return value


_plan = functools.lru_cache(maxsize=128)(_Plan)


def edge_from_left(w: np.ndarray) -> np.ndarray:
    """Left-biased interface values from a padded line.

    For interfaces ``i = 0..m`` this uses cells ``i-3..i+1`` and returns
    the reconstruction at the right edge of cell ``i-1`` (the upwind value
    for positive wind).
    """
    return _plan(np.shape(w)).load(w).edge(_LEFT)


def interface_states(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reconstructed left/right states ``(u_minus, u_plus)`` at all interfaces;
    ``u_plus`` is the mirror image of :func:`edge_from_left`."""
    plan = _plan(np.shape(w)).load(w)
    return plan.edge(_LEFT), plan.edge(_RIGHT)


def llf_split_flux(phi_pad: np.ndarray, u_pad: np.ndarray, alpha) -> np.ndarray:
    """Interface fluxes via Lax-Friedrichs flux splitting.

    ``phi_pad`` holds pointwise fluxes and ``u_pad`` the states, both
    padded; ``alpha`` is the dissipation speed (scalar or broadcastable
    against the padded line).  The split parts ``(phi +/- alpha u)/2``
    are reconstructed with opposite bias and summed.
    """
    spread = alpha * u_pad
    fplus, fminus = (phi_pad + spread) * 0.5, (phi_pad - spread) * 0.5
    plan = _plan(fplus.shape)
    out = plan.load(fplus).edge(_LEFT)
    out += plan.load(fminus).edge(_RIGHT)
    return out
