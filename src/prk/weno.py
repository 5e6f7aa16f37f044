"""WENO5 reconstruction kernels (classic smoothness-weighted stencils).

All kernels act on the last axis and expect arrays padded with three
ghost cells on each side, so a line of ``m`` cells comes in with length
``m + 6`` and produces values at the ``m + 1`` interfaces.

The kernels are bitwise equal to the textbook evaluation of the five-cell
formula at every interface (Jiang & Shu's indicators, written out in
``_edge``), and that equality is part of their contract.  They get there
by computing each quantity of a padded line once and reading it back
through slices: the multiples ``2w, 3w, 4w, 5w, 7w, 11w``, the curvature
term ``13/12 ((a - 2b) + c)^2`` of every 3-cell window, which the three
indicators of one bias read at three shifts, and the central term
``0.25 (b - d)^2``, which both biases share because squaring removes the
sign.  Floating-point operations are not associative, so each one keeps
the textbook's operand order: ``(a - 2b) + c`` and ``(c - 2b) + a`` round
differently, which is why the curvature terms of the two biases are not
shared.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "WENO_EPS",
    "pad_periodic",
    "edge_from_left",
    "interface_states",
    "llf_split_flux",
]

WENO_EPS = 1e-6  # regularization in the nonlinear weights
_GAMMAS = (0.1, 0.6, 0.3)

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


@functools.lru_cache(maxsize=128)
def _windows(ndim: int, length: int, offsets: tuple) -> tuple:
    """The index plan of one padded line shape and bias, built once.

    Returns ``(cells, centred, first, mid, last)``: the windows of the
    five cells ``a..e`` at ``offsets``, the windows centred on ``b``, ``c``
    and ``d`` in the per-window quantities, and the first, middle and last
    cell of every 3-cell window, read in the direction from ``a`` to ``c``.
    A 1D line is indexed by plain slices, a batch of lines by
    ``(..., slice)``.
    """
    def window(start: int, size: int):
        cut = slice(start, start + size)
        return cut if ndim == 1 else (Ellipsis, cut)

    n = length - 5
    cells = tuple(window(o, n) for o in offsets)
    centred = tuple(window(o - 1, n) for o in offsets[1:4])
    lo, mid, hi = (window(o, length - 2) for o in (0, 1, 2))
    first, last = (lo, hi) if offsets[0] < offsets[2] else (hi, lo)
    return cells, centred, first, mid, last


def _line(w):
    """The quantities of a padded line that both biases share bit for bit.

    Returns ``(w, (2w, 3w, 4w, 5w, 7w, 11w), central)`` with
    ``central[j] = 0.25 (w[j] - w[j+2])^2``.
    """
    w = np.asarray(w, dtype=float)
    _, _, lo, _, hi = _windows(w.ndim, w.shape[-1], _LEFT)  # left bias: lo to hi
    multiples = (2.0 * w, 3.0 * w, 4.0 * w, 5.0 * w, 7.0 * w, 11.0 * w)
    central = w[lo] - w[hi]
    central *= central
    central *= 0.25
    return w, multiples, central


def _edge(line, offsets) -> np.ndarray:
    """WENO5 values at every interface of a line prepared by :func:`_line`.

    With ``(a, b, c, d, e)`` the cells at ``offsets`` this evaluates

        p0 = (2a - 7b + 11c) / 6
        p1 = (-b + 5c + 2d) / 6
        p2 = (2c + 5d - e) / 6
        beta0 = 13/12 (a - 2b + c)^2 + 1/4 (a - 4b + 3c)^2
        beta1 = 13/12 (b - 2c + d)^2 + 1/4 (b - d)^2
        beta2 = 13/12 (c - 2d + e)^2 + 1/4 (3c - 4d + e)^2
        alpha_k = gamma_k / (eps + beta_k)^2
        value = (alpha0 p0 + alpha1 p1 + alpha2 p2) / (alpha0 + alpha1 + alpha2)

    left to right, in place.  Commuting the two operands of one ``+`` or
    ``*`` is exact, and ``-b + 5c`` is ``5c - b`` exactly.
    """
    w, (w2, w3, w4, w5, w7, w11), central = line
    (a, b, c, d, e), (cb, cc, cd), first, mid, last = _windows(w.ndim, w.shape[-1], offsets)

    # 13/12 (a - 2b + c)^2 on every 3-cell window, oriented from a to c;
    # curv[j] belongs to the window centered on cell j + 1
    curv = w[first] - w2[mid]
    curv += w[last]
    curv *= curv
    curv *= 13.0 / 12.0

    # the indicators beta_k, turned into the weights alpha_k in place
    w3c, we = w3[c], w[e]
    alpha0 = w[a] - w4[b]
    alpha0 += w3c
    alpha0 *= alpha0
    alpha0 *= 0.25
    alpha0 += curv[cb]
    alpha1 = curv[cc] + central[cc]
    alpha2 = w3c - w4[d]
    alpha2 += we
    alpha2 *= alpha2
    alpha2 *= 0.25
    alpha2 += curv[cd]
    for alpha, gamma in zip((alpha0, alpha1, alpha2), _GAMMAS):
        alpha += WENO_EPS
        alpha *= alpha
        np.divide(gamma, alpha, out=alpha)

    p0 = w2[a] - w7[b]
    p0 += w11[c]
    p0 /= 6.0
    p1 = w5[c] - w[b]
    p1 += w2[d]
    p1 /= 6.0
    p2 = w2[c] + w5[d]
    p2 -= we
    p2 /= 6.0

    p0 *= alpha0
    p1 *= alpha1
    p2 *= alpha2
    p0 += p1
    p0 += p2
    alpha0 += alpha1
    alpha0 += alpha2
    p0 /= alpha0
    return p0


def edge_from_left(w: np.ndarray) -> np.ndarray:
    """Left-biased interface values from a padded line.

    For interfaces ``i = 0..m`` this uses cells ``i-3..i+1`` and returns
    the reconstruction at the right edge of cell ``i-1`` (the upwind value
    for positive wind).
    """
    return _edge(_line(w), _LEFT)


def interface_states(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reconstructed left/right states ``(u_minus, u_plus)`` at all interfaces;
    ``u_plus`` is the mirror image of :func:`edge_from_left`."""
    line = _line(w)
    return _edge(line, _LEFT), _edge(line, _RIGHT)


def llf_split_flux(phi_pad: np.ndarray, u_pad: np.ndarray, alpha) -> np.ndarray:
    """Interface fluxes via Lax-Friedrichs flux splitting.

    ``phi_pad`` holds pointwise fluxes and ``u_pad`` the states, both
    padded; ``alpha`` is the dissipation speed (scalar or broadcastable
    against the padded line).  The split parts ``(phi +/- alpha u)/2``
    are reconstructed with opposite bias and summed.
    """
    spread = alpha * u_pad
    fplus = phi_pad + spread
    fplus *= 0.5
    fminus = phi_pad - spread
    fminus *= 0.5
    out = _edge(_line(fplus), _LEFT)
    out += _edge(_line(fminus), _RIGHT)
    return out
