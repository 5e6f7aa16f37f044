"""Semi-discrete right-hand sides: upwind, WENO5 advection, Burgers, 2D rotation.

Every builder returns a :class:`SemiDiscreteProblem` from its grid and
its interface ``flux(t, v)``; the problem builds ``rhs`` once from them,
as ``grid.divergence`` of ``flux``.  Cell-based decompositions mask
``rhs``, flux-based ones mask ``flux``, so both split the same operator.
Both grids give ``centres``, ``measure`` (mass and norm weights),
``min_width``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# llf_split_flux is not called here; perfbench/child.py wraps it by name
from .weno import (
    _constant,
    edge_from_left,
    interface_states,
    llf_split_flux,
    pad_periodic,
)

__all__ = [
    "Grid1D",
    "Grid2D",
    "SemiDiscreteProblem",
    "upwind1d",
    "advection1d_weno5",
    "burgers_llf",
    "advection2d",
    "norms",
]


@dataclass(frozen=True)
class Grid1D:
    """Cell-centered 1D grid; ``edges`` has length ``m + 1``."""

    x: np.ndarray
    dx: np.ndarray
    edges: np.ndarray
    periodic: bool

    @property
    def m(self) -> int:
        return self.x.size

    @property
    def centres(self) -> tuple[np.ndarray]:
        return (self.x,)

    @property
    def measure(self) -> np.ndarray:
        return self.dx

    @property
    def min_width(self) -> float:
        return float(np.min(self.dx))

    def divergence(self, phi: np.ndarray) -> np.ndarray:
        """Conservative difference of the ``m + 1`` interface fluxes."""
        return (phi[:-1] - phi[1:]) / self.dx


@dataclass(frozen=True)
class Grid2D:
    """Uniform cell-centered square grid on the unit square."""

    n: int
    h: float
    x: np.ndarray
    y: np.ndarray

    @property
    def edges(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n + 1)

    @property
    def centres(self) -> tuple[np.ndarray, np.ndarray]:
        return tuple(np.meshgrid(self.x, self.y))

    @property
    def measure(self) -> float:
        return self.h ** 2

    @property
    def min_width(self) -> float:
        return self.h

    def divergence(self, phi) -> np.ndarray:
        """Conservative difference of x-face and y-face fluxes ``(fx, fy)``."""
        fx, fy = phi
        return (fx[:, :-1] - fx[:, 1:]) / self.h + (fy[:-1, :] - fy[1:, :]) / self.h


@dataclass
class SemiDiscreteProblem:
    """A grid plus evaluators describing ``u' = F(t, u)``.

    ``flux(t, v)`` gives the interface fluxes that ``grid.divergence``
    takes (``(fx, fy)`` in 2D).  ``rhs(t, v)`` is built once, at
    construction, as ``grid.divergence(flux(t, v))`` from the divergence
    and flux bound then: rebinding ``flux`` later does not change ``rhs``.
    """

    grid: Grid1D | Grid2D
    flux: Callable
    exact: Callable[[float], np.ndarray] | None = None
    initial: np.ndarray | None = None
    max_speed: float = 1.0
    rhs: Callable[[float, np.ndarray], np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        divergence, flux = self.grid.divergence, self.flux
        self.rhs = lambda t, v: divergence(flux(t, v))


_HALF, _ZERO = _constant(0.5), _constant(0.0)  # cheaper operands than floats


def _uniform_grid(m: int, periodic: bool) -> Grid1D:
    edges = np.linspace(0.0, 1.0, m + 1)
    dx = np.diff(edges)
    x = 0.5 * (edges[:-1] + edges[1:])
    return Grid1D(x=x, dx=dx, edges=edges, periodic=periodic)


# ----------------------------------------------------------------------
# first-order upwind advection
# ----------------------------------------------------------------------

def upwind1d(
    m: int | None = None,
    dx=None,
    boundary: str = "inflow",
) -> SemiDiscreteProblem:
    """First-order upwind discretization of ``u_t + u_x = 0``.

    ``u_j' = (u_{j-1} - u_j) / dx_j`` with either a periodic wrap or zero
    inflow at the left boundary, so the operator is linear;
    ``prk.analysis.linearize_parts`` reads its matrix off a split of
    ``rhs``.  ``dx`` may be a scalar (with ``m``) or one finite positive
    width per cell (nonuniform grids).
    """
    if boundary not in ("inflow", "periodic"):
        raise ValueError(f"unknown boundary rule {boundary!r}")
    periodic = boundary == "periodic"
    if dx is None and m is None:
        raise ValueError("need m or dx")
    if (np.size(dx) if m is None else m) < 2:
        raise ValueError("need at least two cells")
    dx = np.atleast_1d(np.asarray(1.0 / m if dx is None else dx, dtype=float))
    if dx.size == 1:
        dx = np.full(m, dx[0])
    if m is not None and m != dx.size:
        raise ValueError(f"m = {m} disagrees with the {dx.size} cell widths of dx")
    if not np.all(np.isfinite(dx) & (dx > 0.0)):
        raise ValueError("cell widths must be finite and positive")
    m = dx.size
    edges = np.concatenate([[0.0], np.cumsum(dx)])
    x = 0.5 * (edges[:-1] + edges[1:])
    grid = Grid1D(x=x, dx=dx, edges=edges, periodic=periodic)

    def flux(t, v):
        phi = np.empty(m + 1)
        phi[1:] = v
        phi[0] = v[-1] if periodic else 0.0
        return phi

    return SemiDiscreteProblem(grid=grid, flux=flux)


# ----------------------------------------------------------------------
# WENO5 advection with smooth exact solution
# ----------------------------------------------------------------------

def advection1d_weno5(m: int) -> SemiDiscreteProblem:
    """Periodic advection ``u_t + u_x = 0`` with WENO5 fluxes.

    The attached exact solution is ``sin^2(pi (x - t))``, 1-periodic in
    both space and time.
    """
    if m < 6:
        raise ValueError("WENO5 needs at least 6 cells")
    grid = _uniform_grid(m, periodic=True)

    def flux(t, v):
        return edge_from_left(pad_periodic(v))

    def exact(t):
        return np.sin(np.pi * (grid.x - t)) ** 2

    return SemiDiscreteProblem(
        grid=grid,
        flux=flux,
        exact=exact,
        initial=exact(0.0),
    )


# ----------------------------------------------------------------------
# Burgers with local Lax-Friedrichs fluxes
# ----------------------------------------------------------------------

def burgers_llf(m: int) -> SemiDiscreteProblem:
    """Periodic Burgers equation, WENO5 states and local LF fluxes.

    The numerical flux is ``(f(u-) + f(u+) + alpha (u- - u+)) / 2`` with
    ``f(u) = u^2 / 2`` and ``alpha = max(|u-|, |u+|)``; since ``|f'|`` is
    monotone in ``|u|`` the local wave-speed maximum sits at an endpoint.
    The initial state is the unit block profile on the left half, so the
    default ``max_speed`` of 1 is ``max |u0|``.
    """
    if m < 6:
        raise ValueError("WENO5 needs at least 6 cells")
    grid = _uniform_grid(m, periodic=True)

    def flux(t, v):
        um, up = interface_states(pad_periodic(v))
        alpha = np.maximum(np.abs(um), np.abs(up))
        return _HALF * (_HALF * um**2 + _HALF * up**2 + alpha * (um - up))

    return SemiDiscreteProblem(grid=grid, flux=flux, initial=(grid.x < 0.5).astype(float))


# ----------------------------------------------------------------------
# 2D solid-body rotation
# ----------------------------------------------------------------------

def advection2d(n: int) -> SemiDiscreteProblem:
    """Variable-coefficient advection on the unit square.

    ``u_t + (a1 u)_x + (a2 u)_y = 0`` with the clockwise rotation field
    ``a1 = 2 pi (y - 1/2)``, ``a2 = -2 pi (x - 1/2)`` and a Gaussian
    initial profile centered at (1/2, 1/4).  Dirichlet data at the domain
    boundary are taken from the exact rotated solution at the evaluation
    time, so stage evaluations see consistent ghost values.  States are
    arrays of shape ``(n, n)`` indexed ``[iy, ix]``; ``flux`` raises
    ``ValueError`` for any other shape.

    The fluxes are upwind-only: the speed is constant along every x-line
    (``a1``) and y-line (``a2``), so with ``alpha = |a|`` the downwind half
    of the Lax-Friedrichs split is exactly ``+0``.  The ``2n`` padded
    lines, one row each and reversed where its speed is negative (bitwise
    the right-biased reconstruction), go through the left-biased kernel
    in blocks of whole rows.  Adding ``0.0`` puts back the zero half
    (``-0`` becomes ``+0``), so on finite states the fluxes are
    ``llf_split_flux(a u, u, |a|)`` byte for byte.
    """
    if n < 6:
        raise ValueError("WENO5 needs at least 6 cells per direction")
    h = 1.0 / n
    x = (np.arange(n) + 0.5) * h
    y = (np.arange(n) + 0.5) * h
    grid = Grid2D(n=n, h=h, x=x, y=y)

    def exact_point(px, py, t):
        angle = 2.0 * np.pi * t
        cs, sn = np.cos(angle), np.sin(angle)
        xi, eta = px - 0.5, py - 0.5
        x0 = 0.5 + xi * cs - eta * sn
        y0 = 0.5 + eta * cs + xi * sn
        return np.exp(-10.0 * ((x0 - 0.5) ** 2 + (y0 - 0.25) ** 2))

    X, Y = grid.centres

    def exact(t):
        return exact_point(X, Y, t)

    # the source vector holds the state (row major), then the ghost ring:
    # the 3 layers on every side of the padded frame, corners excluded
    nn, p = n * n, n + 6
    frame = np.zeros((p, p), dtype=np.intp)
    frame[3:-3, :] = frame[:, 3:-3] = nn
    frame[3:-3, 3:-3] = np.arange(nn).reshape(n, n)
    gy, gx = np.nonzero(frame == nn)
    frame[gy, gx] += np.arange(gy.size)
    g = (np.arange(-3, n + 3) + 0.5) * h
    ring_x, ring_y = g[gx], g[gy]

    # one row per padded x-line, then y-line, reversed where its speed is
    # negative; ``kept`` undoes the reversal.  The kernel runs on blocks of
    # whole rows, at most 8192 values each (one block up to n = 61; at
    # n = 100 and 200 blocks measured faster than one call over all rows).
    speed = np.concatenate([2.0 * np.pi * (y - 0.5), -2.0 * np.pi * (x - 0.5)])
    mirrored = speed < 0.0
    lines = np.concatenate([frame[3:-3, :], frame[:, 3:-3].T])
    kept = np.arange(2 * n * (n + 1)).reshape(2 * n, n + 1)
    lines[mirrored], kept[mirrored] = lines[mirrored, ::-1], kept[mirrored, ::-1]
    per = max(1, 8192 // p)
    blocks = [slice(j, j + per) for j in range(0, 2 * n, per)]
    speeds = np.repeat(speed[:, None], p, axis=1)
    scatter = np.concatenate([kept[:n].ravel(), kept[n:].T.ravel()])  # fx, then fy

    # kept buffers; the ghost ring is refilled only when t changes
    src = np.empty(nn + gy.size)
    state = src[:nn].reshape(n, n)
    phi, edges = np.empty(lines.shape), np.empty(kept.shape)
    ghost_t = None

    def flux(t, v):
        nonlocal ghost_t
        if np.shape(v) != (n, n):
            raise ValueError(f"state of shape {np.shape(v)}, need {(n, n)}")
        if t != ghost_t:
            src[nn:] = exact_point(ring_x, ring_y, t)
            ghost_t = t
        state[...] = v
        np.multiply(src.take(lines, out=phi), speeds, out=phi)
        out = np.concatenate([edge_from_left(phi[b]) for b in blocks], out=edges).take(scatter)
        out += _ZERO
        return out[:nn + n].reshape(n, n + 1), out[nn + n:].reshape(n + 1, n)

    return SemiDiscreteProblem(
        grid=grid,
        flux=flux,
        exact=exact,
        initial=exact(0.0),
        max_speed=2.0 * np.pi,
    )


# ----------------------------------------------------------------------
# error norms
# ----------------------------------------------------------------------

def norms(v: np.ndarray, dx) -> dict[str, float]:
    """Maximum norm and cell-weighted discrete L1 norm of ``v``."""
    v = np.asarray(v)
    dx = np.asarray(dx, dtype=float)
    if dx.ndim and dx.shape != v.shape:
        raise ValueError("weight array must match the state shape")
    return {
        "linf": float(np.max(np.abs(v))) if v.size else 0.0,
        "l1": float(np.sum(dx * np.abs(v))),
    }
