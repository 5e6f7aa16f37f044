"""Semi-discrete right-hand sides: upwind, WENO5 advection, Burgers, 2D rotation.

Every builder returns a :class:`SemiDiscreteProblem` whose ``rhs`` is a
pure function of ``(t, v)``: the grid's ``divergence`` of the interface
fluxes, which flux-based decompositions evaluate through ``flux``.  Both
grids give ``centres``, ``measure`` (mass and norm weights), ``min_width``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# llf_split_flux is not called here; perfbench/child.py wraps it by name
from .weno import (
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

    ``flux`` is the interface-flux evaluator needed for flux-based
    decompositions (a pair of evaluators in 2D).  When the right-hand
    side is affine, ``linear_matrix`` holds ``L`` and ``forcing`` the
    inhomogeneous term ``g(t)`` with ``F(t, v) = L v + g(t)``.
    """

    grid: Grid1D | Grid2D
    rhs: Callable[[float, np.ndarray], np.ndarray]
    flux: Callable | tuple[Callable, Callable] | None = None
    linear_matrix: np.ndarray | None = None
    forcing: Callable[[float], np.ndarray] | None = None
    exact: Callable[[float], np.ndarray] | None = None
    exact_point: Callable | None = None
    initial: np.ndarray | None = None
    max_speed: float | Callable | None = None
    name: str = ""


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
    inflow=0.0,
) -> SemiDiscreteProblem:
    """First-order upwind discretization of ``u_t + u_x = 0``.

    ``u_j' = (u_{j-1} - u_j) / dx_j`` with either a periodic wrap or an
    inflow value at the left boundary.  ``dx`` may be a scalar or a
    per-cell array (nonuniform grids); the explicit bidiagonal matrix is
    attached as ``linear_matrix``.
    """
    if boundary not in ("inflow", "periodic"):
        raise ValueError(f"unknown boundary rule {boundary!r}")
    periodic = boundary == "periodic"
    if dx is None:
        if m is None:
            raise ValueError("need m or dx")
        dx = np.full(m, 1.0 / m)
    else:
        dx = np.atleast_1d(np.asarray(dx, dtype=float))
        if dx.size == 1 and m is not None:
            dx = np.full(m, dx[0])
        m = dx.size
    if m < 2:
        raise ValueError("need at least two cells")
    edges = np.concatenate([[0.0], np.cumsum(dx)])
    x = 0.5 * (edges[:-1] + edges[1:])
    grid = Grid1D(x=x, dx=dx, edges=edges, periodic=periodic)

    inflow_fn = inflow if callable(inflow) else (lambda t, _v=float(inflow): _v)

    L = np.zeros((m, m))
    L[np.arange(m), np.arange(m)] = -1.0 / dx
    L[np.arange(1, m), np.arange(m - 1)] = 1.0 / dx[1:]
    if periodic:
        L[0, m - 1] = 1.0 / dx[0]

    def flux(t, v):
        phi = np.empty(m + 1)
        phi[1:] = v
        phi[0] = v[-1] if periodic else inflow_fn(t)
        return phi

    def rhs(t, v):
        return grid.divergence(flux(t, v))

    forcing = None
    if not periodic:
        def forcing(t):
            g = np.zeros(m)
            g[0] = inflow_fn(t) / dx[0]
            return g

    return SemiDiscreteProblem(
        grid=grid,
        rhs=rhs,
        flux=flux,
        linear_matrix=L,
        forcing=forcing,
        max_speed=1.0,
        name="upwind1d",
    )


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

    def rhs(t, v):
        return grid.divergence(flux(t, v))

    def exact(t):
        return np.sin(np.pi * (grid.x - t)) ** 2

    return SemiDiscreteProblem(
        grid=grid,
        rhs=rhs,
        flux=flux,
        exact=exact,
        exact_point=lambda x, t: np.sin(np.pi * (x - t)) ** 2,
        initial=exact(0.0),
        max_speed=1.0,
        name="adv1d",
    )


# ----------------------------------------------------------------------
# Burgers with local Lax-Friedrichs fluxes
# ----------------------------------------------------------------------

def burgers_llf(m: int) -> SemiDiscreteProblem:
    """Periodic Burgers equation, WENO5 states and local LF fluxes.

    The numerical flux is ``(f(u-) + f(u+) + alpha (u- - u+)) / 2`` with
    ``f(u) = u^2 / 2`` and ``alpha = max(|u-|, |u+|)``; since ``|f'|`` is
    monotone in ``|u|`` the local wave-speed maximum sits at an endpoint.
    The initial state is the unit block profile on the left half.
    """
    if m < 6:
        raise ValueError("WENO5 needs at least 6 cells")
    grid = _uniform_grid(m, periodic=True)

    def flux(t, v):
        um, up = interface_states(pad_periodic(v))
        alpha = np.maximum(np.abs(um), np.abs(up))
        return 0.5 * (0.5 * um**2 + 0.5 * up**2 + alpha * (um - up))

    def rhs(t, v):
        return grid.divergence(flux(t, v))

    initial = (grid.x < 0.5).astype(float)

    return SemiDiscreteProblem(
        grid=grid,
        rhs=rhs,
        flux=flux,
        initial=initial,
        max_speed=lambda u: float(np.max(np.abs(u))),
        name="burgers",
    )


# ----------------------------------------------------------------------
# 2D solid-body rotation
# ----------------------------------------------------------------------

def _upwind_flux(speed, lines, mirrored):
    """WENO5 interface fluxes of ``speed * u`` on padded ``lines``.

    ``speed`` is a column, one value per line, and ``mirrored`` marks the
    lines where it is negative.  With ``alpha = |speed|`` Lax-Friedrichs
    splitting is plain upwinding: the downwind half
    ``(speed u -+ |speed| u) / 2`` is exactly ``+0``, so only the upwind
    half is reconstructed.  Mirrored lines are reversed, reconstructed
    from the left and reversed back, which is bitwise ``edge_from_right``;
    adding ``0.0`` puts back the zero half, which turns ``-0`` into ``+0``.
    On finite states the result is ``llf_split_flux(speed u, u, |speed|)``
    bit for bit.
    """
    phi = speed * lines
    phi[mirrored] = phi[mirrored, ::-1]
    out = edge_from_left(phi)
    out[mirrored] = out[mirrored, ::-1]
    out += 0.0
    return out


def advection2d(n: int) -> SemiDiscreteProblem:
    """Variable-coefficient advection on the unit square.

    ``u_t + (a1 u)_x + (a2 u)_y = 0`` with the clockwise rotation field
    ``a1 = 2 pi (y - 1/2)``, ``a2 = -2 pi (x - 1/2)`` and a Gaussian
    initial profile centered at (1/2, 1/4).  Dirichlet data at the domain
    boundary are taken from the exact rotated solution at the evaluation
    time, so stage evaluations see consistent ghost values.  States are
    arrays of shape ``(n, n)`` indexed ``[iy, ix]``.
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

    # ghost-strip coordinates (3 layers on every side, corners included
    # in the horizontal strips)
    xg = np.concatenate([(np.arange(-3, 0) + 0.5) * h, x, (np.arange(n, n + 3) + 0.5) * h])
    Xtop, Ytop = np.meshgrid(xg, (np.arange(-3, 0) + 0.5) * h)
    Xbot, Ybot = np.meshgrid(xg, (np.arange(n, n + 3) + 0.5) * h)
    Xlft, Ylft = np.meshgrid((np.arange(-3, 0) + 0.5) * h, y)
    Xrgt, Yrgt = np.meshgrid((np.arange(n, n + 3) + 0.5) * h, y)

    a1 = 2.0 * np.pi * (y - 0.5)   # constant along x
    a2 = -2.0 * np.pi * (x - 0.5)  # constant along y
    a1col, a1neg = a1[:, None], a1 < 0.0
    a2col, a2neg = a2[:, None], a2 < 0.0

    # the ghost strips of the last evaluation time: stages with equal
    # abscissae and the x/y halves of a flux split pad at the same t
    ghost_t, ghosts = None, None

    def _padded(t, v):
        nonlocal ghost_t, ghosts
        if ghosts is None or t != ghost_t:
            ghost_t = t
            ghosts = [exact_point(X, Y, t) for X, Y in
                      ((Xtop, Ytop), (Xbot, Ybot), (Xlft, Ylft), (Xrgt, Yrgt))]
        top, bottom, left, right = ghosts
        w = np.empty((n + 6, n + 6))
        w[3:-3, 3:-3] = v
        w[:3, :] = top
        w[-3:, :] = bottom
        w[3:-3, :3] = left
        w[3:-3, -3:] = right
        return w

    def flux_x(t, v, w=None):
        if w is None:
            w = _padded(t, v)
        return _upwind_flux(a1col, w[3:-3, :], a1neg)

    def flux_y(t, v, w=None):
        if w is None:
            w = _padded(t, v)
        return _upwind_flux(a2col, w[:, 3:-3].T, a2neg).T

    def rhs(t, v):
        w = _padded(t, v)
        return grid.divergence((flux_x(t, v, w), flux_y(t, v, w)))

    return SemiDiscreteProblem(
        grid=grid,
        rhs=rhs,
        flux=(flux_x, flux_y),
        exact=exact,
        exact_point=exact_point,
        initial=exact(0.0),
        max_speed=2.0 * np.pi,
        name="adv2d",
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
