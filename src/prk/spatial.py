"""Semi-discrete right-hand sides: upwind, WENO5 advection, Burgers, 2D rotation.

Every builder returns a :class:`SemiDiscreteProblem` from its grid and
its interface ``flux(t, v, out=None)``, which writes into ``out`` when
given one; the problem builds ``rhs`` once from them, as the divergence
of ``flux``.  Cell-based decompositions mask that divergence, flux-based
ones mask ``flux`` before it, so both split the same operator, and
:func:`parts_op` makes the divergence and every split part one compiled
op (see :func:`prk.weno.ops_call`).  Both grids give ``centres``, ``measure`` (mass and
norm weights), ``min_width``, ``shape`` and ``flux_size``.

Every WENO5 flux makes one compiled call over buffers it owns.  The
advection and Burgers fluxes pad the state, reconstruct and, for Burgers,
form the local Lax-Friedrichs flux straight into the output (see
:func:`prk.weno.periodic_call`); the 2D rotation frames the state,
forms the speed products and reconstructs both directions through a run
table built with the problem, in one op (see
:func:`prk.weno.rotation_flux_op`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# edge_from_left, interface_states, llf_split_flux and pad_periodic are not
# called here; perfbench/child.py wraps all four on this module by name
# (with getattr), so they stay imported
from .weno import (
    edge_from_left,
    interface_states,
    llf_split_flux,
    ops_call,
    pad_periodic,
    periodic_call,
    rotation_exponent_op,
    rotation_flux_op,
    split_parts_op,
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

    @property
    def shape(self) -> tuple[int]:
        return (self.m,)

    @property
    def flux_size(self) -> int:
        return self.m + 1


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

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.n)

    @property
    def flux_size(self) -> int:
        return 2 * self.n * (self.n + 1)  # n (n + 1) x-faces, then as many y-faces


def parts_op(grid, phi, parts, out, cells=None, faces=None):
    """:func:`prk.weno.split_parts_op` on ``grid``: the rows ``parts`` of
    ``out`` get the conservative difference of the face fluxes ``phi`` (the
    x-faces, then in 2D the y-faces) over the grid's widths, masked by a
    region table; with no grid, ``phi`` is the right-hand side itself."""
    if grid is None:
        return split_parts_op(phi, None, 0, cells, faces, parts, out)
    width = (np.full(2 * grid.n, grid.h) if isinstance(grid, Grid2D)
             else np.ascontiguousarray(grid.dx, dtype=float))
    return split_parts_op(phi, width, len(grid.shape), cells, faces, parts, out)


def _rhs(grid, flux) -> Callable:
    """``rhs(t, v)``: ``flux`` into fluxes it owns, their divergence by a
    compiled call bound at the first call (so that building a problem loads
    no kernel), and a fresh copy."""
    phi, value = np.empty(grid.flux_size), np.empty((1,) + grid.shape)
    call = None

    def rhs(t, v):
        nonlocal call
        call = call or ops_call(parts_op(grid, phi, np.zeros(1, dtype=np.intp), value))
        flux(t, v, phi)
        call()
        return value[0].copy()

    return rhs


@dataclass
class SemiDiscreteProblem:
    """A grid plus evaluators describing ``u' = F(t, u)``.

    ``flux(t, v, out=None)`` gives the interface fluxes (``(fx, fy)`` in
    2D) into ``out``, a 1-d float64 array of ``grid.flux_size`` values
    (x-faces, then y-faces), or else a fresh array.  ``rhs(t, v)`` is built
    once, at construction, as their conservative difference (see
    :func:`parts_op`) from the grid and the flux bound then: rebinding
    ``flux`` later does not change ``rhs``.
    """

    grid: Grid1D | Grid2D
    flux: Callable
    exact: Callable[[float], np.ndarray] | None = None
    initial: np.ndarray | None = None
    max_speed: float = 1.0
    rhs: Callable[[float, np.ndarray], np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        self.rhs = _rhs(self.grid, self.flux)


def _uniform_grid(m: int, periodic: bool) -> Grid1D:
    edges = np.linspace(0.0, 1.0, m + 1)
    dx = np.diff(edges)
    x = 0.5 * (edges[:-1] + edges[1:])
    return Grid1D(x=x, dx=dx, edges=edges, periodic=periodic)


def _periodic_flux(m: int, entry: str) -> Callable:
    """The interface flux ``flux(t, v, out=None)`` of a periodic line of
    ``m`` cells: one call of the kernel entry ``entry`` (see
    :func:`prk.weno.periodic_call`) over a state and a padded line this flux
    owns, into ``out``, or else into values it owns and then a fresh copy.
    The call is bound for the last output given, at its first use, so that
    building the problem loads no kernel.  A state of any shape but
    ``(m,)`` raises ``ValueError``."""
    shape = (m,)
    state, line, values = np.empty(shape), np.empty(m + 6), np.empty(m + 1)
    run = target = None

    def flux(t, v, out=None):
        nonlocal run, target
        if out is None:
            return flux(t, v, values).copy()
        if getattr(v, "shape", None) != shape:  # cheaper than np.shape(v)
            raise ValueError(f"state of shape {np.shape(v)}, need {shape}")
        np.copyto(state, v)
        if out is not target:
            run, target = periodic_call(entry, state, line, out), out
        run()
        return out

    return flux


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

    def flux(t, v, out=None):
        phi = np.empty(m + 1) if out is None else out
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
    both space and time.  ``flux`` raises ``ValueError`` for a state of
    any shape but ``(m,)``.
    """
    if m < 6:
        raise ValueError("WENO5 needs at least 6 cells")
    grid = _uniform_grid(m, periodic=True)

    def exact(t):
        return np.sin(np.pi * (grid.x - t)) ** 2

    return SemiDiscreteProblem(
        grid=grid,
        flux=_periodic_flux(m, "weno5_periodic"),
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
    default ``max_speed`` of 1 is ``max |u0|``.  ``flux`` raises
    ``ValueError`` for a state of any shape but ``(m,)``.
    """
    if m < 6:
        raise ValueError("WENO5 needs at least 6 cells")
    grid = _uniform_grid(m, periodic=True)
    return SemiDiscreteProblem(grid=grid, flux=_periodic_flux(m, "burgers_llf_periodic"),
                               initial=(grid.x < 0.5).astype(float))


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
    of the Lax-Friedrichs split is exactly ``+0``.  One kernel call reads
    ``a u`` on the ``2n`` padded lines in place, each from its upwind
    side (read backwards where the speed is negative, bitwise the
    right-biased reconstruction).  Adding ``0.0`` puts back the zero half
    (``-0`` becomes ``+0``), so on finite states the fluxes are
    ``llf_split_flux(a u, u, |a|)`` byte for byte.

    A flux evaluation is one compiled call (:func:`prk.weno.ops_call` of
    :func:`prk.weno.rotation_flux_op`), bound at the first call for the
    last output given: it writes the ghost ring and the state into the
    padded frame, the speed products, the reconstruction and the ``+0``
    pass.  The ring values change only with ``t``: then a second compiled
    call forms the Gaussian's exponent at the ghost cells, with numpy's
    ``cos`` and ``sin`` of the angle and ``exp`` of the exponent, in the
    operations of ``exact``, so the ring keeps ``exact``'s bits.  An
    ``out`` other than a 1-d contiguous writeable float64 array of
    ``grid.flux_size`` values raises ``ValueError`` before any compiled
    call.
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

    # the padded frame's ghost ring (3 layers a side, corners excluded) at
    # the flat indices `ring`, and its cells' centres less (1/2, 1/2); its
    # values `ghosts` are computed again only when t changes.  The run
    # table reads the op's source: a1 times the padded x-lines (rows), then
    # a2 times the padded y-lines (columns).
    p = n + 6
    ring = np.zeros((p, p), dtype=bool)
    ring[3:-3, :] = ring[:, 3:-3] = True
    ring[3:-3, 3:-3] = False
    gy, gx = np.nonzero(ring)
    g = (np.arange(-3, n + 3) + 0.5) * h
    ring, xi, eta = gy * p + gx, g[gx] - 0.5, g[gy] - 0.5
    a1, a2 = 2.0 * np.pi * (y - 0.5), -2.0 * np.pi * (x - 0.5)
    state = np.empty(n * n)
    trig, ghosts = np.empty(2), np.empty(ring.size)
    square = state.reshape(n, n)

    # the run table: per row, its n + 1 x-faces with step +1, or from cell
    # 5 with step -1 where a1 < 0; per y-face row f, the columns where
    # a2 >= 0 from row f with step +n, then the rest (a2 falls with x)
    # from row f + 5 with step -n
    flip = (a1 < 0.0).astype(np.intp)
    cut = n - np.count_nonzero(a2 < 0.0)
    face_rows = n * p + n * np.arange(n + 1)
    starts = np.concatenate([p * np.arange(n) + 5 * flip,
                             np.column_stack([face_rows, face_rows + 5 * n + cut]).ravel()])
    counts = np.concatenate([np.full(n, n + 1), np.tile([cut, n - cut], n + 1)])
    steps = np.concatenate([1 - 2 * flip, np.tile([n, -n], n + 1)])
    values = np.empty(grid.flux_size)  # fx (n, n + 1), then fy (n + 1, n)
    run = target = exponents = ghost_t = None

    def flux(t, v, out=None):
        nonlocal run, target, exponents, ghost_t
        if np.shape(v) != (n, n):
            raise ValueError(f"state of shape {np.shape(v)}, need {(n, n)}")
        fresh = out is None
        if fresh:
            out = values
        if out is not target:
            run = ops_call(rotation_flux_op(state, a1, a2, ring, ghosts, starts, counts, steps,
                                            out))
            target = out
        if t != ghost_t:
            # exact_point's operations: numpy's cos, sin and exp around
            # the compiled exponent
            exponents = exponents or ops_call(rotation_exponent_op(xi, eta, trig, ghosts))
            angle = 2.0 * np.pi * t
            trig[0], trig[1] = np.cos(angle), np.sin(angle)
            exponents()
            np.exp(ghosts, ghosts)
            ghost_t = t
        square[...] = v
        run()
        if fresh:
            out = values.copy()
        return out[:n * n + n].reshape(n, n + 1), out[n * n + n:].reshape(n + 1, n)

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
