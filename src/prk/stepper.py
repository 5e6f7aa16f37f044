"""Explicit partitioned Runge-Kutta stepping and reference integration.

A run owns a *stage store*: part k of stage i is written in place by the
decomposition's ``eval_parts`` into row ``(i, k)``, and every stage value
and the new state is one compiled call over those rows (a
:func:`prk.weno.stage_sum_call` bound when the run starts), so a step
makes no numpy call of its own apart from the finiteness check.
"""

from __future__ import annotations

import math
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .decomposition import mass
from .tableau import PRKTableau
from .weno import stage_sum_call

__all__ = [
    "IntegrationDiverged",
    "IntegrationRun",
    "IntegrationResult",
    "whole_steps",
    "prk_step",
    "integrate",
    "reference_integrate",
    "forked_references",
]


class IntegrationDiverged(RuntimeError):
    """Raised when a stage or step produces non-finite values."""

    def __init__(self, message: str, step: int = -1, t: float = float("nan")):
        super().__init__(message)
        self.step = step
        self.t = t


def prk_step(tab: PRKTableau, parts, t: float, dt: float, u: np.ndarray) -> np.ndarray:
    """One step of the partitioned scheme from ``t`` to ``t + dt``.

    ``parts`` is a decomposition with ``r`` and ``eval_parts`` (see
    :mod:`prk.decomposition`); each part is evaluated at most once per
    stage, and stages whose coefficients are all zero for a part skip
    that evaluation entirely.  Every stage value and the new state are
    ``u + dt * (sum of a * K)`` with the sum taken in the plan's term
    order, the same operations whatever the decomposition.  The step runs
    as one of :func:`integrate`, through a stage store of its own; the new
    state is a fresh array.
    """
    stages = _StageStore(tab, parts, dt, u)
    stages.step(t)
    return stages.u


class _StageStore:
    """One run's stage store and the stage sums bound over it.

    Part ``k`` of stage ``i`` is written by ``eval_parts`` into row ``(i,
    k)`` of a store of shape ``(s, r) + u.shape``.  ``u`` is the state,
    which every step overwrites with the new one; each stage with terms
    gets its value in one buffer, and the rest read ``u``.  Every sum, a
    stage's and the update's, is one bound :func:`prk.weno.stage_sum_call`
    over the store's rows, in the plan's term order; the binding happens
    here, once per run.
    """

    def __init__(self, tab: PRKTableau, parts, dt: float, u):
        if parts.r != tab.r:
            raise ValueError(f"decomposition has {parts.r} parts, tableau expects {tab.r}")
        plan, r = tab.plan, tab.r
        self.parts, self.dt = parts, dt
        # a copy in C order, which the flat views below share
        self.u = np.array(u, dtype=float, order="C")
        store, v = np.zeros((tab.s, r) + self.u.shape), np.empty_like(self.u)
        rows, flat_u = store.reshape(tab.s * r, -1), self.u.reshape(-1)

        def bound(terms, out):
            if not terms:
                return None
            return stage_sum_call(rows, np.array([j * r + k for j, k, _ in terms], dtype=np.intp),
                                  np.array([a for _, _, a in terms]), dt, flat_u, out)

        # per evaluated stage: its abscissa, the parts it needs, its sum (or
        # None, when its value is u), its value and its row of the store
        self.stages = tuple((c, needed, bound(terms, v.reshape(-1)), v if terms else self.u,
                             store[i]) for i, c, needed, terms in plan.stages)
        self.update = bound(plan.update_terms, flat_u)

    def step(self, t: float) -> None:
        """Overwrite ``u`` with the state at ``t + dt``."""
        dt, eval_parts = self.dt, self.parts.eval_parts
        for c, needed, stage_sum, v, out in self.stages:
            if stage_sum is not None:
                stage_sum()
            eval_parts(t + c * dt, v, needed, out)
        if self.update is not None:
            self.update()
        if not np.isfinite(self.u).all():
            raise IntegrationDiverged("non-finite state after step")


@dataclass
class IntegrationRun:
    """A fixed-step integration job.

    The run starts at ``t = 0`` from ``u0``, and ``dt`` must divide
    ``t_end`` to an integer number of steps.  A dynamic decomposition (one
    with ``begin_step``) is rebuilt from the current state before every
    step.  ``mass_weights`` turns on the conservation trace.
    """

    tableau: PRKTableau
    parts: object
    dt: float
    t_end: float
    u0: np.ndarray
    mass_weights: np.ndarray | float | None = None


def whole_steps(dt: float, t_end: float) -> int:
    """The number of steps of ``dt`` that end at ``t_end``, within 1e-9 of
    ``max(|t_end|, 1)``; 0 when no whole number of them does."""
    n = round(t_end / dt)
    return n if n >= 1 and abs(n * dt - t_end) <= 1e-9 * max(abs(t_end), 1.0) else 0


@dataclass
class IntegrationResult:
    u: np.ndarray
    n_steps: int
    mass_trace: list[float] = field(default_factory=list)


def _checked_start(run: IntegrationRun) -> tuple[np.ndarray, int]:
    """Reject a malformed run before its first step; returns ``u0`` as floats
    and the number of steps."""
    u0 = np.asarray(run.u0, dtype=float)
    if not np.all(np.isfinite(u0)):
        raise ValueError("IntegrationRun.u0 holds non-finite values")
    for name in ("dt", "t_end"):
        value = getattr(run, name)
        if not math.isfinite(value):
            raise ValueError(f"IntegrationRun.{name} must be finite, got {value!r}")
        if value <= 0.0:
            raise ValueError(f"IntegrationRun.{name} must be positive, got {value!r}")
    n_steps = whole_steps(run.dt, run.t_end)
    if not n_steps:
        raise ValueError("dt must divide the time span into whole steps")
    return u0, n_steps


def integrate(run: IntegrationRun) -> IntegrationResult:
    """March the scheme to ``t_end``; failures report the offending step.

    The run allocates its stage store, state and stage-value buffers and
    binds its stage sums once, before the first step; every step then
    writes the new state over the old one.  ``run.u0`` is copied, never
    written, and the result's ``u`` is the run's own state buffer.
    """
    u, n_steps = _checked_start(run)
    t = 0.0
    mass_trace: list[float] = []
    weights = run.mass_weights
    if weights is not None:
        weights = np.asarray(weights, dtype=float)
        mass_trace.append(mass(weights, u))  # checks the weights' shape once
    stages = _StageStore(run.tableau, run.parts, run.dt, u)
    u = stages.u
    dynamic = hasattr(run.parts, "begin_step")
    for n in range(n_steps):
        if dynamic:
            run.parts.begin_step(u)
        try:
            stages.step(t)
        except IntegrationDiverged as exc:
            raise IntegrationDiverged(
                f"integration diverged at step {n + 1}/{n_steps}, t={t:.6g}",
                step=n + 1,
                t=t,
            ) from exc
        t = (n + 1) * run.dt
        if weights is not None:
            mass_trace.append(float((weights * u).sum()))  # mass(weights, u)
    return IntegrationResult(u=u, n_steps=n_steps, mass_trace=mass_trace)


# ----------------------------------------------------------------------
# reference integrator
# ----------------------------------------------------------------------

def _rk4(rhs, u0, t_end, n_steps):
    u = np.asarray(u0, dtype=float)
    dt = t_end / n_steps
    t = 0.0
    for n in range(n_steps):
        k1 = rhs(t, u)
        k2 = rhs(t + 0.5 * dt, u + 0.5 * dt * k1)
        k3 = rhs(t + 0.5 * dt, u + 0.5 * dt * k2)
        k4 = rhs(t + dt, u + dt * k3)
        u = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(u).all():
            raise IntegrationDiverged("reference integration diverged", step=n + 1, t=t)
        t = (n + 1) * dt
    return u


def reference_integrate(problem, t_end: float, tol: float = 1e-10) -> np.ndarray:
    """Temporal-error-free solution of the semi-discrete system.

    Classical fourth-order integration from ``problem.initial`` at
    ``t = 0``, with step halving until two consecutive answers agree to
    ``tol`` in the maximum norm; the finer one is returned.  The first
    step is 0.4 of the narrowest cell over ``problem.max_speed``.
    """
    u0 = problem.initial
    n = max(1, int(np.ceil(t_end / (0.4 * problem.grid.min_width / problem.max_speed))))
    coarse = _rk4(problem.rhs, u0, t_end, n)
    for _ in range(14):  # halvings of the first step before giving up
        n *= 2
        fine = _rk4(problem.rhs, u0, t_end, n)
        if float(np.max(np.abs(fine - coarse))) < tol:
            return fine
        coarse = fine
    raise RuntimeError(f"reference integration did not converge to {tol:g}")


@contextmanager
def forked_references(problems, t_end: float, tol: float = 1e-10):
    """``reference_integrate(problem, t_end, tol)`` of each of ``problems``,
    computed in order in one forked worker process while the caller goes on.

    Yields an iterator over the references; ``next`` waits for the next one
    and raises any exception the worker raised for it, with its type and
    message.  The worker is ended when the block exits, and ends itself
    when the calling process does (also by ``os._exit`` or SIGKILL).  POSIX
    only: the worker is forked, so it shares the problems without pickling.
    """
    # imported here, not at the top: only the adv2d experiments fork, and
    # every other run would pay its import time and about 0.5 MB
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    worker = ctx.Process(target=_reference_worker, args=(problems, t_end, tol, send))
    worker.start()
    send.close()  # a worker that dies leaves end-of-file, not a wait forever

    def received():
        for _ in problems:
            try:
                got = receive.recv()
            except EOFError:
                worker.join()
                raise RuntimeError(
                    f"reference worker exited with code {worker.exitcode}") from None
            if isinstance(got, BaseException):
                raise got
            yield got

    try:
        yield received()
    finally:
        worker.kill()
        worker.join()
        receive.close()


def _reference_worker(problems, t_end, tol, send):
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the parent's to handle
    threading.Thread(target=_exit_with_parent, daemon=True).start()
    for problem in problems:
        try:
            ref = reference_integrate(problem, t_end, tol)
        except Exception as exc:
            send.send(exc)
            return
        send.send(ref)


def _exit_with_parent():
    """Wait for the end of the parent process, then end this one."""
    import multiprocessing

    multiprocessing.parent_process().join()
    os._exit(1)
