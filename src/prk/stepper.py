"""Explicit partitioned Runge-Kutta stepping and reference integration.

A run owns a *stage store*: part k of stage i is written in place into
row ``(i, k)``.  Each evaluated stage makes one call of the split's ``F``
into the split's own buffer, then one compiled call (a table of
:mod:`prk.weno` ops bound when the run starts) that writes the stage's
needed part rows from that buffer and the next evaluated stage's value,
or after the last stage the new state and whether it is finite.  So a
step makes no numpy call of its own.
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
from .weno import finite_op, ops_call, stage_sum_op

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
    """Raised when a step produces non-finite values; ``step`` numbers it
    from 1 and ``t`` is its start."""

    def __init__(self, message: str, step: int = -1, t: float = float("nan")):
        super().__init__(message)
        self.step = step
        self.t = t


def prk_step(tab: PRKTableau, parts, t: float, dt: float, u: np.ndarray) -> np.ndarray:
    """One step of the partitioned scheme from ``t`` to ``t + dt``.

    ``parts`` is a decomposition with ``r`` and ``evaluation`` (see
    :mod:`prk.decomposition`); each part is evaluated at most once per
    stage, and stages whose coefficients are all zero for a part skip
    that evaluation entirely.  Every stage value and the new state are
    ``u + dt * (sum of a * K)`` with the sum taken in the plan's term
    order, the same operations whatever the decomposition.  The step runs
    as one of :func:`integrate`, through a stage store of its own, so a
    dynamic decomposition is rebuilt from ``u`` first, and a divergence is
    reported as step 1; the new state is a fresh array.
    """
    stages = _StageStore(tab, parts, dt, u)
    stages.step(t, 1)
    return stages.u


class _StageStore:
    """One run's stage store and the step program bound over it.

    Part ``k`` of stage ``i`` is written into row ``(i, k)`` of a store of
    shape ``(s, r) + u.shape``.  ``u`` is the state, which every step
    overwrites with the new one; each stage with terms gets its value in
    one buffer, and the rest read ``u``.  Per evaluated stage the program
    holds the split's ``write(t, v, phi)`` and one bound
    :func:`prk.weno.ops_call` of the split's part op (see
    :mod:`prk.decomposition`), then the next evaluated stage's sum, or after
    the last stage the update and a finiteness check of ``u``.  Every sum
    is a :func:`prk.weno.stage_sum_op` over the store's rows, in the plan's
    term order.  The ops before the first evaluated stage (none in the
    plans :mod:`prk.tableau` builds) run as a leading call, which in a plan
    with no evaluated stage (all weights zero) is the finiteness check.
    All of it is bound here, once per run, as is the lookup of a dynamic
    split's ``begin_step``.
    """

    def __init__(self, tab: PRKTableau, parts, dt: float, u):
        if parts.r != tab.r:
            raise ValueError(f"decomposition has {parts.r} parts, tableau expects {tab.r}")
        plan, r = tab.plan, tab.r
        self.dt = dt
        self.begin_step = getattr(parts, "begin_step", None)
        # a copy in C order, which the flat views below share
        self.u = np.array(u, dtype=float, order="C")
        store, v = np.zeros((tab.s, r) + self.u.shape), np.empty_like(self.u)
        rows, flat_u = store.reshape(tab.s * r, -1), self.u.reshape(-1)

        def summed(terms, out) -> list:
            """The sum of ``terms`` into ``out``: one op, or none without terms."""
            if not terms:
                return []
            return [stage_sum_op(rows, np.array([j * r + k for j, k, _ in terms], dtype=np.intp),
                                 np.array([a for _, _, a in terms]), dt, flat_u, out)]

        # the ops before each evaluated stage's write, then after the last
        between = [summed(terms, v.reshape(-1)) for _, _, _, terms in plan.stages]
        between.append(summed(plan.update_terms, flat_u) + [finite_op(flat_u)])
        self.lead = ops_call(*between[0]) if between[0] else None
        # per evaluated stage: its abscissa, the split's write, its value,
        # the split's buffer and the compiled call that follows the write
        self.stages = []
        for (i, c, needed, terms), after in zip(plan.stages, between[1:]):
            write, phi, op = parts.evaluation(store[i], needed)
            self.stages.append((c, write, v if terms else self.u, phi, ops_call(op, *after)))

    def step(self, t: float, n: int) -> None:
        """Overwrite ``u`` with the state at ``t + dt``, rebuilding a dynamic
        partition from ``u`` first; a non-finite new state raises
        :class:`IntegrationDiverged` naming step ``n`` and its start ``t``."""
        dt = self.dt
        if self.begin_step is not None:
            self.begin_step(self.u)
        finite = self.lead() if self.lead is not None else 1
        for c, write, v, phi, call in self.stages:
            write(t + c * dt, v, phi)
            finite = call()
        if not finite:
            raise IntegrationDiverged(f"integration diverged at step {n}, t={t:.6g}", step=n, t=t)


@dataclass
class IntegrationRun:
    """A fixed-step integration job.

    The run starts at ``t = 0`` from ``u0``, and ``dt`` must divide
    ``t_end`` to an integer number of steps.  A dynamic decomposition (one
    with ``begin_step``) is rebuilt from the state at the top of every
    step, as in :func:`prk_step`.  ``mass_weights`` turns on the
    conservation trace.
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
    """March the scheme to ``t_end``, each step the one :func:`prk_step` takes.

    The run allocates its stage store, state and stage-value buffers and
    binds its step program once, before the first step; every step then
    writes the new state over the old one.  A step whose new state is not
    finite raises :class:`IntegrationDiverged` with its number (from 1) and
    start time.  ``run.u0`` is copied, never written, and the result's
    ``u`` is the run's own state buffer.
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
    for n in range(n_steps):
        stages.step(t, n + 1)
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
