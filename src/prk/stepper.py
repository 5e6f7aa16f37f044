"""Explicit partitioned Runge-Kutta stepping and reference integration."""

from __future__ import annotations

import math
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .decomposition import mass
from .tableau import PRKTableau

__all__ = [
    "IntegrationDiverged",
    "IntegrationRun",
    "IntegrationResult",
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
    order, the same operations whatever the decomposition.
    """
    if parts.r != tab.r:
        raise ValueError(f"decomposition has {parts.r} parts, tableau expects {tab.r}")
    plan = tab.plan
    u = np.asarray(u, dtype=float)
    K = {}  # the part values of every evaluated stage, by stage index
    for i, c, needed, terms in plan.stages:
        K[i] = parts.eval_parts(t + c * dt, _increment(u, dt, terms, K), needed)
    unew = _increment(u, dt, plan.update_terms, K)
    if not np.isfinite(unew).all():
        raise IntegrationDiverged("non-finite state after step")
    return unew


def _increment(u, dt, terms, K):
    """``u + dt * (a K[j][k] + ...)`` over ``terms``, summed left to right
    from the first term; ``u`` itself when there are none.

    The sum is accumulated in place, which rounds exactly as the textbook
    ``acc + term`` and ``u + dt * acc``: both operations commute exactly.
    """
    if not terms:
        return u
    j, k, a = terms[0]
    acc = a * K[j][k]
    for j, k, a in terms[1:]:
        acc += a * K[j][k]
    acc *= dt
    acc += u
    return acc


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

    @property
    def n_steps(self) -> int:
        n = round(self.t_end / self.dt)
        if n < 1 or abs(n * self.dt - self.t_end) > 1e-9 * max(abs(self.t_end), 1.0):
            raise ValueError("dt must divide the time span into whole steps")
        return n


@dataclass
class IntegrationResult:
    u: np.ndarray
    n_steps: int
    mass_trace: list[float] = field(default_factory=list)


def _checked_initial_state(run: IntegrationRun) -> np.ndarray:
    """Reject a malformed run before its first step; returns ``u0`` as floats."""
    u0 = np.asarray(run.u0, dtype=float)
    if not np.all(np.isfinite(u0)):
        raise ValueError("IntegrationRun.u0 holds non-finite values")
    for name in ("dt", "t_end"):
        value = getattr(run, name)
        if not math.isfinite(value):
            raise ValueError(f"IntegrationRun.{name} must be finite, got {value!r}")
        if value <= 0.0:
            raise ValueError(f"IntegrationRun.{name} must be positive, got {value!r}")
    return u0


def integrate(run: IntegrationRun) -> IntegrationResult:
    """March the scheme to ``t_end``; failures report the offending step."""
    u = _checked_initial_state(run)
    t = 0.0
    n_steps = run.n_steps
    mass_trace: list[float] = []
    weights = run.mass_weights
    if weights is not None:
        weights = np.asarray(weights, dtype=float)
        mass_trace.append(mass(weights, u))  # checks the weights' shape once
    dynamic = hasattr(run.parts, "begin_step")
    for n in range(n_steps):
        if dynamic:
            run.parts.begin_step(u)
        try:
            u = prk_step(run.tableau, run.parts, t, run.dt, u)
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
