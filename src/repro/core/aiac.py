"""AIAC worker coroutines (Section 4.3 of the paper).

An AIAC worker "performs its iterations without caring about the
progress of the other processors": it drains whatever data messages
have become visible, integrates them, iterates on its block, offers
updates to the send scheduler (skip-send rule) and sends what its
:class:`repro.core.convergence.Detector` -- the one owner of the
termination protocol -- tells it to.  The coroutine yields
:mod:`repro.core.effects` objects, so the same code runs on the
discrete-event simulator and on the real-thread runtime.

One worker serves every problem: :func:`_drive_steps` gives it the
time-step loop of Section 4.3 when the solver is time-stepped (the
non-linear chemical problem) and a single iterative process otherwise
(the sparse linear system).  The SISC worker shares the same driver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, Optional

import numpy as np

from repro.core.comm import SendScheduler
from repro.core.convergence import COORDINATOR, Detector
from repro.core.effects import Barrier, Drain, Iterate, Now, Recv, Send, Trace
from repro.problems.base import LocalSolver

#: Wire sizes, in bytes, of a state report ``(rank, stamp, flag)`` to
#: the coordinator and of its stop signal.
STATE_BYTES = 24.0
STOP_BYTES = 8.0


@dataclass(frozen=True)
class AIACOptions:
    """Knobs of the AIAC/SISC protocols.

    ``eps`` and ``stability_count`` implement the convergence criterion
    and oscillation guard of Section 4.3; ``max_iterations`` is the
    paper's safety limit "to avoid infinite execution when the process
    does not converge".
    """

    eps: float = 1e-6
    stability_count: int = 3
    max_iterations: int = 10_000
    trace_iterations: bool = False
    # Optional sliding window on top of "every dependency heard from at
    # least once" (always required): local convergence is only believed
    # if each was heard from within the last ``freshness_window``
    # iterations.  Useful on the real-thread
    # backend where OS scheduling can starve a thread for long bursts;
    # disabled by default because the iteration-to-wall-time ratio of
    # the simulated experiments varies by regime.
    freshness_window: Optional[int] = None


@dataclass
class WorkerReport:
    """What one worker returns at the end of its coroutine."""

    rank: int
    iterations: int
    converged: bool
    stopped_by_coordinator: bool
    elapsed: float
    residual: float
    solution: np.ndarray
    sends: int = 0
    skipped_sends: int = 0
    state_messages: int = 0
    #: Time this rank spent computing (virtual seconds on the
    #: simulator, wall seconds on threads); filled in by the
    #: interpreters, not the coroutine.
    busy_time: float = 0.0
    meta: Dict[str, Any] = field(default_factory=dict)


def _initial_exchange(solver: LocalSolver, tag: str) -> Generator:
    """Synchronised startup exchange.

    The paper's first step "consists in computing the dependencies on
    each processor and communicating them to all others"; only after
    that does the iterative process begin, so the first iteration
    starts from consistent data on every processor.
    """
    for dst, (payload, nbytes) in sorted(solver.initial_outgoing().items()):
        yield Send(dst, tag, payload, nbytes)
    providers = solver.providers()
    if providers:
        messages = yield Recv(tag, count=len(providers))
        for msg in messages:
            solver.integrate(msg.src, msg.payload)


def _aiac_inner(
    rank: int,
    size: int,
    solver: LocalSolver,
    opts: AIACOptions,
    suffix: str,
    balancer: Optional[Any] = None,
) -> Generator:
    """One asynchronous iterative process, run to global convergence.

    Every termination decision is the :class:`Detector`'s; this loop
    turns its outputs into effects.  ``balancer`` is an optional
    :class:`repro.balancing.MigrationEngine`: its ``pump`` runs once
    per iteration (in-band row migration); the detector is told of a
    handoff in flight and of a completed migration.

    Returns (via StopIteration value) the finished detector, the send
    scheduler with its counters and the last iterate's meta.
    """
    tag_data = f"data{suffix}"
    tag_state = f"state{suffix}"
    tag_stop = f"stop{suffix}"
    # Drain effects are stateless; build the three used every iteration
    # once instead of per loop pass.
    drain_data = Drain(tag_data)
    drain_state = Drain(tag_state)
    drain_stop = Drain(tag_stop)
    iterate_effect = Iterate(solver)
    detector = Detector(rank, size, solver.providers(), opts)
    scheduler = SendScheduler()
    meta: Dict[str, Any] = {}

    while detector.iterations < opts.max_iterations:
        # Receipts happen "at any time" in separate threads; by drain
        # time every message that became visible is incorporated --
        # "as soon as data are received, they are taken into account".
        for msg in (yield drain_data):
            solver.integrate(msg.src, msg.payload)
            detector.data(msg.src)

        if balancer is not None and (yield from balancer.pump(solver, detector.iterations)):
            report = detector.migrated()
            if report is not None:
                yield Send(COORDINATOR, tag_state, report, STATE_BYTES)

        result = yield iterate_effect  # resumes with the flops charged
        meta = result.meta
        if opts.trace_iterations:
            k = detector.iterations + 1
            yield Trace("iteration", {"rank": rank, "k": k, "residual": result.residual})

        # Asynchronous sends under the skip-send rule.  One gate query
        # per iteration is exact: nothing releases a sender inside a run
        # of non-blocking sends, and under blocking sends every handle
        # is released before the coroutine resumes.
        outgoing = result.outgoing
        for dst in scheduler.ready(outgoing):
            payload, nbytes = outgoing[dst]
            scheduler.record(dst, (yield Send(dst, tag_data, payload, nbytes)))

        held = balancer is not None and balancer.holds_convergence()  # rows in flight
        report = detector.iterated(result.residual, held)
        if report is not None:
            yield Send(COORDINATOR, tag_state, report, STATE_BYTES)
        if rank == COORDINATOR:
            for msg in (yield drain_state):
                detector.state(*msg.payload)
            if detector.halt():
                for other in range(size):
                    if other != rank:
                        yield Send(other, tag_stop, None, STOP_BYTES)
                break
        elif (yield drain_stop):
            detector.stop()
            break

    if balancer is not None:
        # Exit path (stop signal or iteration cap): resolve any handoff
        # still in flight so the global row set stays a partition.
        yield from balancer.finalize(solver)
    return detector, scheduler, meta


def _drive_steps(solver: LocalSolver, inner: Callable[[str], Generator]) -> Generator:
    """Run ``inner(tag_suffix)``, one protocol's inner loop, in the shape
    the solver calls for; return ``(elapsed, outcomes, stepped)``.

    A solver with ``n_steps`` (duck-typed, so a delegating proxy
    qualifies) runs Section 4.3's loop: a barrier synchronises all
    processors at each time step, the inner process runs to
    convergence, and a halo exchange hands the converged boundary to
    the neighbours before the next step.  Any other solver runs one
    inner process after the startup exchange and barrier ("only the
    first iteration begins at the same time").  ``outcomes`` holds
    what ``inner`` returned, one per step.
    """
    start = yield Now()
    n_steps = getattr(solver, "n_steps", None)  # duck-typed: proxies delegate
    if n_steps is None:
        yield from _initial_exchange(solver, "init")
        yield Barrier()
        outcomes = [(yield from inner(""))]
    else:
        yield from _initial_exchange(solver, "halo:init")
        outcomes = []
        for step in range(n_steps):
            yield Barrier()
            solver.begin_step(step)
            outcomes.append((yield from inner(f":{step}")))
            yield from _initial_exchange(solver, f"halo:{step}")
            solver.end_step(step)
        yield Barrier()
    end = yield Now()
    return end - start, outcomes, n_steps is not None


def aiac_worker(
    rank: int,
    size: int,
    solver: LocalSolver,
    opts: Optional[AIACOptions] = None,
    balancer: Optional[Any] = None,
) -> Generator:
    """The AIAC worker, for single-level and time-stepped problems alike.

    A time-stepped run converges only if the coordinator stopped every
    step; its counters are summed over the steps and its meta carries
    ``"per_step_iterations"``.  ``balancer`` (a
    :class:`repro.balancing.MigrationEngine`) enables in-band dynamic
    load balancing on a solver that supports row migration; the final
    row range and migration counters land in the meta (``"rows"`` /
    ``"balancing"``).
    """
    opts = opts or AIACOptions()
    elapsed, outcomes, stepped = yield from _drive_steps(
        solver, lambda suffix: _aiac_inner(rank, size, solver, opts, suffix, balancer)
    )
    detectors = [detector for detector, _, _ in outcomes]
    schedulers = [scheduler for _, scheduler, _ in outcomes]
    last = detectors[-1]
    meta = dict(outcomes[-1][2])
    if stepped:
        converged = stopped = all(detector.stopped for detector in detectors)
        meta["per_step_iterations"] = [detector.iterations for detector in detectors]
    else:
        converged, stopped = last.converged, last.stopped
    if balancer is not None:
        meta["rows"] = list(solver.row_range)
        meta["balancing"] = balancer.summary()
    return WorkerReport(
        rank=rank,
        iterations=sum(detector.iterations for detector in detectors),
        converged=converged,
        stopped_by_coordinator=stopped,
        elapsed=elapsed,
        residual=last.residual,
        solution=solver.local_solution(),
        sends=sum(scheduler.sent for scheduler in schedulers),
        skipped_sends=sum(scheduler.skipped for scheduler in schedulers),
        state_messages=sum(detector.reports for detector in detectors),
        meta=meta,
    )


__all__ = ["AIACOptions", "WorkerReport", "aiac_worker"]
