"""AIAC worker coroutines (Section 4.3 of the paper).

An AIAC worker "performs its iterations without caring about the
progress of the other processors": it drains whatever data messages
have become visible, integrates them, iterates on its block, offers
updates to the send scheduler (skip-send rule) and sends what its
:class:`repro.core.convergence.Detector` -- the one owner of the
termination protocol -- tells it to.  The coroutine yields
:mod:`repro.simgrid.effects` objects, so the same code runs on the
discrete-event simulator and on the real-thread runtime.

Two variants are provided:

* :func:`aiac_worker` -- single-level iterative problems (the sparse
  linear system);
* :func:`aiac_stepped_worker` -- time-stepped problems with an inner
  iterative process per step and a synchronisation barrier between
  steps (the non-linear chemical problem).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, Optional

import numpy as np

from repro.core.comm import SendScheduler
from repro.core.convergence import Detector
from repro.problems.base import LocalSolver, SteppedLocalSolver
from repro.simgrid.effects import Barrier, Drain, Iterate, Now, Recv, Send, Trace


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
    coordinator_rank: int = 0
    state_bytes: float = 24.0
    stop_bytes: float = 8.0
    control_bytes: float = 16.0
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
    coord = opts.coordinator_rank
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
                yield Send(coord, tag_state, report, opts.state_bytes)

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
            yield Send(coord, tag_state, report, opts.state_bytes)
        if rank == coord:
            for msg in (yield drain_state):
                detector.state(*msg.payload)
            if detector.halt():
                for other in range(size):
                    if other != rank:
                        yield Send(other, tag_stop, None, opts.stop_bytes)
                break
        elif (yield drain_stop):
            detector.stop()
            break

    if balancer is not None:
        # Exit path (stop signal or iteration cap): resolve any handoff
        # still in flight so the global row set stays a partition.
        yield from balancer.finalize(solver)
    return detector, scheduler, meta


def aiac_worker(
    rank: int,
    size: int,
    solver: LocalSolver,
    opts: Optional[AIACOptions] = None,
    balancer: Optional[Any] = None,
) -> Generator:
    """AIAC worker for single-level problems (the sparse linear system).

    ``balancer`` (a :class:`repro.balancing.MigrationEngine`) enables
    in-band dynamic load balancing; the solver must then support row
    migration (``give_rows``/``take_rows``).  The final row range and
    migration counters land in the report meta (``"rows"`` /
    ``"balancing"``).
    """
    opts = opts or AIACOptions()
    start = yield Now()
    yield from _initial_exchange(solver, "init")
    yield Barrier()  # "only the first iteration begins at the same time"
    detector, scheduler, meta = yield from _aiac_inner(rank, size, solver, opts, "", balancer)
    end = yield Now()
    if balancer is not None:
        meta = dict(meta)
        meta["rows"] = list(solver.row_range)
        meta["balancing"] = balancer.summary()
    return WorkerReport(
        rank=rank,
        iterations=detector.iterations,
        converged=detector.converged,
        stopped_by_coordinator=detector.stopped,
        elapsed=end - start,
        residual=detector.residual,
        solution=solver.local_solution(),
        sends=scheduler.sent,
        skipped_sends=scheduler.skipped,
        state_messages=detector.reports,
        meta=meta,
    )


def aiac_stepped_worker(
    rank: int,
    size: int,
    solver: SteppedLocalSolver,
    opts: Optional[AIACOptions] = None,
) -> Generator:
    """AIAC worker for time-stepped problems (the chemical problem).

    Per Section 4.3: a barrier synchronises all processors at each time
    step (the concentrations of the previous step must be fully known);
    *within* a step the computations run asynchronously, terminated by
    the same centralized convergence detection; then a final halo
    exchange and barrier prepare the next step.
    """
    opts = opts or AIACOptions()
    start = yield Now()
    yield from _initial_exchange(solver, "halo:init")
    all_stopped = True
    residual = float("inf")
    meta: Dict[str, Any] = {}
    per_step_iterations = []
    sends = skipped = state_messages = 0  # summed over the steps

    for step in range(solver.n_steps):
        yield Barrier()
        solver.begin_step(step)
        detector, scheduler, meta = yield from _aiac_inner(rank, size, solver, opts, f":{step}")
        # Make the converged boundary data of this step available to
        # the neighbours before anyone starts the next step.
        yield from _initial_exchange(solver, f"halo:{step}")
        solver.end_step(step)
        all_stopped = all_stopped and detector.stopped
        residual = detector.residual
        per_step_iterations.append(detector.iterations)
        sends += scheduler.sent
        skipped += scheduler.skipped
        state_messages += detector.reports

    yield Barrier()
    end = yield Now()
    meta = dict(meta)
    meta["per_step_iterations"] = per_step_iterations
    return WorkerReport(
        rank=rank,
        iterations=sum(per_step_iterations),
        converged=all_stopped,
        stopped_by_coordinator=all_stopped,
        elapsed=end - start,
        residual=residual,
        solution=solver.local_solution(),
        sends=sends,
        skipped_sends=skipped,
        state_messages=state_messages,
        meta=meta,
    )


__all__ = ["AIACOptions", "WorkerReport", "aiac_worker", "aiac_stepped_worker"]
