"""The SISC worker coroutine -- the paper's synchronous baseline.

SISC (Synchronous Iterations, Synchronous Communications): all
processors begin the same iteration at the same time and exchange data
at the end of each iteration with synchronous communications
(Section 1.3).  The algorithm performs exactly the same iterations as
the sequential version, which is verified by the integration tests.

Global convergence is decided every iteration by an allreduce of the
local residuals (max), implemented as gather-to-root + broadcast --
the classical pattern of a mono-threaded MPI code, whose cost is what
Figures 1 and 3 of the paper show crushing the synchronous version on
slow networks.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional

from repro.core.aiac import AIACOptions, WorkerReport, _drive_steps
from repro.core.effects import Iterate, Recv, Send
from repro.problems.base import LocalSolver

#: Wire size of one allreduce message (a residual), in bytes.
CONTROL_BYTES = 16.0


def _allreduce_max(
    rank: int,
    size: int,
    value: float,
    tag: str,
) -> Generator:
    """Max-allreduce: binomial-tree reduce to rank 0 + binomial bcast.

    This is the classical MPI_Allreduce structure (O(log N) rounds), so
    the synchronous baseline's collective cost scales the way a real
    MPI implementation's would.
    """
    # --- binomial reduce towards rank 0 -----------------------------
    val = value
    offset = 1
    while offset < size:
        if rank & offset:
            yield Send(rank - offset, f"{tag}:r{offset}", val, CONTROL_BYTES)
            break
        if rank + offset < size:
            messages = yield Recv(f"{tag}:r{offset}", count=1)
            val = max(val, messages[0].payload)
        offset <<= 1

    # --- binomial broadcast from rank 0 ------------------------------
    mask = 1
    while mask < size:
        if rank < mask and rank + mask < size:
            yield Send(rank + mask, f"{tag}:b{mask}", val, CONTROL_BYTES)
        elif mask <= rank < 2 * mask:
            messages = yield Recv(f"{tag}:b{mask}", count=1)
            val = messages[0].payload
        mask <<= 1
    return val


def _sisc_inner(
    rank: int,
    size: int,
    solver: LocalSolver,
    opts: AIACOptions,
    suffix: str,
) -> Generator:
    """One synchronous iterative process, run to global convergence.

    Returns ``(iterations, converged, last_residual, last_meta)``.
    """
    iterations = 0
    converged = False
    residual = float("inf")
    meta: Dict[str, Any] = {}
    providers = solver.providers()
    iterate_effect = Iterate(solver)

    while iterations < opts.max_iterations:
        result = yield iterate_effect  # resumes with the flops charged
        iterations += 1
        residual = result.residual
        meta = result.meta

        # Synchronous end-of-iteration exchange: everyone sends, then
        # explicitly waits for all its dependencies (the receipts are
        # "explicitly localized in the sequence of the program" -- the
        # MPI constraint of Section 2).
        if result.outgoing or providers:  # else no tags: no one to talk to
            tag_data = f"sdata{suffix}:{iterations}"
            for dst, (payload, nbytes) in sorted(result.outgoing.items()):
                yield Send(dst, tag_data, payload, nbytes)
            if providers:
                messages = yield Recv(tag_data, count=len(providers))
                for msg in messages:
                    solver.integrate(msg.src, msg.payload)

        global_residual = residual
        if size > 1:
            global_residual = yield from _allreduce_max(
                rank, size, residual, f"red{suffix}:{iterations}"
            )
        if global_residual < opts.eps:
            converged = True
            break

    return iterations, converged, residual, meta


def sisc_worker(
    rank: int,
    size: int,
    solver: LocalSolver,
    opts: Optional[AIACOptions] = None,
) -> Generator:
    """The SISC worker, for single-level and time-stepped problems alike.

    A time-stepped run counts as converged only if every step did, and
    its report meta carries ``"per_step_iterations"``.
    """
    opts = opts or AIACOptions()
    elapsed, outcomes, stepped = yield from _drive_steps(
        solver, lambda suffix: _sisc_inner(rank, size, solver, opts, suffix)
    )
    converged = all(step_converged for _, step_converged, _, _ in outcomes)
    _, _, residual, meta = outcomes[-1]
    meta = dict(meta)
    if stepped:
        meta["per_step_iterations"] = [iterations for iterations, _, _, _ in outcomes]
    return WorkerReport(
        rank=rank,
        iterations=sum(iterations for iterations, _, _, _ in outcomes),
        converged=converged,
        stopped_by_coordinator=converged,
        elapsed=elapsed,
        residual=residual,
        solution=solver.local_solution(),
        meta=meta,
    )


__all__ = ["sisc_worker"]
