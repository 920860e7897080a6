"""SISC worker coroutines -- the paper's synchronous baseline.

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

from repro.core.aiac import AIACOptions, WorkerReport, _initial_exchange
from repro.problems.base import LocalSolver, SteppedLocalSolver
from repro.simgrid.effects import Barrier, Iterate, Now, Recv, Send


def _allreduce_max(
    rank: int,
    size: int,
    value: float,
    tag: str,
    opts: AIACOptions,
) -> Generator:
    """Max-allreduce: binomial-tree reduce to rank 0 + binomial bcast.

    This is the classical MPI_Allreduce structure (O(log N) rounds), so
    the synchronous baseline's collective cost scales the way a real
    MPI implementation's would.
    """
    if size == 1:
        return value

    # --- binomial reduce towards rank 0 -----------------------------
    val = value
    offset = 1
    while offset < size:
        if rank & offset:
            yield Send(rank - offset, f"{tag}:r{offset}", val, opts.control_bytes)
            break
        if rank + offset < size:
            messages = yield Recv(f"{tag}:r{offset}", count=1)
            val = max(val, messages[0].payload)
        offset <<= 1

    # --- binomial broadcast from rank 0 ------------------------------
    mask = 1
    while mask < size:
        if rank < mask and rank + mask < size:
            yield Send(rank + mask, f"{tag}:b{mask}", val, opts.control_bytes)
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
        tag_data = f"sdata{suffix}:{iterations}"
        for dst, (payload, nbytes) in sorted(result.outgoing.items()):
            yield Send(dst, tag_data, payload, nbytes)
        if providers:
            messages = yield Recv(tag_data, count=len(providers))
            for msg in messages:
                solver.integrate(msg.src, msg.payload)

        global_residual = yield from _allreduce_max(
            rank, size, residual, f"red{suffix}:{iterations}", opts
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
    """SISC worker for single-level problems (the sparse linear system)."""
    opts = opts or AIACOptions()
    start = yield Now()
    yield from _initial_exchange(solver, "init")
    yield Barrier()
    iterations, converged, residual, meta = yield from _sisc_inner(
        rank, size, solver, opts, suffix=""
    )
    end = yield Now()
    return WorkerReport(
        rank=rank,
        iterations=iterations,
        converged=converged,
        stopped_by_coordinator=converged,
        elapsed=end - start,
        residual=residual,
        solution=solver.local_solution(),
        meta=meta,
    )


def sisc_stepped_worker(
    rank: int,
    size: int,
    solver: SteppedLocalSolver,
    opts: Optional[AIACOptions] = None,
) -> Generator:
    """SISC worker for time-stepped problems (the chemical problem)."""
    opts = opts or AIACOptions()
    start = yield Now()
    yield from _initial_exchange(solver, "halo:init")
    total_iterations = 0
    all_converged = True
    residual = float("inf")
    meta: Dict[str, Any] = {}
    per_step_iterations = []

    for step in range(solver.n_steps):
        yield Barrier()
        solver.begin_step(step)
        iterations, converged, residual, meta = yield from _sisc_inner(
            rank, size, solver, opts, suffix=f":{step}"
        )
        yield from _initial_exchange(solver, f"halo:{step}")
        solver.end_step(step)
        total_iterations += iterations
        all_converged = all_converged and converged
        per_step_iterations.append(iterations)

    yield Barrier()
    end = yield Now()
    meta = dict(meta)
    meta["per_step_iterations"] = per_step_iterations
    return WorkerReport(
        rank=rank,
        iterations=total_iterations,
        converged=all_converged,
        stopped_by_coordinator=all_converged,
        elapsed=end - start,
        residual=residual,
        solution=solver.local_solution(),
        meta=meta,
    )


__all__ = ["sisc_worker", "sisc_stepped_worker"]
