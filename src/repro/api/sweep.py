"""Grid runner: the classic sweep surface over the sharded executor.

``sweep`` keeps its original contract -- any iterable of scenarios
(values or plain dicts) in, one JSON-serializable record per scenario
out, in input order, failures captured per item -- but the execution
now rides :func:`repro.sweep.run_sweep`: the whole grid is validated
up front, duplicate grid points are coalesced into one execution, and
``processes > 1`` fans distinct units over the serve layer's
non-daemonic worker pool instead of a ``concurrent.futures`` pool.
Callers who want the full surface (resumable state dirs, cache hits,
placement strategies, retry budgets) use :mod:`repro.sweep` directly.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Union

from repro.api.backends import Backend
from repro.api.scenario import Scenario, scenario_matrix

ScenarioLike = Union[Scenario, Mapping[str, Any]]


def sweep(
    scenarios: Iterable[ScenarioLike],
    backend: Union[Backend, str, None] = None,
    processes: int = 1,
    include_solution: bool = False,
) -> List[Dict[str, Any]]:
    """Run every scenario on ``backend`` and return records in order.

    Parameters
    ----------
    scenarios:
        :class:`Scenario` values or plain dicts (``Scenario.from_dict``
        form) -- e.g. the output of :func:`scenario_matrix`.
    backend:
        A backend instance, a registered backend name, or ``None`` for
        :class:`~repro.api.backends.SimulatedBackend`.  Must be
        picklable when ``processes > 1`` (the built-in backends are).
    processes:
        Worker count; ``1`` runs in-process (easier debugging,
        identical records -- the simulated backend is deterministic
        either way).  The process backend always sweeps in-process:
        it spawns one OS process per rank itself, so a serial sweep
        already uses every core.
    include_solution:
        Store per-rank solution vectors in each record.

    Returns
    -------
    One dict per scenario with the fields of
    :meth:`RunResult.to_record` plus ``index``; a failed scenario's
    record carries ``error`` (and usually ``traceback``) instead.
    Identical grid points (same content hash and seed) execute once
    and share the record.

    Example
    -------
    ::

        records = sweep(scenario_matrix(base,
                                        environment=["sync_mpi", "pm2"],
                                        problem_params__n=[600, 1200]),
                        processes=4)
        makespans = {r["index"]: r["makespan"] for r in records
                     if "error" not in r}
    """
    from repro.sweep import run_sweep

    outcome = run_sweep(
        scenarios,
        backend=backend,
        placement="pool" if processes > 1 else "local",
        processes=processes,
        include_solution=include_solution,
    )
    return outcome.records


__all__ = ["sweep", "scenario_matrix"]
