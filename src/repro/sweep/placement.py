"""The sweep's own executors: ``local`` (and its second name ``mega``)
and ``serve``.

A *placement* decides where a sweep unit's scenario actually runs.
:func:`repro.sweep.run_sweep` builds its executor from one table of
name -> constructor; every entry speaks the executor protocol of
:mod:`repro.serve.queue` -- offer ``capacity``, ``submit`` units,
report settlements from ``poll``, ``shutdown`` -- so the work queue
under the sweep is placement-agnostic:

* ``local`` -- :class:`LocalPlacement`: in-process, one unit at a
  time.  The daemonic-safe path: it works inside pytest workers, other
  pools, and is the only placement that can host the ``process``
  backend (whose per-rank children may not be spawned from a daemonic
  pool worker).  On the simulated backend the sweep's chemical units
  share one solve memo.  ``mega`` is a second name for it.
* ``pool`` -- the serve layer's non-daemonic
  :class:`~repro.serve.workers.WorkerPool` itself: one OS process per
  worker slot, with per-unit deadline reaping (kill + respawn) in the
  parent.
* ``serve`` -- :class:`ServePlacement`, the remote stub: units are
  submitted to a running ``repro serve`` daemon through
  :class:`~repro.serve.client.ServeClient`, reusing the scheduler's
  priority queue, duplicate coalescing, content-hash cache and bounded
  retry wholesale.

Event vocabulary (``poll`` return rows, ``(id, kind, payload)``):
``done`` carries the run record; ``failed`` an in-unit error (string,
or ``{"error", "traceback"}``); ``timeout`` (a deadline, or a
``BackendTimeoutError`` raised in the unit) and ``crashed`` are
transient -- the work queue retries them within its per-unit budget.
"""

from __future__ import annotations

import inspect
import time
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.api.scenario import Scenario
from repro.problems import chemical, get_problem_factory
from repro.serve.queue import run_unit

#: One settlement: ``(unit id, kind, payload)`` where kind is one of
#: ``done`` / ``failed`` / ``timeout`` / ``crashed``.
PlacementEvent = Tuple[str, str, Any]


class LocalPlacement:
    """Run units in-process, serially, one settlement per pump turn.

    Capacity is deliberately 0 while a settlement is unreported so the
    executor journals each unit before the next one starts -- a killed
    sweep loses at most the unit that was computing.  Deadlines are
    whatever the backend itself enforces: a ``timeout`` is forwarded to
    a name-resolved backend whose class accepts one (threaded /
    process); the simulated backend is deterministic and needs none.

    On the simulated backend the chemical solvers of every unit share
    one :class:`~repro.problems.chemical.SolveMemo` for the life of the
    placement (one sweep), handed to them through ``run``'s
    ``make_solver`` hook: a grid whose points advance the same
    trajectory on differently-timed hardware solves each Newton update
    once.  A hit is bit-identical and charges the same flops, so every
    record equals ``run()`` of its scenario.  Balanced units keep the
    plain path (``compile_plan`` owns their solver factory), and so do
    units of any factory but ``chemical``'s (no instance built to ask).
    ``scenarios`` maps job ids to the scenarios the sweep already built
    and hashed; a job without one is rebuilt from its dict.
    """

    def __init__(
        self,
        backend: Union[str, Any],
        timeout: Optional[float] = None,
        include_solution: bool = False,
        scenarios: Optional[Mapping[str, Scenario]] = None,
    ) -> None:
        from repro.api.backends import BACKEND_REGISTRY, SimulatedBackend

        if isinstance(backend, str):
            factory = BACKEND_REGISTRY.get(backend)
            kwargs: Dict[str, Any] = {}
            if timeout is not None:
                try:
                    params = inspect.signature(factory).parameters
                except (TypeError, ValueError):
                    params = {}
                if "timeout" in params:
                    kwargs["timeout"] = timeout
            backend = factory(**kwargs)
        self._backend = backend
        self._include_solution = include_solution
        self._scenarios = scenarios or {}
        self._memo: Optional[chemical.SolveMemo] = (
            chemical.SolveMemo() if isinstance(backend, SimulatedBackend) else None
        )
        self._events: List[PlacementEvent] = []

    @property
    def capacity(self) -> int:
        return 0 if self._events else 1

    def _run(self, scenario: Scenario) -> Any:
        memo = self._memo
        if (memo is None or scenario.balancer is not None
                or get_problem_factory(scenario.problem) is not chemical.make_chemical_problem):
            return self._backend.run(scenario)
        problem = scenario.build_problem()

        def make_solver(rank: int, size: int):
            solver = problem.make_local(rank, size)
            solver.memo = memo
            return solver

        return self._backend.run(scenario, make_solver)

    def submit(self, job_id: str, scenario_dict: Dict[str, Any]) -> None:
        self._events.append(run_unit(
            job_id,
            lambda: self._run(
                self._scenarios.get(job_id) or Scenario.from_dict(scenario_dict)),
            self._include_solution,
        ))

    def poll(self, timeout: Optional[float] = None) -> List[PlacementEvent]:
        events, self._events = self._events, []
        return events

    def shutdown(self) -> None:
        pass


class ServePlacement:
    """The remote stub: shards ride a running ``repro serve`` daemon.

    Submissions reuse the scheduler's machinery wholesale -- priority
    queue, duplicate coalescing onto in-flight twins, content-hash
    result cache, per-job deadline + bounded retry -- so this placement
    is a thin loop over :class:`~repro.serve.client.ServeClient`: it
    long-polls (``wait_s``) the oldest in-flight job and sweeps the rest.
    The sweep's backend and timeout do not travel: the daemon runs
    whatever backend and deadlines it was started with.
    """

    #: In-flight submissions kept per worker-slot hint; the daemon
    #: queues beyond its pool anyway, this just bounds polling cost.
    INFLIGHT_PER_SLOT = 8

    #: Length of one long poll when the caller sets no ceiling.
    _HOLD_S = 10.0

    #: How long to retry a refused connection: a daemon just forked
    #: (``repro serve &``, a test harness) may not be listening yet.
    _CONNECT_RETRY_S = 2.0

    def __init__(self, host: str, port: int, processes: int = 1, priority: int = 0) -> None:
        from repro.serve.client import ServeClient

        self._client = ServeClient.connect(
            host=host, port=port, retry_for=self._CONNECT_RETRY_S
        )
        self._limit = max(1, processes) * self.INFLIGHT_PER_SLOT
        self._priority = priority
        self._jobs: Dict[str, str] = {}  # unit key -> daemon job id
        self._events: List[PlacementEvent] = []

    @property
    def capacity(self) -> int:
        return max(0, self._limit - len(self._jobs))

    def submit(self, key: str, scenario_dict: Dict[str, Any]) -> None:
        from repro.serve.client import ServeError

        try:
            ack = self._client.submit(scenario_dict, priority=self._priority)
        except ServeError as exc:
            # A refusal (bad-scenario, ...) is deterministic: no retry.
            self._events.append((key, "failed", f"daemon refused unit: {exc}"))
            return
        self._jobs[key] = ack["id"]

    def poll(self, timeout: Optional[float] = None) -> List[PlacementEvent]:
        from repro.serve.protocol import CANCELLED, DONE, FAILED

        events, self._events = self._events, []
        started = time.monotonic()
        budget = self._HOLD_S if timeout is None else timeout
        # Nothing to report yet: let the daemon hold the first request
        # until that job settles.  The oldest job is the likeliest to
        # finish first, and whatever else finished meanwhile is picked
        # up by the rest of this same pass.
        hold = 0.0 if events else budget
        for key, job_id in list(self._jobs.items()):
            frame = self._client.result(job_id, wait_s=hold)
            hold = 0.0
            state = frame["state"]
            if state == DONE:
                del self._jobs[key]
                record = frame.get("record")
                if record:
                    events.append((key, "done", record))
                else:
                    # The daemon's cache lost the entry (a corrupt one
                    # is deleted on read): nothing to store or report.
                    events.append((key, "failed",
                                   f"daemon job {job_id} is done but sent no record"))
            elif state == FAILED:
                del self._jobs[key]
                events.append((key, "failed", str(frame.get("error", "job failed"))))
            elif state == CANCELLED:
                del self._jobs[key]
                events.append((key, "failed", "job cancelled server-side"))
        if not events and self._jobs:
            # A closing daemon answers a long poll at once: pad the
            # pass to the time it was allowed to take.
            time.sleep(max(0.0, budget - (time.monotonic() - started)))
        return events

    def shutdown(self) -> None:
        # In-flight jobs stay with the daemon (they finish and populate
        # its cache); a resumed sweep re-submits and coalesces or hits.
        self._client.close()


__all__ = ["PlacementEvent", "LocalPlacement", "ServePlacement"]
