"""Pluggable placement strategies for the sweep executor.

A *placement* decides where a sweep unit's scenario actually runs.
Every strategy speaks the executor protocol of :mod:`repro.serve.queue`
-- offer ``capacity``, ``submit`` units, report settlements from
``poll`` -- so the work queue under :func:`repro.sweep.run_sweep` is
placement-agnostic:

* ``local`` -- in-process, one unit at a time.  The daemonic-safe
  path: it works inside pytest workers, other pools, and is the only
  placement that can host the ``process`` backend (whose per-rank
  children may not be spawned from a daemonic pool worker).  On the
  simulated backend the sweep's chemical units share one solve memo.
  ``mega`` is a second name for it.
* ``pool`` -- one OS process per worker slot via the serve layer's
  non-daemonic :class:`~repro.serve.workers.WorkerPool`, with per-unit
  deadline reaping (kill + respawn) in the parent.
* ``serve`` -- the remote stub: units are submitted to a running
  ``repro serve`` daemon through :class:`~repro.serve.client.
  ServeClient`, reusing the scheduler's priority queue, duplicate
  coalescing, content-hash cache and bounded retry wholesale.

Custom strategies register with :func:`register_placement` and are
addressable by name from :func:`repro.sweep.run_sweep` and
``repro sweep --placement`` (see ``docs/sweeping.md``).

Event vocabulary (``poll`` return rows, ``(id, kind, payload)``):
``done`` carries the run record; ``failed`` an in-unit error (string,
or ``{"error", "traceback"}``); ``timeout`` (a deadline, or a
``BackendTimeoutError`` raised in the unit) and ``crashed`` are
transient -- the work queue retries them within its per-unit budget.
"""

from __future__ import annotations

import inspect
import time
import traceback
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Type, Union

from repro.api.scenario import Scenario
from repro.problems import chemical, get_problem_factory
from repro.registry import Registry
from repro.runtime.executor import BackendTimeoutError
from repro.serve.workers import WorkerPool

#: One settlement: ``(unit id, kind, payload)`` where kind is one of
#: ``done`` / ``failed`` / ``timeout`` / ``crashed``.
PlacementEvent = Tuple[str, str, Any]


@dataclass
class PlacementContext:
    """Everything a placement may need to set itself up.

    ``backend`` is a registered backend name or a picklable backend
    instance (ignored by the ``serve`` placement, whose daemon runs its
    own configured backend).  ``timeout`` is the per-attempt deadline
    (``None`` = no deadline beyond what the backend itself enforces).
    """

    backend: Union[str, Any] = "simulated"
    size: int = 1
    timeout: Optional[float] = None
    include_solution: bool = False
    start_method: Optional[str] = None
    host: str = "127.0.0.1"
    port: int = 7341
    priority: int = 0
    connect_retry_for: float = 0.0


class Placement:
    """Base class: buffered events plus the executor-facing surface."""

    name = "base"

    def __init__(self, context: PlacementContext) -> None:
        self.context = context
        self._events: List[PlacementEvent] = []

    def start(self) -> None:
        """Acquire resources (processes, connections); called once."""

    @property
    def capacity(self) -> int:
        """How many more units may be submitted right now."""
        raise NotImplementedError

    def submit(self, key: str, scenario_dict: Dict[str, Any]) -> None:
        """Accept one unit; settlement arrives via :meth:`poll`."""
        raise NotImplementedError

    def poll(self, timeout: Optional[float] = None) -> List[PlacementEvent]:
        """Settlements since the last poll.

        A placement with units in flight elsewhere blocks until one
        settles (or a deadline it enforces passes) -- but no longer
        than ``timeout`` when one is given; the sweep gives none.
        """
        events, self._events = self._events, []
        return events

    def shutdown(self) -> None:
        """Release resources; in-flight units may be abandoned."""


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
PLACEMENT_REGISTRY = Registry("placement")


def register_placement(name: str):
    """Class decorator registering a placement strategy under a name::

        @register_placement("my_grid")
        class MyGridPlacement(Placement): ...

    A name registered twice raises ``ValueError``.
    """

    def decorate(cls: Type[Placement]) -> Type[Placement]:
        PLACEMENT_REGISTRY.register(name)(cls)
        cls.name = name
        return cls

    return decorate


def get_placement(name: str) -> Type[Placement]:
    """The placement class registered under ``name`` (KeyError names
    the known strategies)."""
    return PLACEMENT_REGISTRY.get(name)


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
@register_placement("local")
class LocalPlacement(Placement):
    """Run units in-process, serially, one settlement per pump turn.

    Capacity is deliberately 0 while a settlement is unreported so the
    executor journals each unit before the next one starts -- a killed
    sweep loses at most the unit that was computing.  Deadlines are
    whatever the backend itself enforces: a ``timeout`` in the context
    is forwarded to name-resolved backends that accept one (threaded /
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
    """

    def __init__(self, context: PlacementContext) -> None:
        super().__init__(context)
        self._backend: Any = None
        self._memo: Optional[chemical.SolveMemo] = None

    def start(self) -> None:
        from repro.api.backends import SimulatedBackend, get_backend

        backend = self.context.backend
        if isinstance(backend, str):
            kwargs: Dict[str, Any] = {}
            if self.context.timeout is not None:
                factory = type(get_backend(backend))
                try:
                    params = inspect.signature(factory).parameters
                except (TypeError, ValueError):
                    params = {}
                if "timeout" in params:
                    kwargs["timeout"] = self.context.timeout
            backend = get_backend(backend, **kwargs)
        self._backend = backend
        if isinstance(backend, SimulatedBackend):
            self._memo = chemical.SolveMemo()

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

    def submit(self, key: str, scenario_dict: Dict[str, Any]) -> None:
        try:
            result = self._run(Scenario.from_dict(scenario_dict))
            record = result.to_record(include_solution=self.context.include_solution)
            event: PlacementEvent = (key, "done", record)
        except BackendTimeoutError as exc:
            event = (key, "timeout", f"{type(exc).__name__}: {exc}")
        except Exception as exc:  # noqa: BLE001 - settled per unit
            event = (
                key,
                "failed",
                {
                    "error": f"{type(exc).__name__}: {exc}",
                    "traceback": traceback.format_exc(),
                },
            )
        self._events.append(event)


# A second name: the benchmark's ``mega_async_grid`` workload asks for it.
PLACEMENT_REGISTRY.register("mega")(LocalPlacement)


@register_placement("pool")
class PoolPlacement(WorkerPool, Placement):
    """One shard per worker process: the serve layer's WorkerPool, which
    speaks the placement surface natively, sized from a context (the
    workers are spawned at construction; ``start`` has nothing to add).

    The pool is non-daemonic and parent-controlled: an expired unit's
    worker is killed and respawned (the unit comes back as a
    ``timeout`` event), a worker that dies mid-unit (segfault, OOM
    kill, ``os._exit`` in problem code) surfaces as ``crashed`` --
    both transient kinds the work queue retries with its bounded budget.
    """

    def __init__(self, context: PlacementContext) -> None:
        Placement.__init__(self, context)
        WorkerPool.__init__(
            self,
            backend=context.backend,
            size=max(1, context.size),
            job_timeout=context.timeout,
            start_method=context.start_method,
            include_solution=context.include_solution,
        )


@register_placement("serve")
class ServePlacement(Placement):
    """The remote stub: shards ride a running ``repro serve`` daemon.

    Submissions reuse the scheduler's machinery wholesale -- priority
    queue, duplicate coalescing onto in-flight twins, content-hash
    result cache, per-job deadline + bounded retry -- so this placement
    is a thin loop over :class:`~repro.serve.client.ServeClient`: it
    long-polls (``wait_s``) the oldest in-flight job and sweeps the rest.
    The context's ``backend``/``timeout`` do not travel: the daemon
    runs whatever backend and deadlines it was started with.
    """

    #: In-flight submissions kept per worker-slot hint; the daemon
    #: queues beyond its pool anyway, this just bounds polling cost.
    INFLIGHT_PER_SLOT = 8

    #: Length of one long poll when the caller sets no ceiling.
    _HOLD_S = 10.0

    def __init__(self, context: PlacementContext) -> None:
        super().__init__(context)
        self._client: Any = None
        self._jobs: Dict[str, str] = {}  # unit key -> daemon job id

    def start(self) -> None:
        from repro.serve.client import ServeClient

        self._client = ServeClient.connect(
            host=self.context.host,
            port=self.context.port,
            retry_for=self.context.connect_retry_for,
        )

    @property
    def capacity(self) -> int:
        limit = max(1, self.context.size) * self.INFLIGHT_PER_SLOT
        return max(0, limit - len(self._jobs))

    def submit(self, key: str, scenario_dict: Dict[str, Any]) -> None:
        from repro.serve.client import ServeError

        try:
            ack = self._client.submit(scenario_dict, priority=self.context.priority)
        except ServeError as exc:
            # A refusal (bad-scenario, ...) is deterministic: no retry.
            self._events.append((key, "failed", f"daemon refused unit: {exc}"))
            return
        self._jobs[key] = ack["id"]

    def poll(self, timeout: Optional[float] = None) -> List[PlacementEvent]:
        from repro.serve.protocol import CANCELLED, DONE, FAILED

        events = super().poll(timeout)
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
                events.append((key, "done", frame.get("record") or {}))
            elif state == FAILED:
                del self._jobs[key]
                events.append((key, "failed", str(frame.get("error", "job failed"))))
            elif state == CANCELLED:
                del self._jobs[key]
                events.append((key, "failed", "job cancelled server-side"))
        if not events and self._jobs:
            # A daemon that predates ``wait_s`` answered at once: pad
            # the pass to the time it was allowed to take.
            time.sleep(max(0.0, budget - (time.monotonic() - started)))
        return events

    def shutdown(self) -> None:
        # In-flight jobs stay with the daemon (they finish and populate
        # its cache); a resumed sweep re-submits and coalesces or hits.
        if self._client is not None:
            self._client.close()


__all__ = [
    "Placement",
    "PlacementContext",
    "PlacementEvent",
    "register_placement",
    "get_placement",
    "LocalPlacement",
    "PoolPlacement",
    "ServePlacement",
]
