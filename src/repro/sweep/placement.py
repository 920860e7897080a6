"""Pluggable placement strategies for the sweep executor.

A *placement* decides where a sweep unit's scenario actually runs.
Every strategy speaks the executor protocol of :mod:`repro.serve.queue`
-- offer ``capacity``, ``submit`` units, report settlements from
``poll`` -- so the work queue under :func:`repro.sweep.run_sweep` is
placement-agnostic:

* ``local`` -- in-process, one unit at a time.  The daemonic-safe
  path: it works inside pytest workers, other pools, and is the only
  placement that can host the ``process`` backend (whose per-rank
  children may not be spawned from a daemonic pool worker).
* ``mega`` -- in-process, whole-grid: all buffered units run through
  one ``SimulatedBackend.run_many``, which shares a solve memo among
  their worlds; records are bit-identical to ``local``.
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
or ``{"error", "traceback"}``); ``timeout`` and ``crashed`` are
transient -- the work queue retries them (and ``BackendTimeoutError``
family ``failed`` ones) within its per-unit budget.
"""

from __future__ import annotations

import inspect
import time
import traceback
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Type, Union

from repro.api.scenario import Scenario
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


def list_placements() -> List[str]:
    """Sorted names of all registered placement strategies."""
    return PLACEMENT_REGISTRY.names()


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
def _run_unit(
    backend: Any, key: str, scenario_dict: Dict[str, Any], include_solution: bool
) -> PlacementEvent:
    """Run one unit in-process; the settlement event it amounts to."""
    try:
        result = backend.run(Scenario.from_dict(scenario_dict))
        return (key, "done", result.to_record(include_solution=include_solution))
    except BackendTimeoutError as exc:
        return (key, "timeout", f"{type(exc).__name__}: {exc}")
    except Exception as exc:  # noqa: BLE001 - settled per unit
        return (
            key,
            "failed",
            {
                "error": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc(),
            },
        )


@register_placement("local")
class LocalPlacement(Placement):
    """Run units in-process, serially, one settlement per pump turn.

    Capacity is deliberately 0 while a settlement is unreported so the
    executor journals each unit before the next one starts -- a killed
    sweep loses at most the unit that was computing.  Deadlines are
    whatever the backend itself enforces: a ``timeout`` in the context
    is forwarded to name-resolved backends that accept one (threaded /
    process); the simulated backend is deterministic and needs none.
    """

    def __init__(self, context: PlacementContext) -> None:
        super().__init__(context)
        self._backend: Any = None

    def start(self) -> None:
        backend = self.context.backend
        if isinstance(backend, str):
            from repro.api.backends import get_backend

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

    @property
    def capacity(self) -> int:
        return 0 if self._events else 1

    def submit(self, key: str, scenario_dict: Dict[str, Any]) -> None:
        self._events.append(
            _run_unit(self._backend, key, scenario_dict, self.context.include_solution)
        )


@register_placement("mega")
class MegaPlacement(Placement):
    """Whole-grid execution on the simulated backend: ``local`` plus a
    shared solve memo.

    Instead of running units one at a time, submissions accumulate
    until the executor's queue drains (capacity stays high), then one
    :meth:`~repro.api.backends.SimulatedBackend.run_many` call runs
    *every* buffered scenario, its worlds sharing one
    :class:`~repro.problems.chemical.SolveMemo`.  Records are
    bit-identical to the ``local`` placement's -- same makespans,
    counters, event totals and solutions -- the grid just computes each
    bit-equal Newton solve once (ubiquitous in cluster-parameter
    sweeps, where every point advances the same trajectory on
    differently-timed hardware).

    Simulated-backend only (``start`` refuses a backend without
    ``run_many``).  If a batch raises, the placement falls back to
    per-unit runs so errors are attributed to the scenario that caused
    them.
    """

    #: Units buffered per batch; grids beyond this run in chunks.
    MAX_BATCH = 256

    def __init__(self, context: PlacementContext) -> None:
        super().__init__(context)
        self._backend: Any = None
        self._buffer: List[Tuple[str, Dict[str, Any]]] = []

    def start(self) -> None:
        backend = self.context.backend
        if isinstance(backend, str):
            from repro.api.backends import get_backend

            backend = get_backend(backend)
        if not hasattr(backend, "run_many"):
            raise ValueError(
                "the 'mega' placement needs a backend with run_many "
                f"(the simulated backend); got {getattr(backend, 'name', backend)!r}"
            )
        self._backend = backend

    @property
    def capacity(self) -> int:
        return max(0, self.MAX_BATCH - len(self._buffer))

    def submit(self, key: str, scenario_dict: Dict[str, Any]) -> None:
        self._buffer.append((key, scenario_dict))

    def poll(self, timeout: Optional[float] = None) -> List[PlacementEvent]:
        events = super().poll(timeout)
        if not self._buffer:
            return events
        batch, self._buffer = self._buffer, []
        include_solution = self.context.include_solution
        try:
            results = self._backend.run_many(
                [Scenario.from_dict(scenario_dict) for _, scenario_dict in batch]
            )
        except Exception:  # noqa: BLE001 - re-attribute per unit below
            # One poisoned unit fails run_many as a whole (results of
            # the healthy worlds are not recoverable from it), so
            # re-run individually: errors land on the unit that caused
            # them, everyone else still settles ``done``.
            return events + [
                _run_unit(self._backend, key, scenario_dict, include_solution)
                for key, scenario_dict in batch
            ]
        return events + [
            (key, "done", result.to_record(include_solution=include_solution))
            for (key, _), result in zip(batch, results)
        ]


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
    "list_placements",
    "LocalPlacement",
    "MegaPlacement",
    "PoolPlacement",
    "ServePlacement",
]
