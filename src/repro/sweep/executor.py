"""The sharded sweep executor: the work queue's grid-facing shell.

:func:`run_sweep` turns an iterable of scenarios into one record per
input index through the placement-agnostic
:class:`~repro.serve.queue.WorkQueue` it shares with ``repro serve``:

1. **Validate** the whole grid up front.  Every item must rebuild into
   a :class:`~repro.api.Scenario` whose registry strings (problem,
   cluster, environment, worker) resolve; every invalid item becomes
   an error record *before any work starts*, so a ten-hour sweep never
   dies at item 9000 on a typo that was visible at item 0.
2. **Coalesce** the valid items by cache key (``content_hash + seed``,
   :meth:`~repro.serve.cache.ResultCache.key_for`): duplicate grid
   points execute once and fan their record out to every requesting
   index (each record keeps its own index's ``scenario`` dict, so
   labels stay honest).
3. **Admit** every unit to the queue.  With a ``state_dir``,
   journaled failures keep their error (they are never admitted), and
   units whose record reads back from the
   :class:`~repro.serve.cache.ResultCache` are born settled --
   re-running a finished grid costs nothing, resuming a killed one
   costs only the units that had not settled (plus any journaled
   completion whose cache entry rotted: *repaired*).
4. **Pump** the remainder through the executor the placement name
   picks from ``_EXECUTORS``: the queue fills capacity, the sweep
   blocks in the executor's ``poll``, the queue retries transient
   settlements (timeout, worker crash) within a bounded per-unit
   budget and journals every terminal transition.

The executor is crash-consistent by construction: a unit's record is
cached *then* journaled *then* reported, so ``run_sweep(...,
resume=True)`` after a SIGKILL re-executes at most the units that were
in flight -- never a completed one.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.api.backends import Backend, SimulatedBackend
from repro.api.scenario import Scenario
from repro.serve.cache import ResultCache
from repro.serve.protocol import DONE, FAILED
from repro.serve.queue import WorkQueue
from repro.serve.workers import WorkerPool
from repro.sweep.placement import LocalPlacement, ServePlacement
from repro.sweep.state import SweepState, plan_fingerprint

ScenarioLike = Union[Scenario, Mapping[str, Any]]

#: How a settled unit got its terminal state; surfaced per progress
#: event and tallied in :attr:`SweepOutcome.counters`.
SOURCE_EXECUTED = "executed"
SOURCE_CACHE = "cache"
SOURCE_RESUMED = "resumed"


def _local(backend, timeout, include_solution, scenarios, **_):
    return LocalPlacement(backend, timeout, include_solution, scenarios)


#: Placement name -> constructor of the executor a sweep pumps its
#: units through (each speaks :mod:`repro.serve.queue`'s executor
#: protocol), called with :func:`run_sweep`'s own arguments by name.
#: ``mega`` is a second name of ``local``: the benchmark's
#: ``mega_async_grid`` workload asks for it.
_EXECUTORS: Dict[str, Callable[..., Any]] = {
    "local": _local,
    "mega": _local,
    "pool": lambda backend, processes, timeout, include_solution, **_: WorkerPool(
        backend=backend, size=max(1, processes), job_timeout=timeout,
        include_solution=include_solution),
    "serve": lambda host, port, processes, priority, **_: ServePlacement(
        host, port, processes, priority),
}


@dataclass
class SweepOutcome:
    """What a sweep produced, beyond the records themselves.

    ``records`` is one dict per input index, in input order (``index``
    plus either
    :meth:`~repro.api.RunResult.to_record` fields or ``error`` /
    ``traceback``).  ``counters`` accounts for every distinct unit:
    ``executed + cache_hits + resumed + failed`` covers them all, with
    ``repaired`` counting journaled completions whose cache entry had
    rotted and had to re-execute, and ``retries`` the transient
    re-submissions along the way.
    """

    records: List[Dict[str, Any]]
    counters: Dict[str, int]
    fingerprint: str
    journal_path: Optional[Path] = None
    state_dir: Optional[Path] = None
    #: :meth:`repro.obs.MetricsRegistry.snapshot` of the run -- the
    #: counters above as metric counters plus a ``unit_latency_s``
    #: histogram over executed units and the sweep's wall time.
    metrics: Dict[str, Any] = field(default_factory=dict)

    @property
    def errors(self) -> List[Dict[str, Any]]:
        """The records that settled as errors (invalid or failed)."""
        return [record for record in self.records if "error" in record]


def _as_scenario(spec: ScenarioLike) -> Scenario:
    if isinstance(spec, Scenario):
        return spec
    return Scenario.from_dict(spec)


def run_sweep(
    scenarios: Iterable[ScenarioLike],
    backend: Union[Backend, str, None] = None,
    placement: str = "local",
    processes: int = 1,
    state_dir: Union[str, Path, None] = None,
    resume: bool = False,
    retries: int = 1,
    timeout: Optional[float] = None,
    include_solution: bool = False,
    host: str = "127.0.0.1",
    port: int = 7341,
    priority: int = 0,
    progress: Optional[Callable[[Dict[str, Any]], None]] = None,
) -> SweepOutcome:
    """Run a grid of scenarios through a placement-aware work queue.

    Parameters
    ----------
    scenarios:
        :class:`Scenario` values or plain dicts, e.g. from
        :func:`~repro.api.scenario.scenario_matrix`.
    backend:
        Instance, registered name, or ``None`` for
        :class:`SimulatedBackend`.  Instances must be picklable for the
        ``pool`` placement; the ``serve`` placement ignores this (the
        daemon runs its own backend).
    placement:
        ``"local"`` (in-process, daemonic-safe; ``"mega"`` is a second
        name), ``"pool"`` (process per shard), or ``"serve"`` (submit
        to a running daemon).
    processes:
        Worker count for ``pool`` / in-flight sizing hint for
        ``serve``; ignored by ``local``.
    state_dir:
        Directory for the result cache and per-grid journal; ``None``
        sweeps purely in memory (no resumability, no cache).
    resume:
        Replay this grid's journal from ``state_dir`` instead of
        rotating it aside; previously settled units are free.
    retries:
        Transient-failure budget *per unit* (timeouts, worker
        crashes); deterministic errors never retry.
    timeout:
        Per-attempt deadline in seconds (``None``: no deadline).
        Enforced by worker reaping under ``pool``; forwarded to
        deadline-capable backends under ``local``.
    include_solution:
        Keep per-rank solution vectors in records.  Incompatible with
        the ``serve`` placement (the daemon strips solutions).
    host / port / priority:
        ``serve`` placement only: where the daemon listens and the
        queue priority of this sweep's submissions.
    progress:
        Optional callback invoked after each settlement with a dict
        (``key``, ``kind``, ``source``, ``completed``, ``distinct``,
        ``resumed``, ``cache_hits``, plus pacing: ``elapsed_s``,
        ``rate`` in *executed* settlements/s -- journal-resumed and
        cache-hit units settle in ~0s and are excluded so a resumed
        sweep's pace stays honest -- and ``eta_s``, the remaining-work
        estimate at that live rate, ``None`` until a rate exists).
        Called *after* the settlement is durable, so a callback that
        raises (or a process killed inside one) never loses settled
        work.

    Returns
    -------
    :class:`SweepOutcome` -- records in input order plus the
    accounting counters, plan fingerprint and journal location.
    """
    if backend is None:
        backend = SimulatedBackend()
    backend_name = backend if isinstance(backend, str) else getattr(backend, "name", None)
    if placement not in _EXECUTORS:  # fail fast, before any unit runs
        raise KeyError(f"unknown placement {placement!r}; known: {sorted(_EXECUTORS)}")
    if placement == "serve" and include_solution:
        raise ValueError(
            "include_solution is not available with the 'serve' placement: "
            "the daemon caches records without per-rank solutions; "
            "use the 'local' or 'pool' placement instead"
        )

    counters = {
        "items": 0,
        "invalid": 0,
        "distinct": 0,
        "coalesced": 0,
        "executed": 0,
        "cache_hits": 0,
        "resumed": 0,
        "repaired": 0,
        "retries": 0,
        "failed": 0,
    }

    # ------------------------------------------------------------------
    # 1. validate everything, 2. coalesce duplicates into units
    # ------------------------------------------------------------------
    invalid: Dict[int, Dict[str, Any]] = {}
    index_keys: Dict[int, str] = {}
    index_scenarios: Dict[int, Dict[str, Any]] = {}
    units: Dict[str, Tuple[Dict[str, Any], Scenario]] = {}  # distinct key -> unit
    for index, spec in enumerate(scenarios):
        counters["items"] = index + 1
        try:
            scenario = _as_scenario(spec)
        except Exception as exc:  # noqa: BLE001 - per-item error record
            counters["invalid"] += 1
            invalid[index] = {
                "index": index,
                "scenario": dict(spec) if isinstance(spec, Mapping) else repr(spec),
                "error": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc(),
            }
            continue
        key = ResultCache.key_for(scenario)
        index_keys[index] = key
        index_scenarios[index] = scenario.to_dict()
        if key in units:
            counters["coalesced"] += 1
        else:
            units[key] = (index_scenarios[index], scenario)
    counters["distinct"] = len(units)

    fingerprint = plan_fingerprint(units.keys())
    state = (
        SweepState(
            state_dir,
            fingerprint,
            items=counters["items"],
            distinct=counters["distinct"],
            resume=resume,
        )
        if state_dir is not None
        else None
    )

    # key -> (DONE, record) | (FAILED, {"error", "traceback"?})
    settled: Dict[str, Any] = {}
    from repro.obs.metrics import MetricsRegistry

    metrics = MetricsRegistry()
    sweep_started = time.monotonic()
    #: Settlements that actually executed this run.  Journal-resumed
    #: and cache-hit units settle in ~0s, so folding them into the
    #: pace would make a resumed sweep's ETA wildly optimistic; the
    #: rate is live work per second, nothing else.
    live = {"settled": 0}

    def notify(key: str, kind: str, source: str) -> None:
        if source == SOURCE_EXECUTED:
            live["settled"] += 1
        if progress is None:
            return
        completed = len(settled)
        elapsed = time.monotonic() - sweep_started
        rate = live["settled"] / elapsed if elapsed > 0 else 0.0
        remaining = counters["distinct"] - completed
        progress(
            {
                "key": key,
                "kind": kind,
                "source": source,
                "completed": completed,
                "distinct": counters["distinct"],
                "resumed": counters["resumed"],
                "cache_hits": counters["cache_hits"],
                "elapsed_s": round(elapsed, 3),
                "rate": round(rate, 3),
                "eta_s": round(remaining / rate, 3) if rate > 0 else None,
            }
        )

    def settle(key: str, kind: str, payload: Any, source: str) -> None:
        settled[key] = (kind, payload)
        if kind == FAILED:
            counters["failed"] += 1
        notify(key, kind, source)

    journaled_done = set(state.done) if state is not None else set()
    job_scenarios: Dict[str, Scenario] = {}  # job id -> its unit's Scenario

    # ------------------------------------------------------------------
    # 3. admit: sticky failures, cache-born settlements, the rest queued
    # ------------------------------------------------------------------
    try:
        work = WorkQueue(
            cache=state.cache if state is not None else None,
            journal=state.journal if state is not None else None,
            max_attempts=retries + 1,
            backend=backend_name,
            require_solution=include_solution,
        )
        for key, (scenario_dict, scenario) in units.items():
            if state is not None and key in state.failed:
                counters["resumed"] += 1
                settle(key, FAILED, {"error": state.failed[key]}, SOURCE_RESUMED)
                continue
            job, _coalesced, record = work.admit(key, scenario_dict)
            job_scenarios[job.id] = scenario
            if record is not None:
                source = SOURCE_RESUMED if key in journaled_done else SOURCE_CACHE
                counters["resumed" if source == SOURCE_RESUMED else "cache_hits"] += 1
                settle(key, DONE, record, source)
            elif key in journaled_done:
                # Journaled done but the cache entry rotted (evicted,
                # corrupted, or written without what we need now):
                # re-execute rather than trust the journal blindly.
                counters["repaired"] += 1

        # --------------------------------------------------------------
        # 4. pump the remainder through the placement's executor
        # --------------------------------------------------------------
        if placement == "pool" and (work.in_flight <= 1 or backend_name == "process"):
            # One unit gains nothing from a worker process.  The process
            # backend spawns one child per rank and already parallelises
            # internally; hosting it inside pool workers would nest
            # process trees for no throughput gain.
            placement = "local"
        if work.in_flight:
            executor = _EXECUTORS[placement](
                backend=backend, processes=processes, timeout=timeout,
                include_solution=include_solution, host=host, port=port,
                priority=priority, scenarios=job_scenarios,
            )
            try:
                while work.in_flight:
                    work.dispatch(executor, time.monotonic())
                    for event in executor.poll():
                        work.store(*event)
                        job = work.settle(*event)
                        if job is None:
                            continue  # re-queued, or stale
                        metrics.histogram("unit_latency_s").observe(
                            time.monotonic() - job.started_mono
                        )
                        payload = event[2]
                        if job.state == DONE:
                            counters["executed"] += 1
                        else:
                            trace = payload.get("traceback") if isinstance(
                                payload, Mapping) else None
                            payload = {"error": job.error}
                            if trace:
                                payload["traceback"] = str(trace)
                        settle(job.key, job.state, payload, SOURCE_EXECUTED)
            finally:
                executor.shutdown()
        counters["retries"] = work.counters["retries"]
    finally:
        if state is not None:
            state.close()

    # ------------------------------------------------------------------
    # 5. fan settlements back out to input indices
    # ------------------------------------------------------------------
    records: List[Dict[str, Any]] = []
    for index in range(counters["items"]):
        if index in invalid:
            records.append(invalid[index])
            continue
        kind, payload = settled[index_keys[index]]
        # Coalesced twins share one execution but keep their own
        # scenario dict, so per-index labels stay honest.
        label = {"index": index, "scenario": index_scenarios[index]}
        records.append({**payload, **label} if kind == DONE else {**label, **payload})

    for name, value in counters.items():
        metrics.counter(f"sweep.{name}").inc(value)
    metrics.gauge("sweep.elapsed_s").set(time.monotonic() - sweep_started)
    return SweepOutcome(
        records=records,
        counters=counters,
        fingerprint=fingerprint,
        journal_path=state.journal_path if state is not None else None,
        state_dir=Path(state_dir) if state_dir is not None else None,
        metrics=metrics.snapshot(),
    )


__all__ = ["run_sweep", "SweepOutcome"]
