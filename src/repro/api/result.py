"""The unified result type shared by every backend.

Whether a scenario ran on the discrete-event simulator or on real
threads, callers get the same object: ``makespan`` (simulated seconds
or wall seconds), the per-rank :class:`~repro.core.aiac.WorkerReport`
mapping, convergence/iteration aggregates, the assembled global
``solution()`` and a JSON-serializable ``to_record()`` /
``from_record()`` round-trip -- the currency of :func:`repro.sweep.run_sweep`.
"""

from __future__ import annotations

from collections import abc
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

import numpy as np

from repro.api.scenario import Scenario
from repro.core.aiac import WorkerReport


def jsonify(value: Any) -> Any:
    """Recursively convert numpy containers/scalars to JSON-safe types::

        >>> jsonify({"x": np.arange(2), "n": np.int64(3)})
        {'x': [0, 1], 'n': 3}
    """
    # ``dict`` first, the ABC (Python-level checks per value) last.
    if isinstance(value, dict):
        return {str(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, abc.Mapping):
        return {str(k): jsonify(v) for k, v in value.items()}
    return value


@dataclass
class RunResult:
    """Outcome of one scenario execution, identical across backends.

    ``makespan`` is the backend's primary time axis: simulated seconds
    on :class:`~repro.api.backends.SimulatedBackend`, wall-clock seconds
    on :class:`~repro.api.backends.ThreadedBackend`.  ``elapsed`` is
    always the wall-clock time the execution took.  ``world`` is the
    simulator world when one exists (trace access); it is never
    serialized.

    Example
    -------
    ::

        result = run_scenario(scenario)
        if result.converged:
            x = result.solution()              # global vector, rank order
        record = result.to_record()            # JSON-safe dict
        same = RunResult.from_record(record)   # minus the live world

    The record fields are what ``sweep`` and the CLI emit; see
    ``docs/backends.md`` for the full surface.
    """

    makespan: float
    reports: Dict[int, WorkerReport]
    backend: str = "simulated"
    elapsed: float = 0.0
    scenario: Optional[Scenario] = None
    backend_stats: Dict[str, Any] = field(default_factory=dict)
    #: Fault/recovery counters from the scenario's fault plan (empty
    #: when the run carried none): ``messages_dropped``,
    #: ``messages_duplicated``, ``messages_delayed``, ``crash_dropped``,
    #: ``link_degradations``, ``host_slowdowns``, ``crashes``,
    #: ``recoveries``.  See ``docs/testing.md``.
    faults: Dict[str, int] = field(default_factory=dict)
    world: Optional[Any] = None
    #: Per-rank span/marker timeline (a :class:`repro.core.trace.Timeline`)
    #: when the backend ran with tracing on; ``None`` otherwise.  Unlike
    #: ``world`` it *does* serialize: ``to_record`` emits it as a
    #: ``"timeline"`` section and ``from_record`` rebuilds it.
    timeline: Optional[Any] = None

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------
    @property
    def converged(self) -> bool:
        """True when every rank reported convergence."""
        return bool(self.reports) and all(
            r.converged for r in self.reports.values()
        )

    @property
    def total_iterations(self) -> int:
        """Sum of iteration counts over all ranks."""
        return sum(r.iterations for r in self.reports.values())

    @property
    def max_iterations(self) -> int:
        """Largest per-rank iteration count (0 with no reports)."""
        return max((r.iterations for r in self.reports.values()), default=0)

    @property
    def balancing(self) -> Dict[str, int]:
        """Aggregated migration counters over all ranks (empty when the
        run carried no balancing plan); see ``docs/balancing.md``."""
        totals: Dict[str, int] = {}
        for rep in self.reports.values():
            counters = rep.meta.get("balancing") if isinstance(rep.meta, Mapping) else None
            if not counters:
                continue
            for key, value in counters.items():
                totals[key] = totals.get(key, 0) + int(value)
        return totals

    def solution(self) -> np.ndarray:
        """Concatenate the per-rank local solutions in rank order."""
        parts = [self.reports[r].solution for r in sorted(self.reports)]
        if not parts or any(p is None or np.size(p) == 0 for p in parts):
            raise ValueError(
                "no per-rank solutions available (rebuilt from a record "
                "written with include_solution=False?)"
            )
        return np.concatenate(parts)

    # ------------------------------------------------------------------
    # records
    # ------------------------------------------------------------------
    def to_record(self, include_solution: bool = False) -> Dict[str, Any]:
        """A JSON-serializable flat record of this run.

        ``include_solution`` additionally stores every rank's local
        solution vector (arbitrarily large for big problems, hence
        opt-in); without it, ``from_record`` rebuilds a result whose
        ``solution()`` raises.
        """
        report_records = []
        for rank in sorted(self.reports):
            rep = self.reports[rank]
            record = {
                "rank": rep.rank,
                "iterations": rep.iterations,
                "converged": bool(rep.converged),
                "stopped_by_coordinator": bool(rep.stopped_by_coordinator),
                "elapsed": float(rep.elapsed),
                "residual": float(rep.residual),
                "sends": rep.sends,
                "skipped_sends": rep.skipped_sends,
                "state_messages": rep.state_messages,
                "busy_time": float(getattr(rep, "busy_time", 0.0)),
                "meta": jsonify(rep.meta),
            }
            if include_solution:
                record["solution"] = np.asarray(rep.solution).tolist()
            report_records.append(record)
        return {
            "backend": self.backend,
            "makespan": float(self.makespan),
            "elapsed": float(self.elapsed),
            "converged": self.converged,
            "total_iterations": self.total_iterations,
            "max_iterations": self.max_iterations,
            "scenario": None if self.scenario is None else self.scenario.to_dict(),
            # The stable join key between a record and its scenario --
            # identical for every record produced from content-equal
            # scenarios (labels excluded); see Scenario.content_hash.
            "scenario_hash": (
                None if self.scenario is None else self.scenario.content_hash()
            ),
            "backend_stats": jsonify(self.backend_stats),
            "faults": {str(k): int(v) for k, v in sorted(self.faults.items())},
            "reports": report_records,
            **(
                {}
                if self.timeline is None
                else {"timeline": self.timeline.to_dict()}
            ),
        }

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "RunResult":
        """Rebuild a result (minus the live world) from a record."""
        reports: Dict[int, WorkerReport] = {}
        for rep in record.get("reports", []):
            solution = np.asarray(rep.get("solution", []), dtype=float)
            reports[rep["rank"]] = WorkerReport(
                rank=rep["rank"],
                iterations=rep["iterations"],
                converged=rep["converged"],
                stopped_by_coordinator=rep["stopped_by_coordinator"],
                elapsed=rep["elapsed"],
                residual=rep["residual"],
                solution=solution,
                sends=rep.get("sends", 0),
                skipped_sends=rep.get("skipped_sends", 0),
                state_messages=rep.get("state_messages", 0),
                busy_time=rep.get("busy_time", 0.0),
                meta=dict(rep.get("meta", {})),
            )
        scenario = record.get("scenario")
        timeline = None
        if record.get("timeline") is not None:
            from repro.core.trace import Timeline

            timeline = Timeline.from_dict(record["timeline"])
        return cls(
            makespan=record["makespan"],
            reports=reports,
            backend=record.get("backend", "simulated"),
            elapsed=record.get("elapsed", 0.0),
            scenario=None if scenario is None else Scenario.from_dict(scenario),
            backend_stats=dict(record.get("backend_stats", {})),
            faults=dict(record.get("faults", {})),
            timeline=timeline,
        )


__all__ = ["RunResult", "jsonify"]
