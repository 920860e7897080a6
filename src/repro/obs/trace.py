"""Timelines and tracers: one span vocabulary for every backend.

The simulator has always recorded a :class:`~repro.simgrid.trace.
GanttTrace` on its virtual clock; the threaded and process backends ran
dark.  This module closes the gap with two pieces:

* :class:`WallTracer` -- a wall-clock recorder with the same
  ``Span``/``Marker`` vocabulary, cheap enough to sit inside the
  effect interpreter (:func:`repro.runtime.executor._interpret`).
  Times are anchored at the run's start (the shared barrier release on
  the process backend), so per-rank clocks line up the way the
  simulator's virtual clock does.
* :class:`Timeline` -- the backend-agnostic export form: spans +
  markers + a ``clock`` tag (``"virtual"`` or ``"wall"``) + free-form
  meta, with a deterministic JSON round-trip.  ``RunResult.timeline``
  carries one, ``repro trace`` serializes one, ``repro report``
  renders one.

Span kinds are the simulator's: ``compute`` / ``idle`` / ``comm``
(plus free labels such as ``recv-wait`` or ``barrier``), so a threaded
timeline and a simulated timeline of the same scenario agree in
structure and can be compared rank for rank.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.simgrid.trace import GanttTrace, Marker, Span

#: Schema tag stamped into every serialized timeline.
TIMELINE_SCHEMA = "repro.timeline/1"

#: The canonical span kinds every backend records (labels vary freely).
SPAN_KINDS = ("compute", "idle", "comm")


@dataclass
class Timeline:
    """A finished run's activity record, identical across backends.

    ``clock`` says what the time axis means: ``"virtual"`` (simulated
    seconds, exactly reproducible) or ``"wall"`` (monotonic seconds
    since the run's anchor).  ``meta`` carries backend-specific
    context -- engine event totals and transport counters on the
    simulator, message counts on the real-concurrency backends.
    """

    backend: str
    clock: str
    spans: List[Span] = field(default_factory=list)
    markers: List[Marker] = field(default_factory=list)
    meta: Dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_gantt(
        cls,
        trace: GanttTrace,
        backend: str,
        clock: str,
        meta: Optional[Mapping[str, Any]] = None,
    ) -> "Timeline":
        """Wrap a recorded :class:`GanttTrace` (spans come out sorted)."""
        return cls(
            backend=backend,
            clock=clock,
            spans=trace.export_spans(),
            markers=trace.export_markers(),
            meta=dict(meta or {}),
        )

    def as_gantt(self) -> GanttTrace:
        """A live :class:`GanttTrace` over this timeline's data, for the
        analysis surface (``utilisation``, ``idle_gaps``,
        ``ascii_gantt``) shared with the figure harness."""
        trace = GanttTrace(enabled=True)
        trace.spans = list(self.spans)
        trace.markers = list(self.markers)
        return trace

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def ranks(self) -> List[int]:
        return sorted({s.rank for s in self.spans} | {m.rank for m in self.markers})

    def makespan(self) -> float:
        return max((s.end for s in self.spans), default=0.0)

    def span_kinds(self, rank: Optional[int] = None) -> List[str]:
        """Distinct span kinds, optionally restricted to one rank."""
        return sorted(
            {s.kind for s in self.spans if rank is None or s.rank == rank}
        )

    def markers_for(self, rank: int, kind: Optional[str] = None) -> List[Marker]:
        return [
            m
            for m in self.markers
            if m.rank == rank and (kind is None or m.kind == kind)
        ]

    def kind_time(self, rank: int, kind: str) -> float:
        """Total seconds ``rank`` spent in spans of ``kind``."""
        return sum(s.duration for s in self.spans if s.rank == rank and s.kind == kind)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict; spans/markers as compact rows, sorted."""
        return {
            "schema": TIMELINE_SCHEMA,
            "backend": self.backend,
            "clock": self.clock,
            "meta": dict(self.meta),
            "spans": [
                [s.rank, float(s.start), float(s.end), s.kind, s.label]
                for s in sorted(
                    self.spans,
                    key=lambda s: (s.start, s.end, s.rank, s.kind, s.label),
                )
            ],
            "markers": [
                [m.rank, float(m.time), m.kind, dict(m.info)]
                for m in sorted(self.markers, key=lambda m: (m.time, m.rank, m.kind))
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Timeline":
        schema = data.get("schema", TIMELINE_SCHEMA)
        if schema != TIMELINE_SCHEMA:
            raise ValueError(
                f"unsupported timeline schema {schema!r} "
                f"(this build reads {TIMELINE_SCHEMA!r})"
            )
        spans = [
            Span(int(r), float(a), float(b), str(kind), str(label))
            for r, a, b, kind, label in data.get("spans", [])
        ]
        markers = [
            Marker(int(r), float(t), str(kind), dict(info))
            for r, t, kind, info in data.get("markers", [])
        ]
        return cls(
            backend=str(data.get("backend", "?")),
            clock=str(data.get("clock", "wall")),
            spans=spans,
            markers=markers,
            meta=dict(data.get("meta", {})),
        )


class WallTracer:
    """Wall-clock span/marker recorder for the real-concurrency backends.

    ``anchor`` is the monotonic instant that becomes ``t = 0`` -- the
    threaded run's start, or (on the process backend) each child's
    post-barrier anchor, the same instant the fault-plan clock uses, so
    per-rank axes line up across processes.  Recording is two float
    subtractions and a list append; with no tracer installed the
    interpreter pays a single ``is None`` test per effect.

    List appends are atomic under the GIL, so one tracer may be shared
    by every thread of a threaded run without locking.
    """

    def __init__(self, anchor: Optional[float] = None) -> None:
        self.anchor = time.monotonic() if anchor is None else anchor
        self.trace = GanttTrace(enabled=True)

    def span(self, rank: int, start: float, end: float, kind: str, label: str = "") -> None:
        """Record one span; ``start``/``end`` are raw monotonic readings."""
        anchor = self.anchor
        self.trace.add_span(rank, start - anchor, end - anchor, kind, label)

    def marker(self, rank: int, at: float, kind: str, info: Optional[dict] = None) -> None:
        self.trace.add_marker(rank, at - self.anchor, kind, info)

    # ------------------------------------------------------------------
    # cross-process shipping
    # ------------------------------------------------------------------
    def payload(self) -> Tuple[List[tuple], List[tuple]]:
        """A picklable snapshot (span rows, marker rows), anchor-relative.

        The process backend's children ship this in their exit report;
        the tuples avoid pickling dataclass instances across the
        results queue.
        """
        return (
            [(s.rank, s.start, s.end, s.kind, s.label) for s in self.trace.spans],
            [(m.rank, m.time, m.kind, dict(m.info)) for m in self.trace.markers],
        )

    @staticmethod
    def merge_payloads(
        payloads: Sequence[Tuple[List[tuple], List[tuple]]],
    ) -> GanttTrace:
        """Fold per-rank payloads (already on one time axis) into one trace."""
        trace = GanttTrace(enabled=True)
        for spans, markers in payloads:
            for rank, start, end, kind, label in spans:
                trace.add_span(rank, start, end, kind, label)
            for rank, at, kind, info in markers:
                trace.add_marker(rank, at, kind, info)
        return trace


__all__ = ["Timeline", "WallTracer", "TIMELINE_SCHEMA", "SPAN_KINDS"]
