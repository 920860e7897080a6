"""Timelines: the span record of every backend.

Figures 1 and 2 of the paper contrast the execution flow of a SISC
algorithm (computation blocks separated by idle waits) with an AIAC
algorithm (back-to-back computation, communications overlapped).  The
simulator (on its virtual clock) and the wall-clock interpreter of the
threaded and process backends (:class:`repro.runtime.executor.WallTracer`)
record per-rank activity spans into a :class:`Timeline`, so the
experiment harness can regenerate those figures as data (span tables,
utilisation percentages and an ASCII rendering) from any backend.

Span kinds are the simulator's: ``compute`` / ``idle`` / ``comm``
(plus free labels such as ``recv-wait`` or ``barrier``), so a threaded
timeline and a simulated timeline of the same scenario agree in
structure and can be compared rank for rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

#: Schema tag stamped into every serialized timeline.
TIMELINE_SCHEMA = "repro.timeline/1"

#: The canonical span kinds every backend records (labels vary freely).
SPAN_KINDS = ("compute", "idle", "comm")


@dataclass(frozen=True)
class Span:
    """One contiguous activity interval on one rank."""

    rank: int
    start: float
    end: float
    kind: str  # "compute" | "idle" | "comm" | custom
    label: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Marker:
    """A point event (message send/receive, iteration boundary...)."""

    rank: int
    time: float
    kind: str
    info: dict = field(default_factory=dict)


@dataclass
class Timeline:
    """A run's activity record, identical across backends.

    ``clock`` says what the time axis means: ``"virtual"`` (simulated
    seconds, exactly reproducible) or ``"wall"`` (monotonic seconds
    since the run's anchor).  ``meta`` carries backend-specific
    context -- engine event totals and transport counters on the
    simulator, message counts on the real-concurrency backends.  A
    timeline built with ``enabled=False`` records nothing.

    ``spans`` and ``markers`` keep insertion order, an artifact of
    interpreter scheduling (a span is recorded when it *ends*, and on
    the wall-clock backends after whatever thread won the race);
    :meth:`to_dict` sorts them, so two runs of the same schedule
    serialize identically.
    """

    backend: str = "?"
    clock: str = "virtual"
    spans: List[Span] = field(default_factory=list)
    markers: List[Marker] = field(default_factory=list)
    meta: Dict[str, Any] = field(default_factory=dict)
    enabled: bool = True

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def add_span(self, rank: int, start: float, end: float, kind: str, label: str = "") -> None:
        if not self.enabled:
            return
        if end < start:
            raise ValueError(f"span ends before it starts: [{start}, {end}]")
        if end > start:  # zero-length spans carry no information
            self.spans.append(Span(rank, start, end, kind, label))

    def add_marker(self, rank: int, time: float, kind: str, info: Optional[dict] = None) -> None:
        if not self.enabled:
            return
        self.markers.append(Marker(rank, time, kind, dict(info or {})))

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def spans_for(self, rank: int, kind: Optional[str] = None) -> List[Span]:
        return [
            s
            for s in self.spans
            if s.rank == rank and (kind is None or s.kind == kind)
        ]

    def markers_for(self, rank: int, kind: Optional[str] = None) -> List[Marker]:
        return [
            m
            for m in self.markers
            if m.rank == rank and (kind is None or m.kind == kind)
        ]

    def ranks(self) -> List[int]:
        return sorted({s.rank for s in self.spans} | {m.rank for m in self.markers})

    def makespan(self) -> float:
        return max((s.end for s in self.spans), default=0.0)

    def kind_time(self, rank: int, kind: str) -> float:
        """Total seconds ``rank`` spent in spans of ``kind``."""
        return sum(s.duration for s in self.spans if s.rank == rank and s.kind == kind)

    def idle_time(self, rank: int, horizon: Optional[float] = None) -> float:
        """Time not spent computing, from 0 to ``horizon`` (default makespan of the rank)."""
        spans = sorted(self.spans_for(rank, "compute"), key=lambda s: s.start)
        if horizon is None:
            horizon = max((s.end for s in spans), default=0.0)
        busy = 0.0
        cursor = 0.0
        for s in spans:
            if s.start > cursor:
                cursor = s.start
            if cursor >= horizon:  # the rest of the spans lie past the horizon
                break
            if s.end > cursor:
                busy += min(s.end, horizon) - cursor
                cursor = s.end
        return max(0.0, horizon - busy)

    def utilisation(self, rank: int) -> float:
        """Fraction of the global makespan spent computing on ``rank``."""
        horizon = self.makespan()
        if horizon <= 0:
            return 0.0
        return 1.0 - self.idle_time(rank, horizon) / horizon

    def idle_gaps(self, rank: int, min_gap: float = 0.0) -> List[Tuple[float, float]]:
        """Gaps between successive compute spans on ``rank``.

        These are the "white spaces" of Figure 1 in the paper.
        """
        spans = sorted(self.spans_for(rank, "compute"), key=lambda s: s.start)
        gaps: List[Tuple[float, float]] = []
        cursor: Optional[float] = None
        for s in spans:
            if cursor is not None and s.start - cursor > min_gap:
                gaps.append((cursor, s.start))
            cursor = max(cursor or 0.0, s.end)
        return gaps

    def check_no_overlap(self, rank: int, kind: str = "compute") -> bool:
        """Invariant: a host computes at most one thing at a time."""
        spans = sorted(self.spans_for(rank, kind), key=lambda s: (s.start, s.end))
        eps = 1e-12
        for a, b in zip(spans, spans[1:]):
            if b.start < a.end - eps:
                return False
        return True

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def ascii_gantt(self, width: int = 72, symbols: Optional[Dict[str, str]] = None) -> str:
        """Render the timeline as rows of characters (one per rank).

        ``#`` = compute, ``.`` = idle, ``~`` = communication wait.  The
        output for a 2-process run visually matches Figures 1 and 2 of
        the paper.
        """
        symbols = symbols or {"compute": "#", "comm": "~", "idle": "."}
        horizon = self.makespan()
        if horizon <= 0:
            return "(empty trace)"
        lines = []
        for rank in self.ranks():
            row = ["."] * width
            for s in self.spans_for(rank):
                sym = symbols.get(s.kind)
                if sym is None:
                    continue
                i0 = int(s.start / horizon * (width - 1))
                i1 = max(i0 + 1, int(s.end / horizon * (width - 1)) + 1)
                for i in range(i0, min(i1, width)):
                    if row[i] == "." or sym == "#":
                        row[i] = sym
            lines.append(f"P{rank:<3d} |{''.join(row)}|")
        lines.append(f"     0{'-' * (width - 10)}{horizon:8.3f}s")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict; spans/markers as compact rows in time order."""
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


__all__ = ["Timeline", "Span", "Marker", "TIMELINE_SCHEMA", "SPAN_KINDS"]
