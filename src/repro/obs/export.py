"""The trace file: a timeline as Chrome trace-event JSON.

The ``{"traceEvents": [...]}`` format Perfetto (https://ui.perfetto.dev)
and ``chrome://tracing`` load directly: one ``"ph": "X"`` complete event
per span (microsecond ``ts``/``dur``, ``tid`` = rank), one ``"ph": "i"``
instant per marker, plus ``"M"`` metadata events naming the process and
rank rows.  :func:`validate_chrome_trace` checks that shape and is what
the CI trace-smoke job runs against every backend's output.
:func:`write_trace` writes the file ``repro trace`` produces and
:func:`load_trace` reads it back for ``repro report``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Union

from repro.core.trace import TIMELINE_SCHEMA, Timeline

#: Allowed Chrome trace-event phases in our emitted files.
_PHASES = {"X", "i", "M"}


# ---------------------------------------------------------------------------
# Chrome trace-event JSON (Perfetto)
# ---------------------------------------------------------------------------
def timeline_to_chrome(timeline: Timeline) -> Dict[str, Any]:
    """The ``{"traceEvents": [...]}`` object Perfetto loads.

    Span times are seconds on the timeline's clock; Chrome wants
    microseconds, so virtual and wall clocks both scale by 1e6 and
    keep three decimals: the file holds every time to the nanosecond.
    The timeline header rides in ``otherData`` and each span's label
    in its ``args``, so :func:`chrome_to_timeline` gives back every
    span and marker, in time order, with its times to within 1 ns.
    """
    data = timeline.to_dict()
    pid = 1
    events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "ts": 0,
            "args": {"name": f"repro:{timeline.backend}"},
        }
    ]
    for rank in timeline.ranks():
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": rank,
                "ts": 0,
                "args": {"name": f"rank {rank}"},
            }
        )
    for rank, start, end, kind, label in data["spans"]:
        ts = round(start * 1e6, 3)
        events.append(
            {
                "name": label or kind,
                "cat": kind,
                "ph": "X",
                "pid": pid,
                "tid": rank,
                "ts": ts,
                # from the rounded start, so ts + dur is the rounded end
                "dur": round(end * 1e6 - ts, 3),
                "args": {"kind": kind, "label": label},
            }
        )
    for rank, at, kind, info in data["markers"]:
        events.append(
            {
                "name": kind,
                "cat": "marker",
                "ph": "i",
                "s": "t",  # thread-scoped instant
                "pid": pid,
                "tid": rank,
                "ts": round(at * 1e6, 3),
                "args": dict(info),
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "schema": data["schema"],
            "backend": data["backend"],
            "clock": data["clock"],
            "meta": data["meta"],
        },
    }


def validate_chrome_trace(obj: Any) -> Dict[str, Any]:
    """Check the Chrome trace-event shape; returns ``obj`` or raises.

    Validates what Perfetto actually needs: a ``traceEvents`` list of
    objects, each with a ``name``, a known ``ph``, integer-compatible
    non-negative ``ts``, ``pid``/``tid``, and a non-negative ``dur``
    on every complete (``"X"``) event.
    """
    if not isinstance(obj, Mapping):
        raise ValueError(f"chrome trace must be a JSON object, got {type(obj).__name__}")
    events = obj.get("traceEvents")
    if not isinstance(events, list) or not events:
        raise ValueError("chrome trace carries no 'traceEvents' list")
    for i, event in enumerate(events):
        if not isinstance(event, Mapping):
            raise ValueError(f"traceEvents[{i}] is not an object")
        where = f"traceEvents[{i}] ({event.get('name')!r})"
        if not isinstance(event.get("name"), str) or not event["name"]:
            raise ValueError(f"{where}: missing 'name'")
        phase = event.get("ph")
        if phase not in _PHASES:
            raise ValueError(f"{where}: phase {phase!r} not in {sorted(_PHASES)}")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                raise ValueError(f"{where}: '{key}' must be an integer")
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or isinstance(ts, bool) or ts < 0:
            raise ValueError(f"{where}: 'ts' must be a non-negative number")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or isinstance(dur, bool) or dur < 0:
                raise ValueError(f"{where}: 'X' event needs a non-negative 'dur'")
    return dict(obj)


def chrome_to_timeline(obj: Mapping[str, Any]) -> Timeline:
    """Rebuild a :class:`Timeline` from our emitted Chrome trace JSON."""
    validate_chrome_trace(obj)
    other = obj.get("otherData", {}) if isinstance(obj.get("otherData"), Mapping) else {}
    spans: List[list] = []
    markers: List[list] = []
    for event in obj["traceEvents"]:
        phase = event.get("ph")
        if phase == "X":
            args = event.get("args", {})
            ts = float(event["ts"])
            kind = event.get("cat") or args.get("kind", "compute")
            spans.append([event["tid"], ts / 1e6, (ts + float(event["dur"])) / 1e6,
                          kind, args.get("label", "")])
        elif phase == "i":
            markers.append(
                [event["tid"], float(event["ts"]) / 1e6, event["name"],
                 dict(event.get("args", {}))]
            )
    return Timeline.from_dict(
        {
            "schema": other.get("schema", TIMELINE_SCHEMA),
            "backend": other.get("backend", "?"),
            "clock": other.get("clock", "wall"),
            "meta": other.get("meta", {}),
            "spans": spans,
            "markers": markers,
        }
    )


# ---------------------------------------------------------------------------
# files
# ---------------------------------------------------------------------------
def write_trace(timeline: Timeline, path: Union[str, Path]) -> Path:
    """Write ``timeline`` to ``path`` as Chrome trace-event JSON."""
    path = Path(path)
    payload = timeline_to_chrome(timeline)
    validate_chrome_trace(payload)  # never emit what we would refuse
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return path


def load_trace(path: Union[str, Path]) -> Timeline:
    """Read a trace file :func:`write_trace` wrote (``ValueError`` if it
    is not one)."""
    return chrome_to_timeline(json.loads(Path(path).read_text(encoding="utf-8")))


__all__ = [
    "timeline_to_chrome",
    "chrome_to_timeline",
    "validate_chrome_trace",
    "write_trace",
    "load_trace",
]
