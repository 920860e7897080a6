"""A small thread-safe metrics registry: counters, gauges, histograms.

The serve scheduler, the sweep executor and (indirectly, via timeline
meta) the simulator engine all report through this one vocabulary, so
``repro serve``'s ``metrics`` verb, ``SweepOutcome.metrics`` and a
timeline's meta block read the same way.

No external dependencies, no background threads: every instrument is a
couple of plain attributes behind one lock, and ``snapshot()`` renders
the whole registry as a JSON-safe dict.  Histograms use fixed
log-spaced latency buckets (seconds) by default -- enough resolution
to separate "served from cache" from "ran a scenario" from "waited
behind the queue" without pretending sub-millisecond precision this
service does not have.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Dict, Optional, Sequence

#: Default histogram bucket upper bounds, in seconds: 1ms .. 60s,
#: roughly x2.5 per step, plus the implicit +inf overflow bucket.
DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


class Counter:
    """A monotonically increasing integer."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A point-in-time float (queue depth, busy workers...)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += float(delta)

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket histogram with count/sum/min/max.

    ``buckets`` are upper bounds in ascending order; observations above
    the last bound land in the implicit overflow bucket.
    """

    def __init__(self, buckets: Optional[Sequence[float]] = None) -> None:
        bounds = tuple(buckets if buckets is not None else DEFAULT_BUCKETS)
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"bucket bounds must strictly ascend: {bounds}")
        self._lock = threading.Lock()
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1: overflow
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            index = len(self.bounds)
            for i, bound in enumerate(self.bounds):
                if value <= bound:
                    index = i
                    break
            self._counts[index] += 1
            self.count += 1
            self.sum += value
            self.min = min(self.min, value)
            self.max = max(self.max, value)

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            counts = list(self._counts)
            count, total = self.count, self.sum
            lo = self.min if count else 0.0
            hi = self.max if count else 0.0
        return {
            "count": count,
            "sum": total,
            "mean": total / count if count else 0.0,
            "min": lo,
            "max": hi,
            "buckets": [
                {"le": bound, "count": counts[i]}
                for i, bound in enumerate(self.bounds)
            ]
            + [{"le": "inf", "count": counts[-1]}],
        }


class MetricsRegistry:
    """Named instruments, created on first use::

        metrics = MetricsRegistry()
        metrics.counter("submitted").inc()
        metrics.histogram("queue_latency_s").observe(0.012)
        metrics.snapshot()   # JSON-safe dict of everything

    Get-or-create is idempotent per name; asking for an existing name
    as a different instrument type raises.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[str, Any] = {}

    def _get(self, name: str, cls, *args) -> Any:
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = self._instruments[name] = cls(*args)
            elif not isinstance(instrument, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(instrument).__name__}, not {cls.__name__}"
                )
            return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        if buckets is not None:
            return self._get(name, Histogram, buckets)
        return self._get(name, Histogram)

    def snapshot(self) -> Dict[str, Any]:
        """Everything, grouped by instrument type, JSON-safe."""
        with self._lock:
            items = sorted(self._instruments.items())
        out: Dict[str, Any] = {"counters": {}, "gauges": {}, "histograms": {}}
        for name, instrument in items:
            if isinstance(instrument, Counter):
                out["counters"][name] = instrument.value
            elif isinstance(instrument, Gauge):
                out["gauges"][name] = instrument.value
            else:
                out["histograms"][name] = instrument.snapshot()
        return out


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
]
