"""repro.obs -- the shared observability layer.

One span/marker vocabulary (:mod:`repro.core.trace`)
across all three backends, a metrics registry for the serve/sweep
layers, and exporters to NDJSON, Chrome trace-event JSON (Perfetto)
and ASCII reports.  See ``docs/observability.md``.
"""

from repro.obs.export import (
    chrome_to_timeline,
    load_trace,
    timeline_from_ndjson,
    timeline_to_chrome,
    timeline_to_ndjson,
    validate_chrome_trace,
    write_trace,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.report import format_utilisation, render_report, utilisation_table
from repro.obs.trace import SPAN_KINDS, TIMELINE_SCHEMA, Timeline, WallTracer

__all__ = [
    "Timeline",
    "WallTracer",
    "TIMELINE_SCHEMA",
    "SPAN_KINDS",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "timeline_to_ndjson",
    "timeline_from_ndjson",
    "timeline_to_chrome",
    "chrome_to_timeline",
    "validate_chrome_trace",
    "write_trace",
    "load_trace",
    "utilisation_table",
    "format_utilisation",
    "render_report",
]
