"""repro.obs -- the shared observability layer.

One span record (:class:`repro.core.trace.Timeline`) across all three
backends, a metrics registry for the serve/sweep layers, and exporters
to Chrome trace-event JSON (Perfetto) and ASCII reports.  See
``docs/observability.md``.
"""

from repro.core.trace import SPAN_KINDS, TIMELINE_SCHEMA, Timeline
from repro.obs.export import (
    chrome_to_timeline,
    load_trace,
    timeline_to_chrome,
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

__all__ = [
    "Timeline",
    "TIMELINE_SCHEMA",
    "SPAN_KINDS",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "timeline_to_chrome",
    "chrome_to_timeline",
    "validate_chrome_trace",
    "write_trace",
    "load_trace",
    "utilisation_table",
    "format_utilisation",
    "render_report",
]
