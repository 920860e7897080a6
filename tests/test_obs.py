"""The observability layer: timelines, metrics, exporters, reports.

The load-bearing test here is the cross-backend conformance battery:
one small scenario traced on all three backends must emit timelines
that agree *structurally* -- same schema, same rank set, compute and
idle and comm coverage, iteration markers where the algorithm emits
them -- even though the clocks (virtual vs wall) and the absolute
numbers differ.  Everything else is units: deterministic export order,
utilisation arithmetic, histogram buckets, round-trips through NDJSON
and Chrome trace-event JSON, and the serve scheduler's ``metrics``
verb.
"""

import json
import math

import pytest

from repro.api import Scenario, run_scenario
from repro.api.result import RunResult
from repro.obs import (
    SPAN_KINDS,
    TIMELINE_SCHEMA,
    MetricsRegistry,
    Timeline,
    WallTracer,
    chrome_to_timeline,
    format_utilisation,
    load_trace,
    render_report,
    timeline_from_ndjson,
    timeline_to_chrome,
    timeline_to_ndjson,
    utilisation_table,
    validate_chrome_trace,
    write_trace,
)
from repro.obs.metrics import Counter, Gauge, Histogram
from repro.simgrid.trace import GanttTrace


def small_trace():
    """Two ranks, hand-placed spans, inserted *out* of time order."""
    trace = GanttTrace()
    trace.add_span(1, 2.0, 3.0, "compute", "iter1")
    trace.add_span(0, 0.0, 2.0, "compute", "iter0")
    trace.add_span(0, 2.0, 2.5, "idle")
    trace.add_span(1, 0.0, 2.0, "comm", "recv")
    trace.add_span(0, 2.5, 4.0, "compute", "iter1")
    trace.add_marker(1, 3.0, "iteration", {"k": 1})
    trace.add_marker(0, 2.0, "iteration", {"k": 0})
    return trace


# ---------------------------------------------------------------------------
# satellite 1: deterministic export order
# ---------------------------------------------------------------------------

class TestExportOrder:
    def test_export_spans_sorted_regardless_of_insertion(self):
        trace = small_trace()
        exported = trace.export_spans()
        keys = [(s.start, s.end, s.rank) for s in exported]
        assert keys == sorted(keys)
        # Insertion order above was NOT time order -- the sort did work.
        assert [s.start for s in trace.spans] != [s.start for s in exported]

    def test_export_markers_sorted(self):
        trace = small_trace()
        times = [(m.time, m.rank) for m in trace.export_markers()]
        assert times == sorted(times)

    def test_two_insertion_orders_serialize_identically(self):
        forward = GanttTrace()
        backward = GanttTrace()
        spans = [(0, 0.0, 1.0, "compute"), (1, 0.5, 2.0, "comm"), (0, 1.0, 1.5, "idle")]
        for s in spans:
            forward.add_span(*s)
        for s in reversed(spans):
            backward.add_span(*s)
        a = Timeline.from_gantt(forward, backend="x", clock="virtual").to_dict()
        b = Timeline.from_gantt(backward, backend="x", clock="virtual").to_dict()
        assert a == b


# ---------------------------------------------------------------------------
# timeline container
# ---------------------------------------------------------------------------

class TestTimeline:
    def test_round_trip_dict(self):
        timeline = Timeline.from_gantt(
            small_trace(), backend="simulated", clock="virtual", meta={"n": 3}
        )
        data = timeline.to_dict()
        assert data["schema"] == TIMELINE_SCHEMA
        back = Timeline.from_dict(data)
        assert back.to_dict() == data
        assert back.ranks() == [0, 1]
        assert back.meta == {"n": 3}

    def test_schema_mismatch_rejected(self):
        data = Timeline.from_gantt(small_trace(), backend="x", clock="wall").to_dict()
        data["schema"] = "someone.else/9"
        with pytest.raises(ValueError):
            Timeline.from_dict(data)

    def test_kind_time_and_makespan(self):
        timeline = Timeline.from_gantt(small_trace(), backend="x", clock="virtual")
        assert timeline.kind_time(0, "compute") == pytest.approx(3.5)
        assert timeline.kind_time(0, "idle") == pytest.approx(0.5)
        assert timeline.kind_time(1, "comm") == pytest.approx(2.0)
        assert timeline.makespan() == pytest.approx(4.0)

    def test_as_gantt_round_trip(self):
        timeline = Timeline.from_gantt(small_trace(), backend="x", clock="virtual")
        gantt = timeline.as_gantt()
        assert gantt.ranks() == [0, 1]
        assert gantt.utilisation(0) == pytest.approx(3.5 / 4.0)


class TestWallTracer:
    def test_anchor_subtraction(self):
        tracer = WallTracer(anchor=100.0)
        tracer.span(0, 100.5, 101.0, "compute", "a")
        tracer.marker(0, 101.0, "iteration", {"k": 0})
        (spans, markers) = tracer.payload()
        assert spans == [(0, 0.5, 1.0, "compute", "a")]
        assert markers[0][1] == pytest.approx(1.0)

    def test_merge_payloads(self):
        a = WallTracer(anchor=0.0)
        a.span(0, 0.0, 1.0, "compute")
        b = WallTracer(anchor=0.0)
        b.span(1, 0.5, 2.0, "compute")
        b.marker(1, 2.0, "iteration")
        merged = WallTracer.merge_payloads([a.payload(), b.payload()])
        assert merged.ranks() == [0, 1]
        assert merged.makespan() == pytest.approx(2.0)
        assert len(merged.markers) == 1


# ---------------------------------------------------------------------------
# utilisation math + report rendering (satellite 3)
# ---------------------------------------------------------------------------

class TestUtilisationReport:
    def test_table_math(self):
        rows = utilisation_table(small_trace())
        by_rank = {row["rank"]: row for row in rows}
        assert set(by_rank) == {0, 1}
        r0 = by_rank[0]
        assert r0["compute_s"] == pytest.approx(3.5)
        assert r0["idle_s"] == pytest.approx(0.5)
        assert r0["comm_s"] == 0.0
        # Rank 0 computes 3.5s of the 4.0s makespan: .idle_time also
        # counts the untraced tail, so utilisation is makespan-relative.
        assert r0["utilisation"] == pytest.approx(3.5 / 4.0)
        r1 = by_rank[1]
        assert r1["compute_s"] == pytest.approx(1.0)
        assert r1["utilisation"] == pytest.approx(1.0 / 4.0)
        assert r0["markers"] == 1 and r1["markers"] == 1

    def test_table_accepts_timeline_and_gantt(self):
        trace = small_trace()
        timeline = Timeline.from_gantt(trace, backend="x", clock="virtual")
        assert utilisation_table(trace) == utilisation_table(timeline)

    def test_format_utilisation(self):
        text = format_utilisation(utilisation_table(small_trace()))
        assert "rank" in text and "util" in text
        assert "87.5%" in text  # rank 0: 3.5 / 4.0

    def test_render_report_sections(self):
        timeline = Timeline.from_gantt(
            small_trace(), backend="threaded", clock="wall", meta={"elapsed": 4.0}
        )
        text = render_report(timeline)
        assert "backend: threaded" in text and "clock: wall" in text
        assert "elapsed=4.0" in text
        assert "iteration markers: P0: 1, P1: 1" in text


# ---------------------------------------------------------------------------
# metrics units
# ---------------------------------------------------------------------------

class TestMetrics:
    def test_counter_monotonic(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge(self):
        g = Gauge()
        g.set(3.0)
        g.add(-1.5)
        assert g.value == pytest.approx(1.5)

    def test_histogram_buckets_and_quantiles(self):
        h = Histogram(buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 5.0, 50.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 5
        assert snap["sum"] == pytest.approx(56.05)
        counts = {b["le"]: b["count"] for b in snap["buckets"]}
        # Per-bucket counts, overflow under "inf".
        assert counts[0.1] == 1
        assert counts[1.0] == 2
        assert counts[10.0] == 1
        assert counts["inf"] == 1
        assert sum(counts.values()) == snap["count"]
        assert h.quantile(0.5) <= 1.0
        assert h.quantile(1.0) == math.inf or h.quantile(1.0) >= 10.0

    def test_histogram_requires_ascending_buckets(self):
        with pytest.raises(ValueError):
            Histogram(buckets=(1.0, 0.5))

    def test_quantile_clamped_to_observed_range(self):
        # Regression: a single 0.9s observation in the (0.5, 1.0] bucket
        # used to interpolate p50 = 0.75 -- below anything ever observed.
        h = Histogram(buckets=(0.5, 1.0))
        h.observe(0.9)
        for q in (0.0, 0.5, 1.0):
            assert h.quantile(q) == pytest.approx(0.9)

    def test_quantile_empty_histogram_is_zero(self):
        h = Histogram()
        assert h.quantile(0.5) == 0.0
        assert h.quantile(0.0) == 0.0

    def test_quantile_overflow_bucket_stays_within_observations(self):
        # Overflow-bucket observations have no upper bound; the clamp
        # keeps every quantile inside [min, max] anyway.
        h = Histogram(buckets=(0.1, 1.0))
        h.observe(5.0)
        h.observe(7.0)
        assert 5.0 <= h.quantile(0.01) <= 7.0
        assert 5.0 <= h.quantile(0.99) <= 7.0
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_registry_get_or_create_and_type_clash(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        reg.gauge("g").set(1.0)
        with pytest.raises(TypeError):
            reg.histogram("a")
        snap = reg.snapshot()
        assert snap["counters"]["a"] == 0
        assert snap["gauges"]["g"] == 1.0
        assert snap["histograms"] == {}


# ---------------------------------------------------------------------------
# exporters: NDJSON + Chrome trace-event JSON
# ---------------------------------------------------------------------------

class TestExporters:
    def _timeline(self):
        return Timeline.from_gantt(
            small_trace(), backend="simulated", clock="virtual", meta={"events": 12}
        )

    def test_ndjson_round_trip(self):
        timeline = self._timeline()
        text = timeline_to_ndjson(timeline)
        lines = [json.loads(line) for line in text.splitlines()]
        assert lines[0]["type"] == "meta"
        back = timeline_from_ndjson(text)
        assert back.to_dict() == timeline.to_dict()

    def test_chrome_round_trip_and_validation(self):
        timeline = self._timeline()
        chrome = timeline_to_chrome(timeline)
        validated = validate_chrome_trace(chrome)
        complete = [e for e in validated["traceEvents"] if e["ph"] == "X"]
        instants = [e for e in validated["traceEvents"] if e["ph"] == "i"]
        assert len(complete) == len(timeline.spans)
        assert len(instants) == len(timeline.markers)
        back = chrome_to_timeline(chrome)
        assert back.to_dict() == timeline.to_dict()

    def test_chrome_event_shape(self):
        chrome = timeline_to_chrome(self._timeline())
        events = chrome["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert complete, "no complete events"
        first = complete[0]
        assert first["pid"] == 1 and "tid" in first
        assert first["ts"] >= 0 and first["dur"] > 0  # microseconds
        assert any(e["ph"] == "M" and e["name"] == "thread_name" for e in events)
        assert any(e["ph"] == "i" for e in events)

    def test_validate_rejects_malformed(self):
        with pytest.raises(ValueError):
            validate_chrome_trace([])  # not an object
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": "nope"})
        chrome = timeline_to_chrome(self._timeline())
        chrome["traceEvents"].append({"ph": "X", "name": "torn"})  # no ts/dur
        with pytest.raises(ValueError):
            validate_chrome_trace(chrome)

    def test_write_and_load_both_formats(self, tmp_path):
        timeline = self._timeline()
        chrome_path = tmp_path / "t.json"
        ndjson_path = tmp_path / "t.ndjson"
        write_trace(timeline, chrome_path, format="chrome")
        write_trace(timeline, ndjson_path, format="ndjson")
        assert load_trace(chrome_path).to_dict() == timeline.to_dict()
        assert load_trace(ndjson_path).to_dict() == timeline.to_dict()


# ---------------------------------------------------------------------------
# cross-backend conformance: one scenario, three backends, same structure
# ---------------------------------------------------------------------------

SCENARIO = Scenario(
    problem="sparse_linear",
    problem_params={"n": 60},
    environment="sync_mpi",
    n_ranks=2,
    seed=3,
)


def traced_run(backend):
    result = run_scenario(SCENARIO, backend=backend, timeline=True)
    assert result.timeline is not None
    return result


class TestCrossBackendTimelines:
    @pytest.mark.parametrize("backend", ["simulated", "threaded", "process"])
    def test_structural_agreement(self, backend):
        result = traced_run(backend)
        timeline = result.timeline
        assert timeline.backend == backend
        assert timeline.clock == ("virtual" if backend == "simulated" else "wall")
        assert timeline.ranks() == [0, 1]
        kinds = set(timeline.span_kinds())
        assert kinds <= set(SPAN_KINDS)
        for rank in timeline.ranks():
            assert timeline.kind_time(rank, "compute") > 0.0
        # Synchronous iterations block on the exchange: every backend
        # must surface that wait as idle and/or comm time somewhere.
        waiting = sum(
            timeline.kind_time(r, "idle") + timeline.kind_time(r, "comm")
            for r in timeline.ranks()
        )
        assert waiting > 0.0
        assert timeline.makespan() > 0.0
        # Same serialized schema everywhere.
        assert timeline.to_dict()["schema"] == TIMELINE_SCHEMA
        validate_chrome_trace(timeline_to_chrome(timeline))

    def test_untraced_run_has_no_timeline(self):
        result = run_scenario(SCENARIO, backend="simulated")
        assert result.timeline is None
        assert "timeline" not in result.to_record()

    def test_recording_a_timeline_does_not_change_the_run(self):
        """Observation never perturbs the simulation: the same scenario
        with ``timeline=False`` and ``timeline=True`` does the same work
        and ends at the same virtual time."""
        scenario = Scenario(
            problem="sparse_linear",
            problem_params={"n": 600},
            environment="pm2",
            n_ranks=4,
            seed=42,
        )

        def work(timeline):
            result = run_scenario(scenario, backend="simulated", timeline=timeline)
            assert (result.timeline is not None) == timeline
            stats = result.backend_stats
            return (stats["events"], stats["messages_sent"],
                    result.total_iterations, result.max_iterations,
                    result.converged, result.makespan)

        off, on = work(False), work(True)
        assert off == on
        assert off[0] > 0 and off[2] > 0

    def test_record_round_trip_carries_timeline(self):
        result = traced_run("simulated")
        record = result.to_record()
        assert record["timeline"]["schema"] == TIMELINE_SCHEMA
        back = RunResult.from_record(record)
        assert back.timeline.to_dict() == result.timeline.to_dict()
        assert back.timeline.ranks() == result.timeline.ranks()

    def test_simulated_timeline_meta_has_engine_stats(self):
        result = traced_run("simulated")
        assert result.timeline.meta.get("events", 0) > 0
