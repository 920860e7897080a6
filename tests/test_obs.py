"""The observability layer: timelines, metrics, exporters, reports.

The load-bearing test here is the cross-backend conformance battery:
one small scenario traced on all three backends must emit timelines
that agree *structurally* -- same schema, same rank set, compute and
idle and comm coverage, iteration markers where the algorithm emits
them -- even though the clocks (virtual vs wall) and the absolute
numbers differ.  Everything else is units: deterministic export order,
utilisation arithmetic, histogram buckets, round-trips through Chrome
trace-event JSON, and the serve scheduler's ``metrics`` verb.
"""

import json

import pytest

from repro.api import Scenario, run_scenario
from repro.api.result import RunResult
from repro.core.aiac import AIACOptions
from repro.core.trace import Span
from repro.obs import (
    SPAN_KINDS,
    TIMELINE_SCHEMA,
    MetricsRegistry,
    Timeline,
    chrome_to_timeline,
    format_utilisation,
    load_trace,
    render_report,
    timeline_to_chrome,
    utilisation_table,
    validate_chrome_trace,
    write_trace,
)
from repro.obs.metrics import Counter, Gauge, Histogram
from repro.runtime.executor import WallTracer


def small_trace(**header):
    """Two ranks, hand-placed spans, inserted *out* of time order."""
    trace = Timeline(**header)
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
        exported = trace.to_dict()["spans"]
        keys = [(start, end, rank) for rank, start, end, _, _ in exported]
        assert keys == sorted(keys)
        # Insertion order above was NOT time order -- the sort did work.
        assert [s.start for s in trace.spans] != [row[1] for row in exported]

    def test_export_markers_sorted(self):
        trace = small_trace()
        times = [(at, rank) for rank, at, _, _ in trace.to_dict()["markers"]]
        assert times == sorted(times)

    def test_two_insertion_orders_serialize_identically(self):
        forward = Timeline(backend="x")
        backward = Timeline(backend="x")
        spans = [(0, 0.0, 1.0, "compute"), (1, 0.5, 2.0, "comm"), (0, 1.0, 1.5, "idle")]
        for s in spans:
            forward.add_span(*s)
        for s in reversed(spans):
            backward.add_span(*s)
        assert forward.to_dict() == backward.to_dict()


# ---------------------------------------------------------------------------
# timeline container
# ---------------------------------------------------------------------------

class TestTimeline:
    def test_round_trip_dict(self):
        timeline = small_trace(backend="simulated", meta={"n": 3})
        data = timeline.to_dict()
        assert data["schema"] == TIMELINE_SCHEMA
        back = Timeline.from_dict(data)
        assert back.to_dict() == data
        assert back.ranks() == [0, 1]
        assert back.meta == {"n": 3}

    def test_schema_mismatch_rejected(self):
        data = small_trace(backend="x", clock="wall").to_dict()
        data["schema"] = "someone.else/9"
        with pytest.raises(ValueError):
            Timeline.from_dict(data)

    def test_kind_time_and_makespan(self):
        timeline = small_trace()
        assert timeline.kind_time(0, "compute") == pytest.approx(3.5)
        assert timeline.kind_time(0, "idle") == pytest.approx(0.5)
        assert timeline.kind_time(1, "comm") == pytest.approx(2.0)
        assert timeline.makespan() == pytest.approx(4.0)


class TestWallTracer:
    def test_anchor_subtraction(self):
        tracer = WallTracer(anchor=100.0)
        tracer.span(0, 100.5, 101.0, "compute", "a")
        tracer.marker(0, 101.0, "iteration", {"k": 0})
        assert tracer.timeline.clock == "wall"
        assert tracer.timeline.spans == [Span(0, 0.5, 1.0, "compute", "a")]
        assert tracer.timeline.markers[0].time == pytest.approx(1.0)

    def test_rank_rows_join_into_one_timeline(self):
        """The process backend's join: each rank ships ``to_dict()`` rows
        and the parent concatenates them into one timeline."""
        a = WallTracer(anchor=0.0)
        a.span(0, 0.0, 1.0, "compute")
        b = WallTracer(anchor=0.0)
        b.span(1, 0.5, 2.0, "compute")
        b.marker(1, 2.0, "iteration")
        rows = [a.timeline.to_dict(), b.timeline.to_dict()]
        merged = Timeline.from_dict({
            "spans": [row for r in rows for row in r["spans"]],
            "markers": [row for r in rows for row in r["markers"]],
        })
        assert merged.clock == "wall"
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

    def test_format_utilisation(self):
        text = format_utilisation(utilisation_table(small_trace()))
        assert "rank" in text and "util" in text
        assert "87.5%" in text  # rank 0: 3.5 / 4.0

    def test_render_report_sections(self):
        timeline = small_trace(backend="threaded", clock="wall", meta={"elapsed": 4.0})
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

    def test_histogram_bucket_counts(self):
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

    def test_histogram_requires_ascending_buckets(self):
        with pytest.raises(ValueError):
            Histogram(buckets=(1.0, 0.5))

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
# exporters: Chrome trace-event JSON
# ---------------------------------------------------------------------------

class TestExporters:
    def _timeline(self):
        return small_trace(backend="simulated", meta={"events": 12})

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
        path = write_trace(timeline, tmp_path / "t.json")
        assert load_trace(path).to_dict() == timeline.to_dict()

    def test_load_rejects_a_file_that_is_not_a_chrome_trace(self, tmp_path):
        path = tmp_path / "t.json"
        for text in ("not json", "[]", '{"spans": []}'):
            path.write_text(text)
            with pytest.raises(ValueError):
                load_trace(path)

    @pytest.mark.parametrize("backend", ["simulated", "threaded", "process"])
    def test_trace_file_keeps_every_span_label_and_marker(self, backend, tmp_path):
        """The file holds each span's rank, kind and label, each marker
        and the run metadata exactly, and every time to within 1 ns."""
        scenario = Scenario(
            problem="sparse_linear", problem_params={"n": 60}, environment="pm2",
            n_ranks=2, seed=3, options=AIACOptions(trace_iterations=True),
        )
        result = run_scenario(scenario, backend=backend, timeline=True)
        timeline = result.timeline
        back = load_trace(write_trace(timeline, tmp_path / "t.json"))
        assert (back.backend, back.clock) == (timeline.backend, timeline.clock)
        assert back.meta == timeline.meta
        record = json.loads(json.dumps(result.to_record()))
        assert RunResult.from_record(record).timeline.meta == timeline.meta

        def spans(t):
            return sorted(t.to_dict()["spans"], key=lambda r: (r[0], r[3], r[4], r[1]))

        def markers(t):
            return sorted(t.to_dict()["markers"], key=lambda r: (r[0], r[2], r[1]))

        assert any(row[3:] == ["compute", "compute"] for row in spans(timeline))
        assert len(spans(back)) == len(spans(timeline))
        for got, want in zip(spans(back), spans(timeline)):
            assert [got[0], got[3], got[4]] == [want[0], want[3], want[4]]
            assert got[1:3] == pytest.approx(want[1:3], rel=0, abs=1e-9)
        assert timeline.markers and len(back.markers) == len(timeline.markers)
        for got, want in zip(markers(back), markers(timeline)):
            assert [got[0], got[2], got[3]] == [want[0], want[2], want[3]]
            assert got[1] == pytest.approx(want[1], rel=0, abs=1e-9)


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
        assert {s.kind for s in timeline.spans} <= set(SPAN_KINDS)
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
