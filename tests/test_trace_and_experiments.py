"""Tests for the Gantt trace module and the fast experiment harnesses."""

import pytest

from repro.core.trace import GanttTrace
from repro.experiments.common import render_table
from repro.experiments.figures12 import FlowConfig, format_flows, run_execution_flows
from repro.experiments.table1 import format_table1, run_table1
from repro.experiments.table4 import PAPER_TABLE4, format_table4, run_table4


# ----------------------------------------------------------------------
# trace
# ----------------------------------------------------------------------
def _sample_trace():
    trace = GanttTrace()
    trace.add_span(0, 0.0, 1.0, "compute")
    trace.add_span(0, 1.5, 2.5, "compute")
    trace.add_span(0, 1.0, 1.5, "comm", "wait")
    trace.add_span(1, 0.0, 2.5, "compute")
    return trace


def test_trace_busy_and_idle_accounting():
    trace = _sample_trace()
    assert trace.busy_time(0) == pytest.approx(2.0)
    assert trace.idle_time(0, horizon=2.5) == pytest.approx(0.5)
    assert trace.idle_time(1, horizon=2.5) == pytest.approx(0.0)


def test_trace_utilisation():
    trace = _sample_trace()
    assert trace.utilisation(0) == pytest.approx(0.8)
    assert trace.utilisation(1) == pytest.approx(1.0)


def test_trace_idle_gaps_match_figure1_semantics():
    trace = _sample_trace()
    assert trace.idle_gaps(0) == [(1.0, 1.5)]
    assert trace.idle_gaps(1) == []


def test_trace_no_overlap_invariant():
    trace = _sample_trace()
    assert trace.check_no_overlap(0)
    bad = GanttTrace()
    bad.add_span(0, 0.0, 2.0, "compute")
    bad.add_span(0, 1.0, 3.0, "compute")
    assert not bad.check_no_overlap(0)


def test_trace_rejects_negative_span():
    with pytest.raises(ValueError):
        GanttTrace().add_span(0, 2.0, 1.0, "compute")


def test_trace_zero_length_spans_dropped():
    trace = GanttTrace()
    trace.add_span(0, 1.0, 1.0, "compute")
    assert trace.spans == []


def test_trace_disabled_records_nothing():
    trace = GanttTrace(enabled=False)
    trace.add_span(0, 0.0, 1.0, "compute")
    trace.add_marker(0, 0.5, "x")
    assert trace.spans == [] and trace.markers == []


def test_ascii_gantt_renders():
    art = _sample_trace().ascii_gantt(width=40)
    assert "P0" in art and "P1" in art and "#" in art
    assert GanttTrace().ascii_gantt() == "(empty trace)"


# ----------------------------------------------------------------------
# table rendering helper
# ----------------------------------------------------------------------
def test_render_table_alignment():
    out = render_table(["a", "bb"], [["x", 1.0], ["yyyy", 2.5]], title="T")
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "bb" in lines[1]
    assert len({len(l) for l in lines[1:]}) <= 2  # consistent widths


# ----------------------------------------------------------------------
# Table 1 harness
# ----------------------------------------------------------------------
def test_table1_checks_pass():
    outcome = run_table1()
    checks = outcome["checks"]
    assert checks["off_diagonals"] == 30
    assert checks["spectral_radius_below_one"]
    assert checks["paper_n_steps"] == 12
    text = format_table1(outcome)
    assert "2000000 x 2000000" in text
    assert "600 x 600" in text
    assert "180 s" in text


# ----------------------------------------------------------------------
# Table 4 harness
# ----------------------------------------------------------------------
def test_table4_matches_paper_exactly():
    outcome = run_table4()
    assert outcome["all_match"], outcome["matches"]
    assert len(outcome["rows"]) == len(PAPER_TABLE4)
    text = format_table4(outcome)
    assert "N sending threads" in text
    assert "receiving threads created on demand" in text


# ----------------------------------------------------------------------
# Figures 1-2 harness
# ----------------------------------------------------------------------
def test_execution_flows_contrast():
    flows = run_execution_flows(FlowConfig(n=300, max_iterations=2000))
    sisc = flows["figure1_sisc"]
    aiac = flows["figure2_aiac"]
    # Figure 1: idle gaps between iterations on every processor.
    assert all(len(gaps) > 3 for gaps in sisc["idle_gaps"].values())
    # Figure 2: no idle time between AIAC iterations.
    assert all(len(gaps) == 0 for gaps in aiac["idle_gaps"].values())
    # AIAC keeps the processors far busier than SISC.
    assert min(aiac["utilisation"].values()) > max(sisc["utilisation"].values())
    text = format_flows(flows)
    assert "Figure 1" in text and "Figure 2" in text
