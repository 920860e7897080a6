"""Unit tests for the discrete-event engine."""

import pytest

from repro.simgrid.engine import Engine, SimulationError


def test_initial_time_defaults_to_zero():
    assert Engine().now == 0.0


def test_initial_time_can_be_set():
    assert Engine(start_time=5.0).now == 5.0


def test_events_fire_in_time_order():
    engine = Engine()
    fired = []
    engine.at(2.0, lambda: fired.append("b"))
    engine.at(1.0, lambda: fired.append("a"))
    engine.at(3.0, lambda: fired.append("c"))
    engine.run()
    assert fired == ["a", "b", "c"]


def test_ties_break_by_scheduling_order():
    engine = Engine()
    fired = []
    for name in "abcd":
        engine.at(1.0, lambda n=name: fired.append(n))
    engine.run()
    assert fired == list("abcd")


def test_now_advances_to_event_time():
    engine = Engine()
    seen = []
    engine.at(4.5, lambda: seen.append(engine.now))
    engine.run()
    assert seen == [4.5]
    assert engine.now == 4.5


def test_after_schedules_relative_to_now():
    engine = Engine()
    seen = []
    engine.at(1.0, lambda: engine.after(2.0, lambda: seen.append(engine.now)))
    engine.run()
    assert seen == [3.0]


def test_negative_delay_rejected():
    with pytest.raises(SimulationError):
        Engine().after(-1.0, lambda: None)


def test_scheduling_in_the_past_rejected():
    engine = Engine()
    engine.at(5.0, lambda: None)
    engine.run()
    with pytest.raises(SimulationError):
        engine.at(1.0, lambda: None)


def test_non_finite_time_rejected():
    with pytest.raises(SimulationError):
        Engine().at(float("inf"), lambda: None)
    with pytest.raises(SimulationError):
        Engine().at(float("nan"), lambda: None)


def test_cancelled_events_do_not_fire():
    engine = Engine()
    fired = []
    event = engine.at(1.0, lambda: fired.append("x"))
    event.cancel()
    engine.run()
    assert fired == []


def test_cancelled_events_neither_count_nor_advance_the_clock():
    engine = Engine()
    engine.at(1.0, lambda: None)
    engine.at(9.0, lambda: None).cancel()
    engine.run()
    assert engine.events_processed == 1
    assert engine.now == 1.0  # a fault window cancelled at the end of a run
    assert engine.pending == 0


@pytest.mark.parametrize("form", ["at", "post_at"])
def test_both_scheduling_forms_make_the_same_time_checks(form):
    engine = Engine(start_time=5.0)
    schedule = getattr(engine, form)
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(SimulationError, match="non-finite"):
            schedule(bad, lambda: None)
    with pytest.raises(SimulationError, match="before now"):
        schedule(5.0 - 1e-9, lambda: None)
    assert engine.pending == 0
    # Floating-point noise below the 1e-12 relative clamp fires at `now`.
    seen = []
    schedule(5.0 - 1e-13, lambda: seen.append(engine.now))
    engine.run()
    assert seen == [5.0]


@pytest.mark.parametrize("form", ["after", "post_after"])
def test_both_relative_forms_reject_negative_and_non_finite_delays(form):
    engine = Engine()
    schedule = getattr(engine, form)
    for bad in (-1.0, -1e-300, float("-inf")):
        with pytest.raises(SimulationError, match="negative delay"):
            schedule(bad, lambda: None)
    for bad in (float("inf"), float("nan")):
        with pytest.raises(SimulationError, match="non-finite"):
            schedule(bad, lambda: None)
    assert engine.pending == 0


def test_only_the_handle_form_returns_something_to_cancel():
    engine = Engine()
    assert engine.post_at(1.0, lambda: None) is None
    assert engine.post_after(1.0, lambda: None) is None
    assert not engine.at(1.0, lambda: None).cancelled
    assert not engine.after(1.0, lambda: None).cancelled


def test_ties_fire_in_scheduling_order_across_both_forms():
    engine = Engine()
    fired = []
    engine.at(1.0, lambda: fired.append("a"))
    engine.post_at(1.0, lambda: fired.append("b"))
    engine.after(1.0, lambda: fired.append("c"))
    engine.post_after(1.0, lambda: fired.append("d"))
    cancelled = engine.at(1.0, lambda: fired.append("x"))
    engine.post_at(1.0, lambda: fired.append("e"))
    cancelled.cancel()
    engine.run()
    assert fired == list("abcde")
    assert engine.events_processed == 5


def test_run_until_stops_clock_at_horizon():
    engine = Engine()
    fired = []
    engine.at(1.0, lambda: fired.append(1))
    engine.at(10.0, lambda: fired.append(10))
    engine.run(until=5.0)
    assert fired == [1]
    assert engine.now == 5.0


def test_max_events_guard_raises():
    engine = Engine()

    def reschedule():
        engine.after(1.0, reschedule)

    engine.after(1.0, reschedule)
    with pytest.raises(SimulationError):
        engine.run(max_events=10)


def test_stop_when_predicate():
    engine = Engine()
    fired = []
    for i in range(10):
        engine.at(float(i + 1), lambda i=i: fired.append(i))
    engine.run(stop_when=lambda: len(fired) >= 3)
    assert fired == [0, 1, 2]


def test_limited_runs_skip_cancelled_events_too():
    engine = Engine()
    fired = []
    engine.at(1.0, lambda: fired.append(1)).cancel()
    engine.post_at(2.0, lambda: fired.append(2))
    engine.at(3.0, lambda: fired.append(3)).cancel()
    engine.post_at(7.0, lambda: fired.append(7))
    assert engine.run(until=5.0) == 5.0
    assert fired == [2] and engine.events_processed == 1
    engine.run(stop_when=lambda: False)
    assert fired == [2, 7] and engine.events_processed == 2


def test_events_processed_counter():
    engine = Engine()
    for i in range(5):
        engine.at(float(i), lambda: None)
    engine.run()
    assert engine.events_processed == 5


def test_engine_not_reentrant():
    engine = Engine()
    errors = []

    def nested():
        try:
            engine.run()
        except SimulationError as exc:
            errors.append(exc)

    engine.at(1.0, nested)
    engine.run()
    assert len(errors) == 1


def test_determinism_across_runs():
    def build_and_run():
        engine = Engine()
        order = []
        for i in range(20):
            engine.at((i * 7) % 5 + 0.5, lambda i=i: order.append(i))
        engine.run()
        return order

    assert build_and_run() == build_and_run()
