"""Tests of the convergence-detection building blocks (Section 4.3)."""

import pytest

from repro.api import Scenario, SimulatedBackend
from repro.core.aiac import AIACOptions
from repro.core.comm import SendScheduler
from repro.core.convergence import CoordinatorPanel, Detector, LocalConvergenceTracker
from repro.core.effects import SendHandle


# ----------------------------------------------------------------------
# local tracker with oscillation guard
# ----------------------------------------------------------------------
def test_tracker_requires_consecutive_iterations():
    tracker = LocalConvergenceTracker(threshold=1e-3, stability_count=3)
    assert not tracker.update(1e-4)
    assert not tracker.update(1e-4)
    assert tracker.update(1e-4)  # third consecutive -> state change
    assert tracker.converged


def test_tracker_oscillation_resets_counter():
    tracker = LocalConvergenceTracker(threshold=1e-3, stability_count=2)
    tracker.update(1e-4)
    tracker.update(1.0)     # spike cancels progress
    tracker.update(1e-4)
    assert not tracker.converged
    tracker.update(1e-4)
    assert tracker.converged


def test_tracker_reports_change_both_directions():
    tracker = LocalConvergenceTracker(threshold=1e-3, stability_count=1)
    assert tracker.update(1e-4) is True      # -> converged
    assert tracker.update(1e-4) is False     # no change
    assert tracker.update(5.0) is True       # -> diverged again
    assert tracker.state_changes == 2


def test_tracker_reset_rearms():
    tracker = LocalConvergenceTracker(threshold=1e-3, stability_count=1)
    tracker.update(1e-6)
    assert tracker.converged
    tracker.reset()
    assert not tracker.converged
    assert tracker.last_residual == float("inf")


def test_tracker_validation():
    with pytest.raises(ValueError):
        LocalConvergenceTracker(threshold=0.0)
    with pytest.raises(ValueError):
        LocalConvergenceTracker(threshold=1.0, stability_count=0)
    with pytest.raises(ValueError):
        LocalConvergenceTracker(threshold=1.0).update(-1.0)


def test_tracker_infinity_never_converges():
    tracker = LocalConvergenceTracker(threshold=1e-3, stability_count=1)
    for _ in range(10):
        tracker.update(float("inf"))
    assert not tracker.converged


# ----------------------------------------------------------------------
# coordinator panel
# ----------------------------------------------------------------------
def test_panel_all_converged_requires_everyone():
    panel = CoordinatorPanel(3)
    panel.update(0, 1, True)
    panel.update(1, 1, True)
    assert not panel.all_converged()
    panel.update(2, 1, True)
    assert panel.all_converged()


def test_panel_ignores_stale_updates():
    panel = CoordinatorPanel(2)
    panel.update(0, iteration=10, converged=True)
    panel.update(0, iteration=5, converged=False)  # out of order: ignored
    panel.update(1, iteration=1, converged=True)
    assert panel.all_converged()
    assert panel.stale_messages == 1


def test_panel_latest_update_wins():
    panel = CoordinatorPanel(1)
    panel.update(0, 1, True)
    panel.update(0, 2, False)
    assert not panel.all_converged()


def test_panel_snapshot_and_counts():
    panel = CoordinatorPanel(3)
    panel.update(1, 1, True)
    panel.update(1, 1, False)  # same stamp: stale, rank 1 stays converged
    assert not panel.all_converged()
    panel.update(0, 1, True)
    panel.update(2, 1, True)
    assert panel.all_converged()
    assert (panel.messages_processed, panel.stale_messages) == (4, 1)


def test_panel_validation():
    with pytest.raises(ValueError):
        CoordinatorPanel(0)
    with pytest.raises(ValueError):
        CoordinatorPanel(2).update(5, 1, True)


# ----------------------------------------------------------------------
# the detector: one rank's side of the whole protocol
# ----------------------------------------------------------------------
def converge(detector, providers=(), residual=1e-9):
    """Hear every provider, then one stability streak; the reports emitted."""
    for src in providers:
        detector.data(src)
    return [detector.iterated(residual) for _ in range(AIACOptions().stability_count)]


def test_detector_worker_converge_migrate_reconverge_sequence():
    worker = Detector(1, 2, {0}, AIACOptions())
    assert converge(worker, {0}) == [None, None, (1, 1, True)]
    assert worker.migrated() == (1, 2, False)      # takes the flag back
    assert worker.migrated() is None               # nothing left to take back
    assert converge(worker) == [None, None, (1, 3, True)]  # heard-all survives a migration
    assert worker.iterated(1.0) == (1, 4, False)
    assert worker.reports == 4 and worker.iterations == 7


def test_detector_coordinator_reports_go_into_its_panel_not_on_the_wire():
    coordinator = Detector(0, 2, {1}, AIACOptions())
    coordinator.state(1, 1, True)
    assert converge(coordinator, {1}) == [None, None, None]
    assert coordinator.halt()
    assert coordinator.migrated() is None          # retracted in the panel
    assert not coordinator.halt() and not coordinator.converged
    assert converge(coordinator) == [None, None, None]
    assert coordinator.halt() and coordinator.stopped
    assert coordinator.reports == 0                # state_messages counts the wire only


def test_detector_flag_needs_every_provider_heard_and_no_hold():
    worker = Detector(1, 3, {0, 2}, AIACOptions(stability_count=1))
    worker.data(0)
    assert worker.iterated(1e-9) is None           # rank 2 not heard from yet
    worker.data(2)
    assert worker.iterated(1e-9, held=True) is None
    assert worker.iterated(1e-9) == (1, 1, True)
    assert worker.iterated(1e-9, held=True) == (1, 2, False)


def test_detector_freshness_window_expires_old_data():
    worker = Detector(1, 2, {0}, AIACOptions(stability_count=1, freshness_window=2))
    worker.data(0)                                 # heard at iteration 0
    assert worker.iterated(1e-9) == (1, 1, True)
    assert worker.iterated(1e-9) is None           # age 2: still inside the window
    assert worker.iterated(1e-9) == (1, 2, False)  # age 3: too stale to trust
    worker.data(0)
    assert worker.iterated(1e-9) == (1, 3, True)


def test_detector_final_residual_is_measured_after_a_stop_and_the_trackers_at_the_cap():
    stopped, capped = Detector(1, 2, {0}, AIACOptions()), Detector(1, 2, {0}, AIACOptions())
    for detector in (stopped, capped):
        converge(detector, {0}, residual=2e-7)
        detector.iterated(3e-7, held=True)         # hold: the tracker sees infinity
    stopped.stop()                                 # the stop raced the hold
    assert stopped.converged and stopped.residual == 3e-7
    assert not capped.converged and capped.residual == float("inf")


# ----------------------------------------------------------------------
# skip-send scheduler
# ----------------------------------------------------------------------
OFFER = {3: ("x", 8.0), 1: ("x", 8.0), 2: ("x", 8.0)}


def test_scheduler_allows_first_send():
    scheduler = SendScheduler()
    assert scheduler.ready(OFFER) == [1, 2, 3]     # sorted, every gate open
    assert scheduler.ready({}) == []
    assert scheduler.skipped == 0


def test_scheduler_blocks_while_in_flight():
    scheduler = SendScheduler()
    scheduler.record(1, SendHandle())
    assert scheduler.ready(OFFER) == [2, 3]        # other destinations free
    assert scheduler.ready({1: ("x", 8.0)}) == []


def test_scheduler_unblocks_on_sender_completion():
    """The gate reopens at sender release, not at delivery."""
    scheduler = SendScheduler()
    handle = SendHandle()
    scheduler.record(1, handle)
    handle.release_sender(1.0)
    assert not handle.done
    assert scheduler.ready(OFFER) == [1, 2, 3]
    handle.complete(2.0)                           # a late delivery changes nothing
    assert scheduler.ready(OFFER) == [1, 2, 3]


def test_scheduler_counts_sent_and_skipped():
    scheduler = SendScheduler()
    for dst in scheduler.ready(OFFER):
        scheduler.record(dst, SendHandle())
    assert scheduler.ready(OFFER) == []
    assert scheduler.ready({2: ("x", 8.0)}) == []
    assert scheduler.sent == 3
    assert scheduler.skipped == 4


def test_scheduler_pending_count_tracks_completion():
    scheduler = SendScheduler()
    h1, h2 = SendHandle(), SendHandle()
    scheduler.record(1, h1)
    scheduler.record(2, h2)
    assert scheduler.pending_count() == 2
    h1.release_sender(1.0)                         # released, not yet delivered
    assert scheduler.pending_count() == 2
    h1.complete(1.0)
    assert scheduler.pending_count() == 1


def test_scheduler_gate_never_closes_on_a_completed_handle():
    """The wall-clock backends hand back handles that are already
    complete: the destination stays open for the next offer."""
    scheduler = SendScheduler()
    handle = SendHandle()
    handle.complete(0.0)
    scheduler.record(1, handle)
    assert scheduler.ready(OFFER) == [1, 2, 3]
    assert scheduler.sent == 1 and scheduler.skipped == 0


def test_blocking_sends_never_find_a_gate_closed():
    """Under blocking sends every handle is released before the worker
    resumes, so the once-per-iteration gate query skips nothing (the
    counts are the ones of the per-offer gate it replaced)."""
    scenario = Scenario.from_dict({
        "problem": "sparse_linear",
        "problem_params": {
            "n": 120, "n_diagonals": 6, "sign_structure": "random", "eps": 1e-6,
        },
        "environment": "pm2",
        "cluster": "uniform_cluster",
        "cluster_params": {"speed": 3e4},
        "n_ranks": 4,
        "seed": 5,
        "policy_overrides": {"blocking_send": True},
    })
    result = SimulatedBackend().run(scenario)
    assert sum(r.skipped_sends for r in result.reports.values()) == 0
    assert result.total_iterations == 189
    assert result.backend_stats["messages_sent"] == 585
    assert result.makespan == 0.5937928359999987


# ----------------------------------------------------------------------
# send handle milestones
# ----------------------------------------------------------------------
def test_handle_completion_implies_sender_done():
    handle = SendHandle()
    handle.complete(2.0)
    assert handle.sender_done and handle.done
    assert handle.sender_done_at == 2.0


def test_handle_callbacks_fire_in_order():
    handle = SendHandle()
    events = []
    handle.on_sender_release(lambda t: events.append(("release", t)))
    handle.on_complete(lambda t: events.append(("complete", t)))
    handle.release_sender(1.0)
    handle.complete(2.0)
    assert events == [("release", 1.0), ("complete", 2.0)]


def test_handle_late_callbacks_fire_immediately():
    handle = SendHandle()
    handle.complete(3.0)
    events = []
    handle.on_complete(lambda t: events.append(t))
    handle.on_sender_release(lambda t: events.append(t))
    assert events == [3.0, 3.0]
