"""Tests for the process-per-rank backend (repro.runtime.process_hub).

Covers the tentpole surface: true multi-process execution of the same
worker coroutines, the message-level fault subset over queue channels,
dynamic load balancing across process boundaries, spawn-method safety
(registries repopulated in children), and timeout reaping on both
real-concurrency backends plus its surfacing in the conformance kit.
"""

import multiprocessing
import queue
import threading
import time

import pytest

from repro.api import (
    ProcessBackend,
    Scenario,
    SimulatedBackend,
    ThreadedBackend,
    get_backend,
    list_backends,
    run_scenario,
)
from repro.balancing import BalancingPlan
from repro.core.aiac import AIACOptions
from repro.core.effects import Message
from repro.runtime.executor import BackendTimeoutError, ThreadTimeoutError
from repro.runtime.faults import ThreadFaultInjector
from repro.runtime import process_hub
from repro.runtime.process_hub import (
    ProcessEndpoint,
    ProcessTimeoutError,
    ProcessWorkerError,
    _child_main,
    run_processes,
)
from repro.testing import check_invariants, check_row_partition
from repro.testing.conformance import run_scenario_conformance

SMALL = Scenario(
    problem="sparse_linear",
    problem_params={"n": 200, "dominance": 0.75, "sign_structure": "random"},
    environment="pm2",
    # Calibrated so one simulated iteration costs milliseconds (the
    # regime the paper's runs operate in); at default host speeds a toy
    # problem iterates microseconds apart and the simulated reference
    # starves its data exchange (see repro.testing.generator).
    cluster_params={"speed": 2e5},
    n_ranks=3,
    seed=11,
)

#: A scenario that cannot reach tolerance before any realistic deadline
#: (used to exercise the reap paths).
NEVER_CONVERGES = SMALL.derive(
    problem_params={"n": 400},
    options=AIACOptions(eps=1e-300, max_iterations=10**9),
)


# ----------------------------------------------------------------------
# the backend registry and result surface
# ----------------------------------------------------------------------
def test_process_backend_is_registered():
    assert "process" in list_backends()
    backend = get_backend("process", timeout=30.0)
    assert isinstance(backend, ProcessBackend)
    assert backend.timeout == 30.0


def test_process_backend_converges_and_matches_the_reference_solution():
    result = run_scenario(SMALL, backend="process", timeout=60.0)
    assert result.backend == "process"
    assert result.converged
    problem = SMALL.build_problem()
    assert problem.solution_error(result.solution()) < 1e-3
    assert check_invariants(SMALL, result, problem) == []
    # Real wall clock on both axes, and per-rank accounting filled in.
    assert result.makespan == result.elapsed > 0.0
    assert result.backend_stats["messages_sent"] > 0
    progress = result.reports
    assert sorted(progress) == [0, 1, 2]
    for entry in progress.values():
        assert entry.iterations >= 1
        assert entry.busy_time > 0.0


def test_process_backend_rejects_solver_overrides():
    with pytest.raises(ValueError, match="process boundary"):
        ProcessBackend().run(SMALL, make_solver=lambda rank, size: None)


def test_process_backend_runs_the_stepped_chemical_worker():
    scenario = Scenario(
        problem="chemical",
        problem_params={"nx": 8, "nz": 8, "t_end": 360.0, "dt": 180.0},
        environment="pm2",
        n_ranks=2,
        seed=1,
    )
    result = run_scenario(scenario, backend="process", timeout=90.0)
    assert result.converged
    assert result.total_iterations >= 2


# ----------------------------------------------------------------------
# satellite: spawn-method safety
# ----------------------------------------------------------------------
def test_registries_survive_a_forced_spawn_start(start_method):
    """Regression: spawn children start with empty registries.

    The child bootstrap must explicitly import :mod:`repro.api` so the
    scenario dict can be interpreted (problem/worker/cluster/balancer
    lookups) in a process that inherited nothing.
    """
    scenario = SMALL.derive(n_ranks=2, problem_params={"n": 150,
                            "sign_structure": "random"})
    start_method("spawn")
    result = ProcessBackend(timeout=120.0).run(scenario)
    assert result.converged
    assert sorted(result.reports) == [0, 1]


# ----------------------------------------------------------------------
# the message-level fault subset over queue channels
# ----------------------------------------------------------------------
def test_process_backend_honours_the_message_fault_subset():
    scenario = SMALL.derive(
        faults={"seed": 5, "events": [
            {"kind": "message_loss", "probability": 0.15},
            {"kind": "message_duplication", "probability": 0.1},
            {"kind": "message_reorder", "probability": 0.2, "max_delay": 2e-3},
        ]},
    )
    result = run_scenario(scenario, backend="process", timeout=60.0)
    assert result.converged
    assert result.faults["messages_dropped"] > 0
    assert result.faults["messages_duplicated"] > 0
    assert check_invariants(scenario, result, scenario.build_problem()) == []


def test_process_backend_ignores_topology_only_fault_plans():
    # Link/host windows do not apply to queue channels: no fault-aware
    # path, no counters.
    scenario = SMALL.derive(
        faults={"seed": 5, "events": [
            {"kind": "link_degradation", "start": 0.0, "end": 10.0,
             "bandwidth_factor": 0.05},
        ]},
    )
    result = run_scenario(scenario, backend="process", timeout=60.0)
    assert result.converged
    assert result.faults == {}


def test_process_backend_counts_crash_windows_exactly_once():
    # The crash/recovery *window* accounting happens in the parent; the
    # per-message decisions happen in the children.  n_ranks ranks must
    # not multiply the window counters.
    # The window is anchored at the post-bootstrap barrier and sized
    # well inside the run's wall time, so the horizon outlives it.
    scenario = SMALL.derive(
        options=AIACOptions(eps=1e-6, max_iterations=5000,
                            freshness_window=10),
        faults={"seed": 5, "events": [
            {"kind": "rank_crash", "rank": 1, "at": 0.005, "downtime": 0.005},
        ]},
    )
    result = run_scenario(scenario, backend="process", timeout=60.0)
    assert result.faults.get("crashes", 0) == 1
    assert result.faults.get("recoveries", 0) == 1


# ----------------------------------------------------------------------
# dynamic load balancing across process boundaries
# ----------------------------------------------------------------------
def test_balanced_scenario_runs_on_processes():
    scenario = SMALL.derive(
        n_ranks=4,
        problem_params={"n": 240, "sign_structure": "random"},
        balancer=BalancingPlan(policy="diffusion", period=5, threshold=0.02),
    )
    result = run_scenario(scenario, backend="process", timeout=60.0)
    assert result.converged
    problem = scenario.build_problem()
    assert check_row_partition(result, problem) == []
    assert result.balancing["rows_out"] == result.balancing["rows_in"]
    assert check_invariants(scenario, result, problem) == []


# ----------------------------------------------------------------------
# satellite: timeout reaping (process and threaded)
# ----------------------------------------------------------------------
def test_process_timeout_reaps_every_child():
    backend = ProcessBackend(timeout=1.5)
    with pytest.raises(ProcessTimeoutError) as excinfo:
        backend.run(NEVER_CONVERGES)
    assert isinstance(excinfo.value, BackendTimeoutError)
    deadline = time.monotonic() + 5.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert multiprocessing.active_children() == []


def _child_that_never_leaves(*args):
    _child_main(*args)
    time.sleep(3600.0)  # reported, then stuck -- like a rank blocked in its exit drain


def test_a_rank_stuck_after_reporting_does_not_hold_the_result_back(
    monkeypatch, start_method
):
    # Regression: the parent used to join every rank for the rest of the
    # run deadline *after* all reports were in, so one rank stuck in its
    # exit drain made a correct run return ``timeout`` seconds late.
    # Fork, so the children run the patched ``_child_main``.
    monkeypatch.setattr(process_hub, "_child_main", _child_that_never_leaves)
    start_method("fork")
    timeout = 60.0
    started = time.monotonic()
    reports = run_processes(SMALL.derive(n_ranks=2), timeout=timeout)[0]
    elapsed = time.monotonic() - started
    assert sorted(reports) == [0, 1]
    assert all(report.converged for report in reports.values())
    # The run itself and the reap -- not the deadline.
    assert elapsed < timeout / 4
    assert multiprocessing.active_children() == []


def test_threaded_timeout_reaps_every_thread():
    backend = ThreadedBackend(timeout=1.0)
    with pytest.raises(ThreadTimeoutError) as excinfo:
        backend.run(NEVER_CONVERGES)
    assert isinstance(excinfo.value, BackendTimeoutError)
    # The hub poison must actually unwind the workers, not leak them.
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        leaked = [t for t in threading.enumerate()
                  if t.name.startswith("aiac-rank-") and t.is_alive()]
        if not leaked:
            break
        time.sleep(0.05)
    assert leaked == []


def test_conformance_surfaces_timeouts_as_per_scenario_failures():
    # Unreachable eps: the real-concurrency runs grind to the iteration
    # cap (hundreds of ms of wall time, far past the 10ms deadline),
    # while the simulated reference still finishes -- and stays
    # deterministic -- in bounded virtual work.
    scenario = Scenario(
        problem="sparse_linear",
        problem_params={"n": 600, "sign_structure": "random"},
        environment="pm2",
        n_ranks=4,
        seed=2,
        options=AIACOptions(eps=1e-300, max_iterations=2000),
        name="hang-probe",
    )
    record = run_scenario_conformance(scenario, threaded_timeout=0.01)
    assert not record["ok"]
    assert record["timed_out"] == ["threaded", "process"]
    assert sum("timed out" in v for v in record["violations"]) == 2
    # The simulated reference itself still ran and reproduced.
    assert record["simulated"] is not None
    assert record["deterministic"] is True


def test_worker_errors_cross_the_process_boundary_with_context():
    # An unknown problem parameter makes every child fail at build
    # time; the parent must surface rank + child traceback, not hang.
    scenario = SMALL.derive(problem_params={"n": 100, "no_such_param": 1})
    with pytest.raises(ProcessWorkerError, match="child traceback"):
        ProcessBackend(timeout=30.0).run(scenario)
    assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# the endpoint, in-process (unit level)
# ----------------------------------------------------------------------
def _endpoint_pair(injector=None):
    inboxes = [queue.Queue(), queue.Queue()]
    return (
        ProcessEndpoint(0, 2, inboxes, injector),
        ProcessEndpoint(1, 2, inboxes, injector),
    )


def _msg(src, dst, tag="data", payload=None):
    return Message(src=src, dst=dst, tag=tag, payload=payload, size=8.0)


def test_endpoint_post_drain_receive_mirror_channel_hub_semantics():
    sender, receiver = _endpoint_pair()
    sender.post(_msg(0, 1, "data", "a"))
    sender.post(_msg(0, 1, "state", "b"))
    assert sender.messages_sent == 2
    assert [m.payload for m in receiver.drain(1, "data")] == ["a"]
    # Tagless drain merges the remaining queues.
    assert [m.payload for m in receiver.drain(1)] == ["b"]
    assert receiver.drain(1) == []
    # Blocking receive with a deadline returns [] on timeout...
    assert receiver.receive(1, "data", timeout=0.05) == []
    # ...and delivers once the count is satisfied.
    sender.post(_msg(0, 1, "data", "c"))
    sender.post(_msg(0, 1, "data", "d"))
    got = receiver.receive(1, "data", count=2, timeout=1.0)
    assert sorted(m.payload for m in got) == ["c", "d"]
    with pytest.raises(KeyError):
        sender.post(_msg(0, 7))


def test_endpoint_applies_fault_decisions_sender_side():
    from repro.api.faults import FaultPlan, MessageDuplication, MessageLoss

    plan = FaultPlan(events=(
        MessageLoss(probability=1.0),
        MessageDuplication(probability=1.0),
    ), seed=3)
    injector = ThreadFaultInjector(plan, stream=4)
    injector.start()
    sender, receiver = _endpoint_pair(injector)
    for index in range(10):
        sender.post(_msg(0, 1, "data", index))
    # probability-1.0 loss drops everything before it is ever pickled.
    assert receiver.drain(1, "data") == []
    assert injector.counters["messages_dropped"] == 10
    # Control tags are out of scope for data-scoped plans by default.
    sender.post(_msg(0, 1, "mig", "handoff"))
    assert [m.payload for m in receiver.drain(1, "mig")] == ["handoff"]


def test_endpoint_releases_delayed_messages_at_their_due_time():
    from repro.api.faults import FaultPlan, MessageReorder

    plan = FaultPlan(events=(
        MessageReorder(probability=1.0, max_delay=0.08),
    ), seed=1)
    injector = ThreadFaultInjector(plan)
    injector.start()
    sender, receiver = _endpoint_pair(injector)
    sender.post(_msg(0, 1, "data", "late"))
    sender.post(_msg(0, 1, "data", "later"))
    assert injector.counters["messages_delayed"] == 2
    assert receiver.drain(1) == []  # not yet due at the receiver
    time.sleep(0.09)
    # The sender's own calls release nothing; the receiver's mailbox does.
    sender.drain(0)
    got = receiver.receive(1, "data", count=2, timeout=1.0)
    assert sorted(m.payload for m in got) == ["late", "later"]


@pytest.mark.parametrize("feed", ["threads", "processes"])
def test_a_delayed_message_is_released_by_its_receiver_alone(feed):
    from repro.api.faults import FaultPlan, MessageReorder
    from repro.runtime.channels import ChannelHub

    plan = FaultPlan(events=(
        MessageReorder(probability=1.0, max_delay=0.05),
    ), seed=2)
    injector = ThreadFaultInjector(plan)
    injector.start()
    if feed == "threads":
        sender = receiver = ChannelHub(2, injector)
    else:
        sender, receiver = _endpoint_pair(injector)
    sender.post(_msg(0, 1, "data", "a"))
    sender.post(_msg(0, 1, "data", "b"))
    # A delayed message is sent (and counted) when it is posted...
    assert sender.messages_sent == 2
    assert injector.counters["messages_delayed"] == 2
    # ...and from here on the sender does nothing: the receiver's own
    # wait, capped at the next due time, releases both.
    got = receiver.receive(1, "data", count=2, timeout=1.0)
    assert sorted(m.payload for m in got) == ["a", "b"]


# ----------------------------------------------------------------------
# the child entry point, in-process (single rank: no peers needed)
# ----------------------------------------------------------------------
def _run_child_inline(scenario):
    ctx = multiprocessing.get_context()
    inboxes = [ctx.Queue()]
    results = ctx.Queue()
    barrier = ctx.Barrier(1)
    done = ctx.Event()
    done.set()  # the exit-drain loop must terminate immediately
    _child_main(0, 1, scenario.to_dict(), inboxes, results, barrier, done,
                30.0)
    return results.get(timeout=5.0)


def test_child_main_reports_a_worker_result():
    scenario = SMALL.derive(n_ranks=1)
    status, rank, report, counters, sent, t0, spans = _run_child_inline(scenario)
    assert (status, rank) == ("ok", 0)
    assert report.converged
    assert counters == {} and sent == 0  # single rank: nothing on the wire
    assert t0 <= time.monotonic()  # the post-bootstrap barrier anchor
    assert spans is None  # tracing off by default


def test_child_main_reports_errors_with_traceback():
    scenario = SMALL.derive(n_ranks=1,
                            problem_params={"n": 100, "no_such_param": 1})
    outcome = _run_child_inline(scenario)
    assert outcome[0] == "error"
    assert "no_such_param" in outcome[3]  # the formatted child traceback


def test_sweep_routes_process_backend_grids_in_process():
    # Pool workers are daemonic and may not spawn the backend's
    # per-rank children; sweep must route process-backend grids
    # serially instead of failing every job.
    from repro.sweep import run_sweep

    small = SMALL.derive(n_ranks=2).to_dict()
    records = run_sweep([small, small], backend="process", placement="pool",
                        processes=2).records
    assert len(records) == 2
    for record in records:
        assert "error" not in record, record.get("error")
        assert record["backend"] == "process"
        assert record["converged"]


# ----------------------------------------------------------------------
# three-way agreement on one value
# ----------------------------------------------------------------------
def test_all_three_backends_agree_on_the_same_scenario_value():
    reference = SimulatedBackend().run(SMALL)
    threaded = ThreadedBackend(timeout=60.0).run(SMALL)
    process = ProcessBackend(timeout=60.0).run(SMALL)
    problem = SMALL.build_problem()
    for result in (reference, threaded, process):
        assert result.converged
        assert problem.solution_error(result.solution()) < 1e-3
    assert {reference.backend, threaded.backend, process.backend} == {
        "simulated", "threaded", "process"
    }
