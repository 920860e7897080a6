"""Fault-plan tests: vocabulary, serialization, both backends' semantics."""

import json

import pytest

from repro.api import (
    FaultPlan,
    HostSlowdown,
    LinkDegradation,
    MessageDuplication,
    MessageLoss,
    MessageReorder,
    RankCrash,
    RunResult,
    Scenario,
    SimulatedBackend,
    ThreadedBackend,
    fault_kinds,
)
from repro.testing.invariants import work_counters

FAST = {"n": 150, "sign_structure": "random"}


def _scenario(**overrides) -> Scenario:
    base = Scenario(
        problem="sparse_linear",
        problem_params=dict(FAST),
        environment="pm2",
        # Calibrated host speed: one iteration costs ~milliseconds of
        # virtual time, the paper's compute/communication regime (a
        # microsecond-per-iteration toy starves the data exchange and
        # says nothing about the protocol; see docs/testing.md).
        cluster_params={"speed": 2e5},
        n_ranks=3,
        seed=7,
    )
    return base.derive(**overrides) if overrides else base


def _full_plan() -> FaultPlan:
    return FaultPlan(
        events=(
            LinkDegradation(start=0.1, end=0.5, bandwidth_factor=0.1,
                            latency_add=1e-3, links=("lan*",)),
            HostSlowdown(start=0.2, end=0.6, factor=0.3, steps=3,
                         hosts=("node1",)),
            MessageLoss(probability=0.1),
            MessageDuplication(probability=0.2, start=0.1, end=0.9),
            MessageReorder(probability=0.3, max_delay=2e-3),
            RankCrash(rank=1, at=0.2, downtime=0.1),
        ),
        seed=11,
    )


# ----------------------------------------------------------------------
# vocabulary + serialization
# ----------------------------------------------------------------------
def test_fault_plan_json_round_trip_all_kinds():
    plan = _full_plan()
    rebuilt = FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
    assert rebuilt == plan
    assert {e.kind for e in plan.events} == set(fault_kinds())


def test_scenario_round_trip_with_faults():
    scenario = _scenario(faults=_full_plan())
    rebuilt = Scenario.from_dict(json.loads(json.dumps(scenario.to_dict())))
    assert rebuilt == scenario
    # Plain-dict plans are coerced at construction too.
    coerced = _scenario(faults=_full_plan().to_dict())
    assert coerced.faults == _full_plan()


def test_fault_plan_validation():
    with pytest.raises(ValueError, match="probability"):
        MessageLoss(probability=1.5)
    with pytest.raises(ValueError, match="end"):
        LinkDegradation(start=1.0, end=0.5, bandwidth_factor=0.5)
    with pytest.raises(ValueError, match="factor"):
        HostSlowdown(start=0.0, end=1.0, factor=0.0)
    with pytest.raises(ValueError, match="downtime"):
        RankCrash(rank=0, at=0.0, downtime=-1.0)
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultPlan.from_dict({"events": [{"kind": "meteor_strike"}]})
    with pytest.raises(ValueError, match="unknown fault-plan field"):
        FaultPlan.from_dict({"event": []})
    # Topology windows mutate simulator state as engine events, so an
    # open end must be rejected at plan build time, not explode with a
    # TypeError deep inside the backend.
    with pytest.raises(ValueError, match="end is required"):
        HostSlowdown(start=1.0, end=None, factor=0.5)
    with pytest.raises(ValueError, match="end is required"):
        FaultPlan.from_dict({"events": [
            {"kind": "link_degradation", "start": 0.0, "end": None,
             "bandwidth_factor": 0.5}]})
    with pytest.raises(ValueError, match="finite"):
        MessageLoss(probability=0.1, start=float("inf"))
    with pytest.raises(ValueError, match="finite"):
        RankCrash(rank=0, at=0.0, downtime=float("inf"))


# ----------------------------------------------------------------------
# simulated backend semantics
# ----------------------------------------------------------------------
def test_loss_drops_messages_and_run_stays_sound():
    faulty = _scenario(faults=FaultPlan(events=(MessageLoss(probability=0.15),),
                                        seed=3))
    result = SimulatedBackend().run(faulty)
    assert result.faults["messages_dropped"] > 0
    assert result.converged
    problem = faulty.build_problem()
    assert problem.solution_error(result.solution()) < 1e-3


def test_fault_counters_deterministic_for_fixed_seed():
    faulty = _scenario(faults=FaultPlan(events=(MessageLoss(probability=0.15),
                                                MessageReorder(probability=0.3,
                                                               max_delay=2e-3)),
                                        seed=3))
    first = SimulatedBackend().run(faulty)
    second = SimulatedBackend().run(faulty)
    assert work_counters(first) == work_counters(second)
    assert first.faults["messages_dropped"] > 0


def test_fault_seed_changes_decisions():
    def drops(seed):
        plan = FaultPlan(events=(MessageLoss(probability=0.15),), seed=seed)
        return work_counters(SimulatedBackend().run(_scenario(faults=plan)))

    assert drops(3) != drops(12345)


def test_link_degradation_degrades_then_recovers():
    baseline = SimulatedBackend().run(_scenario())
    window = LinkDegradation(
        start=0.2 * baseline.makespan,
        end=0.6 * baseline.makespan,
        bandwidth_factor=0.02,
        latency_add=2e-3,
    )
    result = SimulatedBackend().run(
        _scenario(faults=FaultPlan(events=(window,)))
    )
    assert result.faults == {"link_degradations": 1, "recoveries": 1}
    assert result.converged
    assert result.makespan > baseline.makespan  # adversity costs time


def test_host_slowdown_and_crash_windows_count():
    baseline = SimulatedBackend().run(_scenario())
    span = baseline.makespan
    slow = HostSlowdown(start=0.2 * span, end=0.6 * span, factor=0.25, steps=3)
    crash = RankCrash(rank=1, at=0.2 * span, downtime=0.3 * span)
    result = SimulatedBackend().run(
        _scenario(faults=FaultPlan(events=(slow, crash), seed=5))
    )
    assert result.faults["host_slowdowns"] == 1
    assert result.faults["crashes"] == 1
    assert result.faults["recoveries"] == 2
    assert result.faults["crash_dropped"] > 0
    assert result.converged


def test_multiple_host_slowdown_windows_hit_their_own_hosts():
    """Regression: ramp callbacks must bind their own event (a shared
    late-bound closure used to slow the LAST event's hosts only)."""
    from repro.simgrid.engine import Engine
    from repro.simgrid.faults import SimFaultInjector
    from repro.simgrid.host import Host
    from repro.simgrid.network import Network

    class _FakeWorld:
        def __init__(self):
            self.engine = Engine()
            self.network = Network()
            self.hosts = [Host(name="a", speed=100.0), Host(name="b", speed=200.0)]

    world = _FakeWorld()
    plan = FaultPlan(events=(
        HostSlowdown(start=1.0, end=2.0, factor=0.5, hosts=("a",)),
        HostSlowdown(start=5.0, end=6.0, factor=0.1, hosts=("b",)),
    ))
    injector = SimFaultInjector(plan)
    injector.install(world)
    host_a, host_b = world.hosts
    world.engine.run(until=1.5)
    assert host_a.speed == pytest.approx(50.0)   # a's own window is open
    assert host_b.speed == pytest.approx(200.0)  # b's window has not started
    world.engine.run(until=5.5)
    assert host_a.speed == pytest.approx(100.0)  # a recovered
    assert host_b.speed == pytest.approx(20.0)
    world.engine.run(until=10.0)
    assert host_b.speed == pytest.approx(200.0)
    assert injector.counters["recoveries"] == 2


def test_overlapping_link_windows_compose():
    """Regression: a window's restore must undo only its own
    contribution, not reset the link to install-time absolutes."""
    from repro.simgrid.engine import Engine
    from repro.simgrid.faults import SimFaultInjector
    from repro.simgrid.link import Link
    from repro.simgrid.network import Network

    class _FakeWorld:
        def __init__(self):
            self.engine = Engine()
            self.network = Network()
            self.network.add_link(Link(name="x", latency=1e-3, bandwidth=1000.0))
            self.hosts = []

    world = _FakeWorld()
    plan = FaultPlan(events=(
        LinkDegradation(start=0.0, end=10.0, bandwidth_factor=0.5, links=("x",)),
        LinkDegradation(start=5.0, end=15.0, bandwidth_factor=0.5, links=("x",)),
    ))
    SimFaultInjector(plan).install(world)
    link = world.network.links[0]
    world.engine.run(until=7.0)
    assert link.bandwidth == pytest.approx(250.0)  # both windows open
    world.engine.run(until=12.0)
    assert link.bandwidth == pytest.approx(500.0)  # second still active
    world.engine.run(until=20.0)
    assert link.bandwidth == pytest.approx(1000.0)


def test_open_ended_window_does_not_stretch_makespan():
    """A window ending long after the run must not inflate virtual time."""
    baseline = SimulatedBackend().run(_scenario())
    window = HostSlowdown(
        start=baseline.makespan * 1000.0,
        end=baseline.makespan * 2000.0,
        factor=0.5,
    )
    result = SimulatedBackend().run(
        _scenario(faults=FaultPlan(events=(window,)))
    )
    assert result.makespan == pytest.approx(baseline.makespan)
    assert result.faults == {}  # the window never started


def test_duplication_delivers_extra_messages():
    plan = FaultPlan(events=(MessageDuplication(probability=0.3),), seed=5)
    result = SimulatedBackend().run(_scenario(faults=plan))
    duplicated = result.faults["messages_duplicated"]
    assert duplicated > 0
    received = sum(result.backend_stats["mailbox_received"].values())
    sent = result.backend_stats["messages_sent"]
    # Loopback-free run: every duplicate is one extra mailbox deposit.
    assert received == sent + duplicated
    assert result.converged


def test_sisc_rendezvous_tags_are_not_touched():
    """Message faults default to AIAC data tags; the synchronous
    algorithm's blocking exchanges model a reliable transport."""
    scenario = _scenario(
        environment="sync_mpi",
        faults=FaultPlan(events=(MessageLoss(probability=0.5),), seed=1),
    )
    result = SimulatedBackend().run(scenario)
    assert result.converged
    assert result.faults.get("messages_dropped", 0) == 0


# ----------------------------------------------------------------------
# threaded backend semantics (the loss/dup/reorder/crash subset)
# ----------------------------------------------------------------------
def test_threaded_backend_honours_loss_and_duplication():
    plan = FaultPlan(
        events=(MessageLoss(probability=0.15),
                MessageDuplication(probability=0.15)),
        seed=3,
    )
    result = ThreadedBackend(timeout=60.0).run(_scenario(faults=plan))
    assert result.converged
    assert result.faults["messages_dropped"] > 0
    assert result.faults["messages_duplicated"] > 0


def test_threaded_backend_honours_reorder_delays():
    plan = FaultPlan(events=(MessageReorder(probability=0.4, max_delay=5e-3),),
                     seed=9)
    result = ThreadedBackend(timeout=60.0).run(_scenario(faults=plan))
    assert result.converged
    assert result.faults["messages_delayed"] > 0


def test_threaded_backend_ignores_topology_only_plans():
    """A plan of pure link/host windows is invisible to in-process
    channels: no injector, no fault counters, plain blocking hub."""
    plan = FaultPlan(events=(
        LinkDegradation(start=0.0, end=1.0, bandwidth_factor=0.1),
        HostSlowdown(start=0.0, end=1.0, factor=0.5),
    ))
    assert plan.message_events() == []
    result = ThreadedBackend(timeout=60.0).run(_scenario(faults=plan))
    assert result.converged
    assert result.faults == {}


def test_threaded_backend_crash_blackout_recovers():
    # A wall-clock crash window early in the run: the rank's traffic is
    # blacked out, then the protocol recovers and converges.
    plan = FaultPlan(events=(RankCrash(rank=1, at=0.0, downtime=0.05),), seed=2)
    result = ThreadedBackend(timeout=60.0).run(_scenario(faults=plan))
    assert result.converged
    assert result.faults.get("crashes") == 1
    assert result.faults.get("recoveries") == 1


# ----------------------------------------------------------------------
# the per-message decision stream, pinned
# ----------------------------------------------------------------------
def test_message_fate_decisions_are_pinned():
    """Both injectors' decisions for a fixed message stream, as one SHA-1.

    Pins the fault RNG's draw order (one draw per eligible event, plan
    order, one more per reorder delay), the crash blackout precedence,
    the counters, and the thread injector's per-stream seed.  A change
    to any of them changes the digest.
    """
    import hashlib
    import time
    from types import SimpleNamespace

    from repro.runtime.faults import ThreadFaultInjector
    from repro.simgrid.faults import SimFaultInjector

    plan = FaultPlan(events=(
        MessageLoss(probability=0.1),
        MessageDuplication(probability=0.2, start=0.1, end=0.9, tags=None),
        MessageReorder(probability=0.3, max_delay=2e-3, tags=("data:1", "stop")),
        RankCrash(rank=1, at=0.2, downtime=0.1),
    ))
    tags = ("data", "data:1", "stop")
    messages = [
        (SimpleNamespace(src=i % 3, dst=(i + 1 + i // 3) % 3, tag=tags[(i // 7) % 3]),
         i * 5e-4)
        for i in range(2000)
    ]

    def decisions(injector) -> list:
        out = []
        for message, now in messages:
            fate = injector.on_send(message, now)
            out.append((fate.drop, fate.duplicate, repr(fate.extra_delay)))
        return out

    digest = hashlib.sha1()
    sim = SimFaultInjector(plan, default_seed=7)
    digest.update(repr((decisions(sim), sorted(sim.counters.items()))).encode())
    for stream in (0, 3):
        threaded = ThreadFaultInjector(plan, 7, stream=stream)
        fates = decisions(threaded)
        threaded.start(time.monotonic() - 0.5)  # crash [0.2, 0.3) lived through
        threaded.finish()
        digest.update(repr((fates, sorted(threaded.counters.items()))).encode())
    assert digest.hexdigest() == "f7d4e911310ec0795892b3190bf7c7da793763cc"


# ----------------------------------------------------------------------
# results carry the counters
# ----------------------------------------------------------------------
def test_run_result_record_round_trips_fault_counters():
    plan = FaultPlan(events=(MessageLoss(probability=0.15),), seed=3)
    result = SimulatedBackend().run(_scenario(faults=plan))
    record = result.to_record()
    assert record["faults"] == result.faults
    rebuilt = RunResult.from_record(json.loads(json.dumps(record)))
    assert rebuilt.faults == result.faults
    assert rebuilt.scenario == result.scenario
    assert "faults" in result.stats()
