"""Tests for the dynamic load-balancing subsystem (repro.balancing)."""

import json

import numpy as np
import pytest

from repro.api import BalancingPlan, RunResult, Scenario, SimulatedBackend, run_scenario
from repro.balancing import (
    DiffusionBalancer,
    MigrationEngine,
    RankLoad,
    RateEstimator,
    get_balancer,
    list_balancers,
    register_balancer,
)
from repro.core.aiac import WorkerReport
from repro.problems.sparse_linear import (
    MigratableSparseLinearLocal,
    SparseLinearConfig,
    SparseLinearProblem,
)
from repro.testing import check_invariants, check_row_partition, work_counters

PROBLEM = SparseLinearProblem(
    SparseLinearConfig(n=120, n_diagonals=6, dominance=0.7, sign_structure="random")
)

#: The calibrated heterogeneous scenario of the acceptance criterion
#: (also the LB pair of the committed BENCH_2…5.json history and
#: examples/load_balancing.py).
HETERO = Scenario(
    problem="sparse_linear",
    problem_params={"n": 400, "dominance": 0.9},
    environment="pm2",
    cluster="local_cluster",
    cluster_params={"speed_scale": 4e-4},
    n_ranks=6,
    seed=3,
)


def _row_spans(result):
    progress = result.per_rank
    return [progress[r].rows for r in sorted(progress)]


def _assert_partition(result, n):
    spans = _row_spans(result)
    assert spans[0][0] == 0
    for left, right in zip(spans, spans[1:]):
        assert left[1] == right[0]
    assert spans[-1][1] == n


# ----------------------------------------------------------------------
# the declarative plan
# ----------------------------------------------------------------------
def test_plan_json_round_trip():
    plan = BalancingPlan(policy="diffusion", period=15, threshold=0.07,
                         batch_fraction=0.4, max_batch=12, min_rows=2)
    rebuilt = BalancingPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
    assert rebuilt == plan


def test_plan_validation():
    with pytest.raises(KeyError, match="unknown balancer"):
        BalancingPlan(policy="no-such-policy")
    with pytest.raises(ValueError, match="period"):
        BalancingPlan(period=0)
    with pytest.raises(ValueError, match="batch_fraction"):
        BalancingPlan(batch_fraction=0.0)
    with pytest.raises(ValueError, match="threshold"):
        BalancingPlan(threshold=-0.1)
    with pytest.raises(ValueError, match="unknown balancing-plan field"):
        BalancingPlan.from_dict({"policy": "diffusion", "typo": 1})


def test_balancer_registry():
    assert "diffusion" in list_balancers()
    assert "none" in list_balancers()
    assert get_balancer("diffusion") is DiffusionBalancer

    @register_balancer("test_custom")
    class Custom:
        needs_load_reports = False

        def __init__(self, plan):
            self.plan = plan

        def propose(self, me, loads):
            return None

    assert "test_custom" in list_balancers()
    plan = BalancingPlan(policy="test_custom")
    assert plan.to_dict()["policy"] == "test_custom"


def teardown_module(module):
    # The registry has no public remove; drop the test-only key directly
    # so other modules never see it.
    from repro.balancing import BALANCER_REGISTRY

    BALANCER_REGISTRY._items.pop("test_custom", None)


def test_scenario_balancer_round_trip_and_derive():
    scenario = HETERO.derive(balancer=BalancingPlan(policy="diffusion", period=10))
    rebuilt = Scenario.from_dict(json.loads(json.dumps(scenario.to_dict())))
    assert rebuilt == scenario
    # Plain-dict coercion and nested derive into the plan value.
    coerced = Scenario(problem="sparse_linear",
                       balancer={"policy": "diffusion", "period": 30})
    assert isinstance(coerced.balancer, BalancingPlan)
    assert coerced.balancer.period == 30
    off = scenario.derive(balancer__policy="none")
    assert off.balancer.policy == "none"
    assert off.balancer.period == 10


def test_balancer_requires_the_aiac_worker():
    scenario = HETERO.derive(environment="sync_mpi",
                             balancer=BalancingPlan(policy="diffusion"))
    with pytest.raises(ValueError, match="aiac"):
        SimulatedBackend(trace=False).run(scenario)


def test_balancer_requires_a_migratable_problem():
    scenario = Scenario(problem="chemical", environment="pm2", n_ranks=2,
                        algorithm="aiac",
                        balancer=BalancingPlan(policy="diffusion"))
    with pytest.raises(ValueError, match="migration"):
        SimulatedBackend(trace=False).run(scenario)


# ----------------------------------------------------------------------
# rate estimation and the diffusion decision
# ----------------------------------------------------------------------
def test_rate_estimator_measures_throughput():
    est = RateEstimator(alpha=1.0)
    assert est.sample(0.0) == 0.0  # first sample only arms the window
    for _ in range(10):
        est.note(50)
    assert est.sample(1.0) == pytest.approx(500.0)
    for _ in range(10):
        est.note(50)
    assert est.sample(3.0) == pytest.approx(250.0)


def test_rate_estimator_smooths_and_validates():
    est = RateEstimator(alpha=0.5)
    est.sample(0.0)
    est.note(100)
    first = est.sample(1.0)
    est.note(300)
    second = est.sample(2.0)
    assert first == pytest.approx(100.0)
    assert second == pytest.approx(200.0)  # halfway to the new 300/s
    assert est.sample(2.0) == second  # zero-dt sample is a no-op
    with pytest.raises(ValueError):
        RateEstimator(alpha=0.0)


def test_diffusion_moves_excess_toward_fast_neighbour():
    plan = BalancingPlan(policy="diffusion", period=10, threshold=0.1)
    policy = DiffusionBalancer(plan)
    me = RankLoad(rank=1, rows=60, rate=100.0, iteration=50)
    loads = {
        0: RankLoad(rank=0, rows=60, rate=300.0, iteration=48),
        2: RankLoad(rank=2, rows=60, rate=100.0, iteration=49),
    }
    proposal = policy.propose(me, loads)
    assert proposal is not None
    dest, k = proposal
    assert dest == 0  # the 3x-faster neighbour
    # excess over the speed-ideal share (30 of 120) is 30; half moves.
    assert k == 15


def test_diffusion_respects_threshold_staleness_and_min_rows():
    plan = BalancingPlan(policy="diffusion", period=10, threshold=0.2,
                         min_rows=55)
    policy = DiffusionBalancer(plan)
    me = RankLoad(rank=1, rows=60, rate=100.0, iteration=50)
    balanced = {0: RankLoad(rank=0, rows=60, rate=101.0, iteration=49)}
    assert policy.propose(me, balanced) is None  # under threshold
    stale = {0: RankLoad(rank=0, rows=60, rate=300.0, iteration=1)}
    assert policy.propose(me, stale) is None  # sample too old
    fast = {0: RankLoad(rank=0, rows=60, rate=300.0, iteration=49)}
    dest, k = policy.propose(me, fast)
    assert k == 5  # clamped by min_rows=55
    assert policy.propose(
        RankLoad(rank=1, rows=60, rate=0.0, iteration=50), fast
    ) is None  # own rate unknown yet


def test_diffusion_bootstraps_onto_silent_neighbours_and_caps_batches():
    plan = BalancingPlan(policy="diffusion", period=10, threshold=0.1,
                         max_batch=4)
    policy = DiffusionBalancer(plan)
    me = RankLoad(rank=0, rows=60, rate=100.0, iteration=20)
    # The neighbour never produced a measurable rate (e.g. zero rows):
    # assume it is as fast as we are, so rows can bootstrap onto it.
    silent = {1: RankLoad(rank=1, rows=0, rate=0.0, iteration=19)}
    proposal = policy.propose(me, silent)
    assert proposal is not None
    dest, k = proposal
    assert dest == 1
    assert k == 4  # excess 30, half is 15, max_batch caps at 4


def test_noop_balancer_never_proposes():
    plan = BalancingPlan(policy="none")
    policy = get_balancer("none")(plan)
    assert policy.needs_load_reports is False
    me = RankLoad(rank=0, rows=10, rate=1.0, iteration=100)
    assert policy.propose(me, {1: RankLoad(1, 1000, 100.0, 100)}) is None


# ----------------------------------------------------------------------
# the migratable solver
# ----------------------------------------------------------------------
def test_migratable_solver_reslices_between_neighbours():
    a = PROBLEM.make_migratable(0, 3)
    b = PROBLEM.make_migratable(1, 3)
    assert (a.lo, a.hi) == (0, 40) and (b.lo, b.hi) == (40, 80)
    lo, hi, values = a.give_rows(10, to_rank=1)
    assert (lo, hi) == (30, 40) and len(values) == 10
    assert (a.lo, a.hi) == (0, 30)
    b.take_rows(lo, hi, values)
    assert (b.lo, b.hi) == (30, 80)
    # Conservation: the union still tiles the range.
    assert a.n_rows + b.n_rows == 80


def test_migratable_solver_rejects_bad_migrations():
    solver = PROBLEM.make_migratable(1, 3)
    with pytest.raises(ValueError, match="neighbour"):
        solver.give_rows(5, to_rank=3)
    with pytest.raises(ValueError, match="cannot give"):
        solver.give_rows(1000, to_rank=0)
    with pytest.raises(ValueError, match="not adjacent"):
        solver.take_rows(100, 110, np.zeros(10))
    with pytest.raises(ValueError, match="carries"):
        solver.take_rows(80, 90, np.zeros(3))
    with pytest.raises(ValueError, match="empty migration"):
        solver.take_rows(80, 80, np.zeros(0))


def test_migratable_solver_handles_empty_blocks():
    solver = PROBLEM.make_migratable(1, 3)
    solver.give_rows(solver.n_rows, to_rank=2)
    assert solver.n_rows == 0
    step = solver.iterate()
    assert step.residual == 0.0
    assert step.flops > 0  # loop overhead still charges time
    for payload, size in step.outgoing.values():
        assert len(payload[2]) == 0 and size > 0
    assert solver.local_solution().size == 0


def test_migratable_payloads_are_self_describing():
    sender = PROBLEM.make_migratable(0, 3)
    receiver = PROBLEM.make_migratable(2, 3)
    sender.x[sender.lo:sender.hi] = 7.0
    step = sender.iterate()
    payload, _ = step.outgoing[2]
    receiver.integrate(0, payload)
    lo, hi = sender.row_range
    assert np.all(receiver.x[lo:hi] == sender.x[lo:hi])
    with pytest.raises(ValueError, match="outside the problem range"):
        receiver.integrate(0, (0, PROBLEM.n - 1, np.zeros(5)))


# ----------------------------------------------------------------------
# end-to-end: the paper's LB-vs-no-LB comparison
# ----------------------------------------------------------------------
def test_diffusion_beats_noop_on_heterogeneous_cluster():
    """Acceptance: strictly smaller makespan for the same seed."""
    off = run_scenario(
        HETERO.derive(balancer=BalancingPlan(policy="none")), trace=False
    )
    on = run_scenario(
        HETERO.derive(balancer=BalancingPlan(policy="diffusion", period=10)),
        trace=False,
    )
    assert off.converged and on.converged
    assert on.makespan < off.makespan
    assert on.balancing["migrations_out"] >= 1
    assert on.balancing["rows_out"] == on.balancing["rows_in"]
    problem = HETERO.build_problem()
    assert problem.solution_error(on.solution()) < 1e-3
    _assert_partition(on, problem.n)
    _assert_partition(off, problem.n)
    # The no-op baseline runs the identical machinery, minus migration.
    assert off.balancing["migrations_out"] == 0
    assert off.balancing["load_reports"] == 0


def test_diffusion_absorbs_a_host_slowdown_window():
    """Acceptance (variant): balancing under a FaultPlan perturbation."""
    perturbed = HETERO.derive(
        cluster="uniform_cluster",
        cluster_params={"speed": 30000.0},
        faults={"seed": 11, "events": [{
            "kind": "host_slowdown", "start": 0.5, "end": 8.0,
            "factor": 0.2, "hosts": ["node2"]}]},
    )
    off = run_scenario(
        perturbed.derive(balancer=BalancingPlan(policy="none")), trace=False
    )
    on = run_scenario(
        perturbed.derive(
            balancer=BalancingPlan(policy="diffusion", period=5, threshold=0.05)
        ),
        trace=False,
    )
    assert off.converged and on.converged
    assert on.makespan < off.makespan
    assert on.balancing["migrations_out"] >= 1
    _assert_partition(on, 400)


def test_migration_counters_are_reproducible_per_seed():
    scenario = HETERO.derive(balancer=BalancingPlan(policy="diffusion", period=10))
    first = run_scenario(scenario, trace=False)
    second = run_scenario(scenario, trace=False)
    assert work_counters(first) == work_counters(second)
    assert first.balancing == second.balancing
    assert _row_spans(first) == _row_spans(second)


def test_balancing_survives_message_faults():
    """Loss/dup/reorder shake the data plane, never a handoff."""
    scenario = HETERO.derive(
        balancer=BalancingPlan(policy="diffusion", period=10),
        faults={"seed": 7, "events": [
            {"kind": "message_loss", "probability": 0.1},
            {"kind": "message_duplication", "probability": 0.1},
            {"kind": "message_reorder", "probability": 0.2, "max_delay": 5e-3},
        ]},
    )
    result = run_scenario(scenario, trace=False)
    assert result.converged
    assert result.faults["messages_dropped"] > 0
    assert result.balancing["migrations_out"] >= 1
    problem = HETERO.build_problem()
    assert problem.solution_error(result.solution()) < 1e-3
    _assert_partition(result, problem.n)
    assert check_invariants(scenario, result, problem) == []


def test_balanced_scenario_runs_on_threads():
    scenario = HETERO.derive(
        n_ranks=3,
        problem_params={"n": 200, "dominance": 0.8, "sign_structure": "random"},
        balancer=BalancingPlan(policy="diffusion", period=10),
    )
    result = run_scenario(scenario, backend="threaded", timeout=60.0)
    assert result.converged
    _assert_partition(result, 200)
    assert result.balancing["rows_out"] == result.balancing["rows_in"]
    assert check_invariants(scenario, result, scenario.build_problem()) == []


@pytest.mark.parametrize("backend_name", ["simulated", "threaded", "process"])
def test_migration_handoff_stress_under_message_faults(backend_name):
    """Seeded stress: two-phase handoffs under loss/dup/reorder plans.

    Many seeds, every backend: whatever the fault plan does to the data
    plane and however the OS schedules the ranks, the global row set
    must still partition ``range(n)`` at halt and the donor/receiver
    accounting must agree (``check_row_partition``).  The aggressive
    probe period/threshold keep handoffs flowing even where measured
    rates are nearly equal (real threads and processes on one host).
    """
    base = HETERO.derive(
        n_ranks=4,
        problem_params={"n": 180, "dominance": 0.75,
                        "sign_structure": "random"},
        balancer=BalancingPlan(policy="diffusion", period=5, threshold=0.02),
    )
    migrations = 0
    for seed in range(6):
        scenario = base.derive(
            seed=seed,
            name=f"stress-{backend_name}-{seed}",
            faults={"seed": seed, "events": [
                {"kind": "message_loss", "probability": 0.12},
                {"kind": "message_duplication", "probability": 0.08},
                {"kind": "message_reorder", "probability": 0.15,
                 "max_delay": 2e-3},
            ]},
        )
        kwargs = ({"trace": False} if backend_name == "simulated"
                  else {"timeout": 60.0})
        result = run_scenario(scenario, backend=backend_name, **kwargs)
        problem = scenario.build_problem()
        assert check_row_partition(result, problem) == [], (
            f"seed {seed}: row partition violated on {backend_name}"
        )
        assert check_invariants(scenario, result, problem) == [], (
            f"seed {seed}: invariants violated on {backend_name}"
        )
        migrations += result.balancing.get("migrations_out", 0)
    # The stress must actually exercise handoffs, not just no-ops.
    assert migrations > 0


def test_handoff_payloads_survive_the_process_wire_format():
    """A commit payload must integrate identically after pickling.

    The process backend ships handoffs as pickled messages; the commit
    point normalises donated values into an owned, contiguous float64
    array so by-reference and by-wire delivery cannot diverge.
    """
    import pickle

    donor = PROBLEM.make_migratable(1, 3)
    lo, hi, values = donor.give_rows(5, 2)
    payload = ("commit", 1, 7, lo, hi, np.ascontiguousarray(values, dtype=float))
    wire = pickle.loads(pickle.dumps(payload))
    assert wire[:5] == payload[:5]
    np.testing.assert_array_equal(wire[5], values)
    receiver = PROBLEM.make_migratable(2, 3)
    receiver.take_rows(wire[3], wire[4], wire[5])
    assert receiver.row_range == (lo, PROBLEM.n)
    np.testing.assert_array_equal(receiver.x[lo:hi], values)


# ----------------------------------------------------------------------
# result surface: per-rank progress and records
# ----------------------------------------------------------------------
def test_per_rank_progress_and_busy_time_round_trip():
    scenario = HETERO.derive(balancer=BalancingPlan(policy="diffusion", period=10))
    result = run_scenario(scenario, trace=False)
    progress = result.per_rank
    assert sorted(progress) == list(range(6))
    for rank, entry in progress.items():
        assert entry.iterations == result.reports[rank].iterations
        assert 0.0 < entry.busy_time <= result.makespan
        assert entry.rows is not None
    record = result.to_record()
    rebuilt = RunResult.from_record(json.loads(json.dumps(record)))
    again = rebuilt.per_rank
    for rank in progress:
        assert again[rank].iterations == progress[rank].iterations
        assert again[rank].busy_time == pytest.approx(progress[rank].busy_time)
        assert again[rank].rows == progress[rank].rows
    assert rebuilt.balancing == result.balancing


def test_busy_time_is_reported_without_balancing_too():
    scenario = Scenario(problem="sparse_linear",
                        problem_params={"n": 200, "sign_structure": "random"},
                        n_ranks=3, seed=1)
    result = run_scenario(scenario, trace=False)
    for entry in result.per_rank.values():
        assert entry.busy_time > 0.0
        assert entry.rows is None
    assert result.balancing == {}


# ----------------------------------------------------------------------
# the row-conservation invariant
# ----------------------------------------------------------------------
def _balanced_result(spans, counters=None):
    reports = {}
    for rank, (lo, hi) in enumerate(spans):
        meta = {"rows": [lo, hi], "balancing": dict(counters or {})}
        reports[rank] = WorkerReport(
            rank=rank, iterations=5, converged=True,
            stopped_by_coordinator=True, elapsed=1.0, residual=1e-9,
            solution=np.zeros(hi - lo), meta=meta,
        )
    return RunResult(makespan=1.0, reports=reports)


def test_row_partition_checker_accepts_a_partition():
    result = _balanced_result([(0, 40), (40, 41), (41, 120)],
                              {"rows_out": 10, "rows_in": 10,
                               "migrations_out": 1, "migrations_in": 1})
    assert check_row_partition(result, PROBLEM) == []


def test_row_partition_checker_catches_lost_and_duplicated_rows():
    lost = _balanced_result([(0, 40), (50, 120)])
    assert any("lost or duplicated" in v for v in check_row_partition(lost, PROBLEM))
    overlap = _balanced_result([(0, 60), (40, 120)])
    assert any("lost or duplicated" in v for v in check_row_partition(overlap, PROBLEM))
    short = _balanced_result([(0, 40), (40, 100)])
    assert any("has 120 rows" in v for v in check_row_partition(short, PROBLEM))
    missing = RunResult(makespan=1.0, reports={0: WorkerReport(
        rank=0, iterations=5, converged=True, stopped_by_coordinator=True,
        elapsed=1.0, residual=1e-9, solution=np.zeros(1))})
    assert any("no row range" in v for v in check_row_partition(missing, PROBLEM))


def test_row_partition_checker_catches_unbalanced_accounting():
    result = _balanced_result([(0, 120)], {"rows_out": 5, "rows_in": 3,
                                           "migrations_out": 1,
                                           "migrations_in": 0})
    violations = check_row_partition(result, None)
    assert any("5 rows donated but 3" in v for v in violations)
    assert any("1 commits sent but 0" in v for v in violations)


# ----------------------------------------------------------------------
# generator pairs and CLI surface
# ----------------------------------------------------------------------
def test_generator_emits_balanced_pairs():
    from repro.testing import GeneratorConfig, generate_scenarios

    config = GeneratorConfig(balanced_fraction=1.0, fault_fraction=0.0,
                             chemical_fraction=0.0)
    scenarios = generate_scenarios(10, seed=5, config=config)
    assert len(scenarios) == 10
    pairs = [s for s in scenarios if s.balancer is not None]
    assert pairs, "expected at least one balanced pair"
    by_base = {}
    for s in pairs:
        base = s.name.rsplit("+lb", 1)[0]
        by_base.setdefault(base, []).append(s)
    for base, members in by_base.items():
        policies = sorted(m.balancer.policy for m in members)
        assert policies == ["diffusion", "none"], base
        # The pair shares everything but the balancer.
        a, b = members
        assert a.derive(balancer=None, name=None) == b.derive(balancer=None, name=None)


def test_cli_list_names_balancers(capsys):
    from repro.cli import main

    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "balancers: diffusion, none" in out


# ----------------------------------------------------------------------
# the two-phase handoff state machine, driven directly
# ----------------------------------------------------------------------
class _Wire:
    """Tiny effect interpreter: routes Sends between engines by rank."""

    def __init__(self):
        self.inboxes = {}
        self.clock = 0.0

    def inbox(self, rank):
        return self.inboxes.setdefault(rank, [])

    def run(self, rank, gen):
        from repro.simgrid.effects import Drain, Now, Recv, Send
        from repro.simgrid.message import Message

        value = None
        while True:
            try:
                effect = gen.send(value)
            except StopIteration as stop:
                return stop.value
            if isinstance(effect, Drain):
                box = self.inbox(rank)
                value, box[:] = list(box), []
            elif isinstance(effect, Recv):
                box = self.inbox(rank)
                value, box[:] = list(box), []
            elif isinstance(effect, Send):
                self.inbox(effect.dest).append(
                    Message(src=rank, dst=effect.dest, tag=effect.tag,
                            payload=effect.payload, size=effect.size)
                )
                value = None
            elif isinstance(effect, Now):
                self.clock += 1.0
                value = self.clock
            else:  # pragma: no cover - unexpected effect kinds
                raise AssertionError(f"unexpected effect {effect!r}")


def _hot_engine(rank, size, **plan_kwargs):
    """An engine that wants to migrate immediately on its slot."""
    plan_kwargs.setdefault("period", 1)
    plan_kwargs.setdefault("threshold", 0.0)
    engine = MigrationEngine(BalancingPlan(policy="diffusion", **plan_kwargs),
                             rank=rank, size=size)
    return engine


def test_full_handshake_moves_rows_and_clears_state():
    wire = _Wire()
    donor = _hot_engine(0, 2)
    receiver = _hot_engine(1, 2)
    s0 = PROBLEM.make_migratable(0, 2)
    s1 = PROBLEM.make_migratable(1, 2)
    # Seed load knowledge: receiver looks 3x faster than the donor.
    donor._loads[1] = RankLoad(rank=1, rows=60, rate=300.0, iteration=0)
    donor.estimator._rate = 100.0
    donor.estimator._window_start = 0.0
    # Probe slot 0 belongs to rank 0: donor offers.
    assert wire.run(0, donor.pump(s0, 0)) is False
    assert donor.holds_convergence()
    # Receiver sees the offer, accepts.
    assert wire.run(1, receiver.pump(s1, 1)) is False
    assert receiver.holds_convergence()
    # Donor sees the accept: commit point -- rows leave now.
    rows_before = s0.n_rows
    assert wire.run(0, donor.pump(s0, 1)) is True
    assert s0.n_rows < rows_before
    # Receiver integrates the commit and acks.
    assert wire.run(1, receiver.pump(s1, 2)) is True
    assert s0.n_rows + s1.n_rows == PROBLEM.n
    assert not receiver.holds_convergence()
    # Donor clears on the ack.
    wire.run(0, donor.pump(s0, 2))
    assert not donor.holds_convergence()
    assert donor.counters["migrations_out"] == 1
    assert receiver.counters["migrations_in"] == 1
    assert donor.counters["rows_out"] == receiver.counters["rows_in"]


def test_busy_receiver_rejects_and_donor_cools_down():
    from repro.simgrid.message import Message

    wire = _Wire()
    receiver = _hot_engine(1, 3)
    s1 = PROBLEM.make_migratable(1, 3)
    # Receiver is already mid-handoff on its other side.
    receiver._in = {"src": 2, "epoch": 9, "k": 4}
    wire.inbox(1).append(Message(src=0, dst=1, tag="mig",
                                 payload=("offer", 0, 1, 5), size=32.0))
    wire.run(1, receiver.pump(s1, 4))
    assert receiver.counters["rejects_sent"] == 1
    assert any(m.payload[0] == "reject" for m in wire.inbox(0))
    # The donor processes the reject: offer cleared, cooldown armed.
    donor = _hot_engine(0, 3)
    donor._out = {"dest": 1, "epoch": 1, "k": 5, "state": "offered"}
    wire.run(0, donor.pump(PROBLEM.make_migratable(0, 3), 4))
    assert donor._out is None
    assert donor.counters["rejects_received"] == 1
    assert donor._cooldown_until > 4


def test_stale_replies_and_unmatched_commits_are_safe():
    from repro.simgrid.message import Message

    wire = _Wire()
    engine = _hot_engine(1, 3)
    solver = PROBLEM.make_migratable(1, 3)
    # A stale accept for an epoch we no longer track: ignored.
    wire.inbox(1).append(Message(src=0, dst=1, tag="mig",
                                 payload=("accept", 0, 99), size=32.0))
    # An unmatched commit must still be integrated (rows already left
    # the donor) and counted as unexpected.
    rows = solver.n_rows
    lo, hi = solver.row_range
    payload = ("commit", 2, 77, hi, hi + 3, np.zeros(3))
    wire.inbox(1).append(Message(src=2, dst=1, tag="mig",
                                 payload=payload, size=64.0))
    moved = wire.run(1, engine.pump(solver, 5))
    assert moved is True
    assert solver.n_rows == rows + 3
    assert engine.counters["commits_unmatched"] == 1
    assert engine.counters["migrations_in"] == 1
    # A cancel for the untracked epoch is a no-op.
    wire.inbox(1).append(Message(src=0, dst=1, tag="mig",
                                 payload=("cancel", 0, 12), size=32.0))
    wire.run(1, engine.pump(solver, 6))
    assert not engine.holds_convergence()


def test_shrunken_donor_calls_off_an_accepted_offer():
    from repro.simgrid.message import Message

    wire = _Wire()
    donor = _hot_engine(0, 2, min_rows=1)
    solver = PROBLEM.make_migratable(0, 2)
    # The standing offer promises more rows than the donor can spare.
    donor._out = {"dest": 1, "epoch": 2, "k": solver.n_rows + 10,
                  "state": "offered"}
    donor.plan = BalancingPlan(policy="diffusion", period=1,
                               min_rows=solver.n_rows)
    wire.inbox(0).append(Message(src=1, dst=0, tag="mig",
                                 payload=("accept", 1, 2), size=32.0))
    moved = wire.run(0, donor.pump(solver, 3))
    assert moved is False
    assert donor._out is None
    assert any(m.payload[0] == "cancel" for m in wire.inbox(1))
    assert donor.counters["migrations_out"] == 0


def test_finalize_safety_valve_when_the_peer_never_resolves():
    # By protocol this cannot happen (an accepted offer always ends in
    # commit or cancel); the valve turns a hypothetical bug into an
    # observable counter instead of a hang.
    wire = _Wire()
    engine = _hot_engine(1, 3)
    solver = PROBLEM.make_migratable(1, 3)
    engine._in = {"src": 2, "epoch": 8, "k": 2}  # commit never arrives
    wire.run(1, engine.finalize(solver))
    assert not engine.holds_convergence()
    assert engine.counters["migrations_in"] == 0
    assert engine.counters["finalize_abandoned"] == 1
    assert solver.n_rows == 40  # unchanged: nothing was integrated


def test_finalize_withdraws_offers_and_collects_commits():
    from repro.simgrid.message import Message

    wire = _Wire()
    engine = _hot_engine(1, 3)
    solver = PROBLEM.make_migratable(1, 3)
    # An unanswered offer is withdrawn with a cancel.
    engine._out = {"dest": 0, "epoch": 3, "k": 5, "state": "offered"}
    # An accepted inbound handoff whose commit is already in flight.
    engine._in = {"src": 2, "epoch": 8, "k": 2}
    lo, hi = solver.row_range
    wire.inbox(1).append(Message(src=2, dst=1, tag="mig",
                                 payload=("commit", 2, 8, hi, hi + 2,
                                          np.zeros(2)), size=64.0))
    wire.run(1, engine.finalize(solver))
    assert not engine.holds_convergence()
    assert engine.counters["migrations_in"] == 1
    kinds = [m.payload[0] for m in wire.inbox(0)]
    assert "cancel" in kinds
    # And a late offer arriving during finalize is declined.
    engine2 = _hot_engine(0, 2)
    s0 = PROBLEM.make_migratable(0, 2)
    engine2._in = {"src": 1, "epoch": 4, "k": 2}
    wire.inbox(0).append(Message(src=1, dst=0, tag="mig",
                                 payload=("offer", 1, 5, 3), size=32.0))
    lo0, hi0 = s0.row_range
    wire.inbox(0).append(Message(src=1, dst=0, tag="mig",
                                 payload=("commit", 1, 4, hi0, hi0 + 2,
                                          np.zeros(2)), size=64.0))
    wire.run(0, engine2.finalize(s0))
    assert engine2.counters["rejects_sent"] == 1
    assert engine2.counters["migrations_in"] == 1
    assert not engine2.holds_convergence()


def test_engine_pump_is_effect_pure():
    """The engine never touches backend state directly -- only effects."""
    from repro.simgrid.effects import Effect

    plan = BalancingPlan(policy="none")
    engine = MigrationEngine(plan, rank=0, size=2)
    solver = PROBLEM.make_migratable(0, 2)
    gen = engine.pump(solver, 0)
    effect = gen.send(None)
    assert isinstance(effect, Effect)  # the Drain of the mig tag
    try:
        gen.send([])  # no messages: a noop plan yields nothing further
    except StopIteration as stop:
        assert stop.value is False
    assert engine.holds_convergence() is False
