"""Conformance-kit tests plus the PR's satellite guarantees:

* generator determinism + serializability,
* invariant checkers catch fabricated unsound results,
* a real (small) conformance sweep passes end to end,
* registry error paths name the known alternatives,
* seed plumbing: identical seeds -> identical work counters through
  problem setup, fault RNG and sweep workers,
* the backends emit no deprecation warnings.
"""

import json
import warnings

import numpy as np
import pytest

from repro.api import (
    FaultPlan,
    MessageLoss,
    RunResult,
    Scenario,
    SimulatedBackend,
    get_backend,
    get_cluster,
    get_environment,
)
from repro.core.aiac import WorkerReport
from repro.sweep import run_sweep
from repro.testing import (
    check_invariants,
    generate_scenarios,
    run_conformance,
    run_scenario_conformance,
    work_counters,
)


# ----------------------------------------------------------------------
# generator
# ----------------------------------------------------------------------
def test_generator_is_deterministic_per_seed():
    first = generate_scenarios(8, seed=3)
    second = generate_scenarios(8, seed=3)
    assert first == second
    assert generate_scenarios(8, seed=4) != first


def test_generated_scenarios_serialize_and_cover_the_space():
    scenarios = generate_scenarios(20, seed=0)
    assert len(scenarios) == 20
    for scenario in scenarios:
        rebuilt = Scenario.from_dict(json.loads(json.dumps(scenario.to_dict())))
        assert rebuilt == scenario
        assert scenario.seed is not None
    # The space actually varies along the declared axes.
    assert len({s.environment for s in scenarios}) >= 3
    assert len({s.cluster for s in scenarios}) >= 2
    assert any(s.faults is not None for s in scenarios)
    assert any(s.faults is None for s in scenarios)


def test_generator_rejects_bad_arguments():
    with pytest.raises(ValueError):
        generate_scenarios(0, seed=0)


# ----------------------------------------------------------------------
# invariants
# ----------------------------------------------------------------------
def _fake_result(scenario, *, converged=True, stopped=True, residual=1e-9,
                 solution=None, n=None):
    n = n or scenario.n_ranks
    reports = {}
    for rank in range(n):
        reports[rank] = WorkerReport(
            rank=rank, iterations=10, converged=converged,
            stopped_by_coordinator=stopped, elapsed=1.0, residual=residual,
            solution=np.zeros(2) if solution is None else solution[rank],
        )
    return RunResult(makespan=1.0, reports=reports, scenario=scenario)


def test_invariants_accept_a_real_run():
    scenario = generate_scenarios(1, seed=0)[0]
    result = SimulatedBackend().run(scenario)
    assert check_invariants(scenario, result, scenario.build_problem()) == []


def test_invariants_catch_premature_global_halt():
    scenario = Scenario(problem="sparse_linear", n_ranks=2)
    result = _fake_result(scenario, converged=False, stopped=True)
    violations = check_invariants(scenario, result)
    assert any("premature" in v for v in violations)


def test_invariants_catch_missing_reports_and_bad_tolerance():
    scenario = Scenario(problem="sparse_linear", n_ranks=3)
    short = _fake_result(scenario, n=2)
    assert any("ranks" in v for v in check_invariants(scenario, short))

    # Reported success with a wildly wrong assembled solution.
    problem = scenario.build_problem()
    size = len(problem.x_true)
    chunks = np.array_split(np.full(size, 1e6), 3)
    wrong = _fake_result(scenario, solution={i: c for i, c in enumerate(chunks)})
    violations = check_invariants(scenario, wrong, problem)
    assert any("tolerance" in v for v in violations)


def test_invariants_flag_fault_counters_without_a_plan():
    scenario = Scenario(problem="sparse_linear", n_ranks=2)
    result = _fake_result(scenario)
    result.faults = {"messages_dropped": 3}
    assert any("fault" in v for v in check_invariants(scenario, result))


# ----------------------------------------------------------------------
# the driver
# ----------------------------------------------------------------------
def test_small_conformance_sweep_passes():
    # Three-way: the sweep runs simulated (twice), threaded and process
    # on every generated scenario.
    report = run_conformance(n=4, seed=1, threaded_timeout=60.0)
    assert report["passed"], report["failures"]
    assert report["summary"]["scenarios"] == 4
    assert report["summary"]["deterministic"]
    assert report["summary"]["memo_parity"]
    assert report["summary"]["timed_out_scenarios"] == 0
    assert all(r["threaded"] is not None for r in report["scenarios"])
    assert all(r["process"] is not None for r in report["scenarios"])
    # The report is JSON-serializable as-is (the CLI writes it).
    json.dumps(report)


def test_scenario_conformance_reports_violations_for_unsound_runs():
    scenario = generate_scenarios(1, seed=0)[0]
    record = run_scenario_conformance(scenario, threaded=False, process=False)
    assert record["ok"], record["violations"]
    assert record["threaded"] is None
    assert record["process"] is None
    assert record["deterministic"] is True


def test_scenario_conformance_captures_backend_exceptions():
    # Five ranks on a two-host network: the simulated backend raises,
    # and the record reports it instead of crashing the sweep.
    scenario = Scenario(problem="sparse_linear", n_ranks=5,
                        cluster_params={"n_hosts": 2}, name="broken")
    record = run_scenario_conformance(scenario)
    assert not record["ok"]
    assert any("simulated backend raised" in v for v in record["violations"])


def test_mega_leg_fails_the_run_on_a_member_that_disagrees(monkeypatch):
    """The whole battery goes through one ``local`` sweep; a member whose
    swept record is not its own run fails the run by name."""
    import repro.sweep

    sweep = repro.sweep.run_sweep

    def rotated(scenarios, **kwargs):
        outcome = sweep(scenarios, **kwargs)
        outcome.records[:] = outcome.records[1:] + outcome.records[:1]
        return outcome

    monkeypatch.setattr(repro.sweep, "run_sweep", rotated)
    report = run_conformance(n=3, seed=0, threaded=False, process=False)
    assert not report["passed"]
    assert report["summary"]["deterministic"]
    assert not report["summary"]["memo_parity"]
    assert all(
        any("memo parity broken" in v for v in failure["violations"])
        for failure in report["failures"]
    )


def test_conformance_filter_keeps_named_scenarios_only():
    report = run_conformance(n=3, seed=1, filter="-000-", threaded=False,
                             process=False)
    assert report["summary"]["scenarios"] == 1
    assert report["passed"], report["failures"]
    # A filter matching nothing must FAIL the run, not report green.
    empty = run_conformance(n=2, seed=1, filter="no-such-name", threaded=False,
                            process=False)
    assert empty["summary"]["scenarios"] == 0
    assert not empty["passed"]
    assert any("matched none" in v for f in empty["failures"]
               for v in f["violations"])


# ----------------------------------------------------------------------
# satellite: registry error paths
# ----------------------------------------------------------------------
def test_unknown_backend_error_lists_alternatives():
    with pytest.raises(KeyError) as err:
        get_backend("cloud")
    message = str(err.value)
    assert "cloud" in message
    assert "simulated" in message and "threaded" in message


def test_unknown_cluster_error_lists_alternatives():
    with pytest.raises(KeyError) as err:
        get_cluster("beowulf")
    message = str(err.value)
    assert "beowulf" in message
    assert "uniform_cluster" in message and "ethernet_wan" in message


def test_unknown_environment_error_lists_alternatives():
    with pytest.raises(KeyError) as err:
        get_environment("corba2")
    message = str(err.value)
    assert "corba2" in message
    for name in ("sync_mpi", "pm2", "mpimad", "omniorb"):
        assert name in message


# ----------------------------------------------------------------------
# satellite: seed plumbing
# ----------------------------------------------------------------------
def test_identical_seeds_identical_records_through_sweep_workers():
    """One seed must pin problem setup, fault RNG and sweep workers."""
    scenario = Scenario(
        problem="sparse_linear",
        problem_params={"n": 150, "sign_structure": "random"},
        cluster_params={"speed": 2e5},
        n_ranks=3,
        seed=99,
        faults=FaultPlan(events=(MessageLoss(probability=0.1),)),
    ).to_dict()
    serial = run_sweep([scenario, scenario], placement="local", processes=1).records
    pooled = run_sweep([scenario, scenario], placement="pool", processes=2).records
    records = [dict(r) for r in serial + pooled]
    for record in records:
        assert "error" not in record, record
        record.pop("index")
        record.pop("elapsed")  # wall clock: the one legitimately varying field
    assert records[0] == records[1] == records[2] == records[3]
    assert records[0]["faults"]["messages_dropped"] > 0


def test_scenario_seed_reaches_problem_setup():
    a = Scenario(problem="sparse_linear", problem_params={"n": 80}, seed=5)
    b = Scenario(problem="sparse_linear", problem_params={"n": 80}, seed=5)
    c = Scenario(problem="sparse_linear", problem_params={"n": 80}, seed=6)
    assert np.array_equal(a.build_problem().b, b.build_problem().b)
    assert not np.array_equal(a.build_problem().b, c.build_problem().b)


def test_fault_rng_falls_back_to_scenario_seed():
    plan = FaultPlan(events=(MessageLoss(probability=0.1),))  # no plan seed
    assert plan.rng_seed(42) == 42
    assert FaultPlan(events=plan.events, seed=9).rng_seed(42) == 9

    def counters(seed):
        scenario = Scenario(
            problem="sparse_linear",
            problem_params={"n": 150, "sign_structure": "random"},
            cluster_params={"speed": 2e5},
            n_ranks=3, seed=seed, faults=plan,
        )
        return work_counters(SimulatedBackend().run(scenario))

    assert counters(7) == counters(7)
    assert counters(7) != counters(1234)


# ----------------------------------------------------------------------
# satellite: the backends warn about nothing
# ----------------------------------------------------------------------
def test_backends_do_not_trigger_the_shim_warnings():
    scenario = Scenario(
        problem="sparse_linear",
        problem_params={"n": 100, "sign_structure": "random"},
        n_ranks=2, seed=1,
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        SimulatedBackend().run(scenario)
        get_backend("threaded", timeout=60.0).run(scenario)
    assert [w for w in caught if w.category is DeprecationWarning] == []
