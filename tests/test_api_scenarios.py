"""Tests for the declarative scenario/backend API (``repro.api``).

Covers the satellite requirements of the API redesign: scenario
dict/JSON round-trips, record round-trips, registry error messages,
solver-override parity, cross-backend unification and the
multiprocessing sweep.
"""

import json

import numpy as np
import pytest

from repro.api import (
    RunResult,
    Scenario,
    SimulatedBackend,
    ThreadedBackend,
    get_backend,
    get_cluster,
    list_backends,
    list_clusters,
    list_problems,
    list_workers,
    register_cluster,
    register_problem,
    run_scenario,
    scenario_matrix,
)
from repro.clusters import CLUSTER_REGISTRY
from repro.core.aiac import AIACOptions
from repro.core.run import get_worker
from repro.problems import PROBLEM_REGISTRY
from repro.problems.sparse_linear import SparseLinearConfig, SparseLinearProblem
from repro.sweep import run_sweep

FAST_LINEAR = dict(n=150, sign_structure="random", eps=1e-6)


def _fast_scenario(**overrides) -> Scenario:
    base = Scenario(
        problem="sparse_linear",
        problem_params=dict(FAST_LINEAR),
        environment="pm2",
        cluster="uniform_cluster",
        n_ranks=3,
        seed=7,
        name="fast",
    )
    return base.derive(**overrides) if overrides else base


# ----------------------------------------------------------------------
# scenario serialization
# ----------------------------------------------------------------------
def test_scenario_dict_round_trip():
    scenario = _fast_scenario(
        options=AIACOptions(eps=1e-7, stability_count=5),
        policy_overrides={"fair": False},
    )
    data = scenario.to_dict()
    rebuilt = Scenario.from_dict(json.loads(json.dumps(data)))
    assert rebuilt == scenario
    assert rebuilt.options == AIACOptions(eps=1e-7, stability_count=5)


def test_scenario_from_dict_rejects_unknown_fields():
    with pytest.raises(ValueError, match="n_rank"):
        Scenario.from_dict({"problem": "sparse_linear", "n_rank": 4})
    with pytest.raises(ValueError, match="problem"):
        Scenario.from_dict({"environment": "pm2"})


def test_scenario_validates_on_construction():
    with pytest.raises(ValueError):
        Scenario(problem="sparse_linear", n_ranks=0)
    with pytest.raises(KeyError, match="unknown worker"):
        Scenario(problem="sparse_linear", algorithm="jacobi")


def test_scenario_derive_nested_params():
    scenario = _fast_scenario()
    derived = scenario.derive(environment="omniorb", problem_params__n=90)
    assert derived.environment == "omniorb"
    assert derived.problem_params["n"] == 90
    assert derived.problem_params["sign_structure"] == "random"
    assert scenario.problem_params["n"] == 150  # original untouched


def test_scenario_matrix_grid():
    grid = scenario_matrix(
        _fast_scenario(),
        environment=["sync_mpi", "pm2"],
        problem_params__n=[90, 150],
    )
    assert len(grid) == 4
    assert [(s.environment, s.problem_params["n"]) for s in grid] == [
        ("sync_mpi", 90), ("sync_mpi", 150), ("pm2", 90), ("pm2", 150),
    ]


def test_scenario_auto_algorithm_follows_paper():
    assert _fast_scenario().resolve_worker() == "aiac"
    assert _fast_scenario(environment="sync_mpi").resolve_worker() == "sisc"
    chemical = Scenario(
        problem="chemical",
        problem_params=dict(nx=6, nz=6, t_end=180.0),
        environment="pm2",
        n_ranks=2,
    )
    assert chemical.resolve_worker() == "aiac_stepped"
    assert chemical.derive(environment="sync_mpi").resolve_worker() == "sisc_stepped"


def test_scenario_network_sized_to_ranks():
    network = _fast_scenario(n_ranks=5).build_network()
    assert len(network.hosts) == 5


def test_scenario_seed_reaches_problem_factory():
    problem = _fast_scenario(seed=123).build_problem()
    assert problem.config.seed == 123
    # explicit problem_params win over the scenario seed
    pinned = _fast_scenario(seed=123, problem_params__seed=9).build_problem()
    assert pinned.config.seed == 9


# ----------------------------------------------------------------------
# registries
# ----------------------------------------------------------------------
def test_registry_error_messages_name_known_entries():
    with pytest.raises(KeyError, match="sparse_linear"):
        _fast_scenario(problem="no_such_problem").build_problem()
    with pytest.raises(KeyError, match="uniform_cluster"):
        get_cluster("no_such_cluster")
    with pytest.raises(KeyError, match="aiac"):
        get_worker("no_such_worker")
    with pytest.raises(KeyError, match="simulated"):
        get_backend("no_such_backend")


def test_registry_listings_contain_builtins():
    assert {"sparse_linear", "chemical"} <= set(list_problems())
    assert {"ethernet_wan", "ethernet_adsl", "local_cluster",
            "uniform_cluster"} <= set(list_clusters())
    assert {"aiac", "sisc", "aiac_stepped", "sisc_stepped"} <= set(list_workers())
    assert {"simulated", "threaded"} <= set(list_backends())


def test_register_decorators_and_duplicate_rejection():
    @register_problem("_test_problem")
    def make_test_problem(n=10):
        return SparseLinearProblem(SparseLinearConfig(n=n, sign_structure="random"))

    @register_cluster("_test_cluster")
    def make_test_cluster(n_hosts=2):
        from repro.clusters.presets import uniform_cluster
        return uniform_cluster(n_hosts=n_hosts)

    try:
        assert "_test_problem" in list_problems()
        scenario = Scenario(problem="_test_problem", cluster="_test_cluster",
                            problem_params={"n": 64}, n_ranks=2,
                            problem_kind="sparse_linear")
        result = SimulatedBackend().run(scenario)
        assert result.converged
        with pytest.raises(ValueError, match="already registered"):
            register_problem("_test_problem")(make_test_problem)
    finally:
        PROBLEM_REGISTRY._items.pop("_test_problem", None)
        CLUSTER_REGISTRY._items.pop("_test_cluster", None)


def test_get_cluster_resolves_machine_names():
    network = get_cluster(
        "ethernet_wan", n_hosts=2, n_sites=2, machine_mix=["duron_800", "p4_2400"]
    )
    models = {host.tags["model"] for host in network.hosts}
    assert models == {"Duron 800", "Pentium IV 2.4"}


# ----------------------------------------------------------------------
# unified result + records
# ----------------------------------------------------------------------
def test_run_result_record_json_round_trip():
    result = SimulatedBackend().run(_fast_scenario())
    record = result.to_record(include_solution=True)
    rebuilt = RunResult.from_record(json.loads(json.dumps(record)))
    assert rebuilt.makespan == result.makespan
    assert rebuilt.converged == result.converged is True
    assert rebuilt.max_iterations == result.max_iterations
    assert rebuilt.backend == "simulated"
    assert rebuilt.scenario == result.scenario
    np.testing.assert_allclose(rebuilt.solution(), result.solution())


def test_run_result_record_without_solution():
    result = SimulatedBackend().run(_fast_scenario())
    record = json.loads(json.dumps(result.to_record()))
    rebuilt = RunResult.from_record(record)
    assert rebuilt.total_iterations == result.total_iterations
    with pytest.raises(ValueError, match="include_solution"):
        rebuilt.solution()


def test_run_result_record_round_trips_all_counter_families_at_once():
    """per_rank + faults + balancing populated *simultaneously*.

    Each family round-trips in isolation elsewhere; this run carries a
    balancing plan on a message-faulted scenario, so one record holds
    rank progress (busy time, row ranges), fault counters and migration
    counters together -- the shape the conformance reports and sweeps
    actually serialize.
    """
    from repro.api import BalancingPlan

    scenario = Scenario(
        problem="sparse_linear",
        problem_params={"n": 300, "dominance": 0.9},
        environment="pm2",
        cluster="local_cluster",
        cluster_params={"speed_scale": 4e-4},
        n_ranks=4,
        seed=3,
        balancer=BalancingPlan(policy="diffusion", period=10),
        faults={"seed": 7, "events": [
            {"kind": "message_loss", "probability": 0.1},
            {"kind": "message_duplication", "probability": 0.1},
        ]},
    )
    result = SimulatedBackend(trace=False).run(scenario)
    assert result.faults["messages_dropped"] > 0
    assert result.balancing["migrations_out"] >= 1
    record = json.loads(json.dumps(result.to_record(include_solution=True)))
    rebuilt = RunResult.from_record(record)
    # All three families survive together, not just in isolation.
    assert rebuilt.faults == result.faults
    assert rebuilt.balancing == result.balancing
    progress, again = result.per_rank, rebuilt.per_rank
    assert sorted(again) == sorted(progress) == list(range(4))
    for rank in progress:
        assert again[rank].iterations == progress[rank].iterations
        assert again[rank].busy_time == pytest.approx(progress[rank].busy_time)
        assert again[rank].rows == progress[rank].rows
        assert again[rank].sends == progress[rank].sends
    assert rebuilt.scenario == result.scenario
    np.testing.assert_allclose(rebuilt.solution(), result.solution())
    # And the rebuilt record re-serializes identically (fixed point).
    assert json.loads(json.dumps(rebuilt.to_record(include_solution=True))) \
        == record


def test_make_solver_override_matches_the_scenario_problem():
    scenario = _fast_scenario()
    problem = SparseLinearProblem(SparseLinearConfig(seed=7, **FAST_LINEAR))
    backend = SimulatedBackend()
    override = backend.run(scenario, make_solver=problem.make_local)
    plain = backend.run(scenario)
    assert plain.makespan == override.makespan
    assert plain.max_iterations == override.max_iterations
    np.testing.assert_array_equal(plain.solution(), override.solution())


def test_same_scenario_runs_on_both_backends():
    scenario = _fast_scenario(algorithm="sisc", n_ranks=2)
    simulated = run_scenario(scenario)
    threaded = run_scenario(scenario, backend="threaded")
    assert type(simulated) is type(threaded) is RunResult
    assert simulated.converged and threaded.converged
    assert threaded.backend == "threaded" and simulated.backend == "simulated"
    # Both converge to the same fixed point of the same problem.
    np.testing.assert_allclose(
        simulated.solution(), threaded.solution(), atol=1e-4
    )
    for result in (simulated, threaded):
        record = json.loads(json.dumps(result.to_record()))
        assert record["converged"] is True


def test_threaded_backend_derives_stats():
    result = ThreadedBackend().run(_fast_scenario(algorithm="sisc", n_ranks=2))
    stats = result.stats()
    assert stats["backend"] == "threaded"
    assert stats["messages_sent"] > 0
    assert set(stats["iterations_per_rank"]) == {0, 1}


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------
def test_sweep_grid_across_processes():
    # mpimad's serialised receive path grinds to the iteration cap on
    # this fast uniform cluster, so the grid varies rank counts instead.
    grid = scenario_matrix(
        _fast_scenario(),
        environment=["sync_mpi", "pm2", "omniorb"],
        problem_params__n=[90, 150],
        n_ranks=[2, 3],
    )
    assert len(grid) == 12
    records = run_sweep(grid, placement="pool", processes=2).records
    assert [r["index"] for r in records] == list(range(12))
    json.dumps(records)  # fully serializable
    assert all(r["converged"] for r in records)
    serial = run_sweep(grid, placement="local", processes=1).records
    assert [r["makespan"] for r in records] == [r["makespan"] for r in serial]


def test_sweep_accepts_dicts_and_captures_failures():
    good = _fast_scenario().to_dict()
    bad = _fast_scenario(cluster="no_such_cluster").to_dict()
    malformed = dict(good, algorithm="no_such_worker")  # fails from_dict itself
    records = run_sweep([good, bad, malformed]).records
    assert "error" not in records[0]
    assert "no_such_cluster" in records[1]["error"]
    assert "no_such_worker" in records[2]["error"]
    assert [r["index"] for r in records] == [0, 1, 2]
    json.dumps(records)


def test_repro_sweep_stays_the_package_after_a_sweep():
    import repro
    import repro.sweep as package

    assert "sweep" not in repro.__all__
    unit = Scenario(problem="sparse_linear", problem_params={"n": 40},
                    environment="sync_mpi", n_ranks=1, seed=1)
    for _ in range(2):
        assert repro.sweep is package
        (record,) = repro.sweep.run_sweep([unit]).records
        assert record["converged"]
    assert repro.sweep is package


def test_run_scenario_rejects_kwargs_for_backend_instances():
    with pytest.raises(TypeError, match="by name"):
        run_scenario(_fast_scenario(), SimulatedBackend(), trace=False)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_list_and_run(tmp_path, capsys):
    from repro.cli import main

    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "sparse_linear" in out and "threaded" in out

    scenario_file = tmp_path / "scenario.json"
    scenario_file.write_text(json.dumps(_fast_scenario().to_dict()))
    output_file = tmp_path / "records.json"
    assert main(["run", str(scenario_file), "--output", str(output_file)]) == 0
    records = json.loads(output_file.read_text())
    assert len(records) == 1 and records[0]["converged"] is True
