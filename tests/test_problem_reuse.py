"""``Scenario.build_problem`` builds an instance once per process.

The reuse must be exact (a run on a reused instance equals a run on a
fresh one), keyed right (any change of problem content builds anew),
bounded (one instance held at a time) and safe (no run writes into the
shared instance on any backend).
"""

import gc
import hashlib
import weakref

import numpy as np
import pytest

from repro.api import ProcessBackend, Scenario, SimulatedBackend, ThreadedBackend
from repro.problems import PROBLEM_REGISTRY, get_problem, register_problem
from repro.problems.sparse_linear import SparseLinearConfig, SparseLinearProblem

SPARSE = Scenario(
    problem="sparse_linear",
    problem_params={"n": 120, "sign_structure": "random", "eps": 1e-6},
    environment="pm2",
    n_ranks=3,
    seed=7,
)
CHEMICAL = Scenario(
    problem="chemical",
    problem_params={"nx": 6, "nz": 6, "t_end": 360.0},
    environment="sync_mpi",
    n_ranks=2,
)


def _record(result):
    record = result.to_record(include_solution=True)
    record.pop("elapsed")  # wall clock: the one legitimately varying field
    return record


def _arrays_sha1(problem) -> str:
    if isinstance(problem, SparseLinearProblem):
        arrays = (problem.matrix.data, problem.b, problem.x_true)
    else:
        arrays = (problem.kv_half, problem._row_coefficients)
    digest = hashlib.sha1()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("change", [
    {"environment": "sync_mpi"},
    {"cluster": "local_cluster"},
    {"n_ranks": 2},
    {"algorithm": "sisc"},
])
def test_derived_scenarios_share_one_instance(change):
    assert SPARSE.derive(**change).build_problem() is SPARSE.build_problem()


@pytest.mark.parametrize("change", [
    {"problem_params__n": 121},
    {"problem_params__eps": 1e-5},
    {"seed": 8},
    {"problem": "chemical", "problem_params": {"nx": 6, "nz": 6}},
])
def test_any_problem_change_builds_a_fresh_instance(change):
    first = SPARSE.build_problem()
    assert SPARSE.derive(**change).build_problem() is not first


def test_a_reregistered_factory_is_never_served_the_old_instance():
    def make_small(n=30):
        return SparseLinearProblem(SparseLinearConfig(n=n, sign_structure="random"))

    def make_other(n=30):
        return SparseLinearProblem(SparseLinearConfig(n=n, seed=5))

    scenario = Scenario(problem="_reuse_problem", problem_kind="sparse_linear")
    register_problem("_reuse_problem")(make_small)
    try:
        old = scenario.build_problem()
        PROBLEM_REGISTRY._items.pop("_reuse_problem")
        register_problem("_reuse_problem")(make_other)
        new = scenario.build_problem()
    finally:
        PROBLEM_REGISTRY._items.pop("_reuse_problem", None)
    assert new is not old
    assert new.config.seed == 5


def test_one_slot_holds_only_the_last_instance():
    other = SPARSE.derive(problem_params__n=90)
    first = weakref.ref(SPARSE.build_problem())
    second = weakref.ref(other.build_problem())
    gc.collect()
    assert first() is None and second() is not None
    SPARSE.build_problem()
    gc.collect()
    assert second() is None


def test_unencodable_parameters_build_every_time():
    scenario = SPARSE.derive(problem_params__n=np.int64(60))
    assert scenario.build_problem() is not scenario.build_problem()


@pytest.mark.parametrize("backend", [
    SimulatedBackend(),
    ThreadedBackend(timeout=60.0),
    ProcessBackend(timeout=60.0),
], ids=["simulated", "threaded", "process"])
@pytest.mark.parametrize("scenario", [SPARSE, CHEMICAL], ids=["sparse", "chemical"])
def test_no_run_writes_the_shared_instance(backend, scenario):
    problem = scenario.build_problem()
    before = _arrays_sha1(problem)
    result = backend.run(scenario)
    assert result.converged
    assert scenario.build_problem() is problem
    assert _arrays_sha1(problem) == before


@pytest.mark.parametrize("scenario", [SPARSE, CHEMICAL], ids=["sparse", "chemical"])
def test_runs_on_the_shared_instance_equal_a_run_on_a_fresh_one(scenario):
    first = _record(SimulatedBackend().run(scenario))
    second = _record(SimulatedBackend().run(scenario))
    seeded = {} if scenario.seed is None else {"seed": scenario.seed}
    fresh = get_problem(scenario.problem, **scenario.problem_params, **seeded)
    assert fresh is not scenario.build_problem()
    reference = _record(SimulatedBackend().run(scenario, make_solver=fresh.make_local))
    assert first["backend_stats"]["events"] > 0
    assert first == second == reference
