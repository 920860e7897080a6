"""End-to-end integration tests: AIAC and SISC workers on the simulator."""

import numpy as np
import pytest

from repro.api import Scenario, SimulatedBackend
from repro.core.aiac import AIACOptions
from repro.problems.chemical import ChemicalConfig, ChemicalProblem
from repro.problems.sparse_linear import SparseLinearConfig, SparseLinearProblem

LINEAR_PARAMS = dict(n=240, dominance=0.7, eps=1e-8, sign_structure="negative")
LINEAR = SparseLinearProblem(SparseLinearConfig(**LINEAR_PARAMS))
CHEMICAL_PARAMS = dict(nx=8, nz=12, t_end=360.0)
CHEMICAL = ChemicalProblem(ChemicalConfig(**CHEMICAL_PARAMS))
CHEMICAL_REFERENCE, _ = CHEMICAL.solve_sequential()


def _linear_opts(**kw):
    defaults = dict(eps=1e-8, stability_count=4, max_iterations=8000)
    defaults.update(kw)
    return AIACOptions(**defaults)


def _scenario(environment, worker, opts, n_ranks=4, problem=LINEAR, **cluster_params):
    """``problem`` on a uniform cluster of ``n_ranks`` hosts (speed 1e6
    unless overridden), with an explicit worker and options."""
    chemical = problem is CHEMICAL
    return Scenario(
        problem="chemical" if chemical else "sparse_linear",
        problem_params=CHEMICAL_PARAMS if chemical else LINEAR_PARAMS,
        environment=environment,
        algorithm=worker,
        n_ranks=n_ranks,
        cluster_params={"speed": 1e6, **cluster_params},
        options=opts,
    )


def _run(environment, worker, opts, n_ranks=4, problem=LINEAR, timeline=False,
         **cluster_params):
    scenario = _scenario(environment, worker, opts, n_ranks, problem, **cluster_params)
    return SimulatedBackend(timeline=timeline).run(scenario, make_solver=problem.make_local)


def _chemical_solution(result):
    return np.concatenate(
        [result.reports[r].solution.reshape(2, -1, 8) for r in sorted(result.reports)],
        axis=1,
    )


# ----------------------------------------------------------------------
# sparse linear problem
# ----------------------------------------------------------------------
def test_sisc_matches_sequential_iteration_count():
    """SISC performs exactly the same iterations as the sequential run."""
    seq = LINEAR.solve_sequential(eps=1e-8)
    result = _run("sync_mpi", "sisc", _linear_opts())
    assert result.converged
    counts = {r.iterations for r in result.reports.values()}
    assert counts == {seq.iterations}
    assert LINEAR.solution_error(result.solution()) < 1e-5


@pytest.mark.parametrize("env_name", ["pm2", "mpimad", "omniorb"])
def test_aiac_converges_to_true_solution(env_name):
    # Host speed chosen so one local iteration takes longer than the
    # receive-path handling of one message -- the regime the paper's
    # full-size problems live in (see the repro.experiments docstring);
    # outside it, receivers with a single dedicated receiving thread
    # (MPI/Mad) would be flooded.
    result = _run(env_name, "aiac", _linear_opts(), speed=1e5)
    assert result.converged
    assert LINEAR.solution_error(result.solution()) < 1e-4


def test_aiac_single_rank_degenerates_to_sequential():
    seq = LINEAR.solve_sequential(eps=1e-8)
    result = _run("pm2", "aiac", _linear_opts(stability_count=1), n_ranks=1)
    assert result.converged
    assert np.allclose(result.solution(), seq.x, atol=1e-6)


def test_aiac_nondeterministic_iteration_counts_but_same_answer():
    """Different environments do different numbers of iterations but all
    land on the same solution -- the essence of AIAC robustness."""
    solutions = {}
    iteration_counts = {}
    for env_name in ("pm2", "omniorb"):
        result = _run(env_name, "aiac", _linear_opts())
        solutions[env_name] = result.solution()
        iteration_counts[env_name] = result.total_iterations
    assert np.allclose(solutions["pm2"], solutions["omniorb"], atol=1e-4)


def test_aiac_reports_protocol_counters():
    result = _run("pm2", "aiac", _linear_opts())
    report = result.reports[1]
    assert report.sends > 0
    assert report.elapsed > 0
    assert report.stopped_by_coordinator
    # All non-coordinator ranks communicated state changes.
    assert report.state_messages >= 1


def test_skip_send_rule_engages_under_slow_network():
    result = _run(
        "pm2", "aiac", _linear_opts(max_iterations=600),
        speed=1e7, bandwidth=1e4, latency=5e-3,
    )
    skipped = sum(r.skipped_sends for r in result.reports.values())
    assert skipped > 0  # fast iterations over a slow net must skip sends


def test_aiac_iteration_cap_respected_when_not_converging():
    # An unreachable threshold: runs to the cap and reports divergence.
    result = _run("pm2", "aiac", _linear_opts(eps=1e-300, max_iterations=50))
    assert not result.converged
    assert result.max_iterations == 50


def test_sisc_iteration_cap_respected():
    result = _run("sync_mpi", "sisc", _linear_opts(eps=1e-300, max_iterations=7))
    assert not result.converged
    assert result.max_iterations == 7


# ----------------------------------------------------------------------
# chemical problem (the same workers, driven step by step)
# ----------------------------------------------------------------------
def test_sisc_stepped_matches_sequential():
    opts = AIACOptions(eps=CHEMICAL.config.inner_eps, stability_count=2,
                       max_iterations=3000)
    result = _run("sync_mpi", "sisc", opts, n_ranks=3, problem=CHEMICAL)
    assert result.converged
    rel = np.max(
        np.abs(_chemical_solution(result) - CHEMICAL_REFERENCE)
        / (np.abs(CHEMICAL_REFERENCE) + 1.0)
    )
    assert rel < 1e-6


@pytest.mark.parametrize("env_name", ["pm2", "mpimad", "omniorb"])
def test_aiac_stepped_matches_sequential(env_name):
    opts = AIACOptions(eps=CHEMICAL.config.inner_eps, stability_count=2,
                       max_iterations=3000)
    result = _run(env_name, "aiac", opts, n_ranks=3, problem=CHEMICAL)
    assert result.converged
    rel = np.max(
        np.abs(_chemical_solution(result) - CHEMICAL_REFERENCE)
        / (np.abs(CHEMICAL_REFERENCE) + 1.0)
    )
    assert rel < 1e-4


def test_stepped_worker_reports_per_step_iterations():
    opts = AIACOptions(eps=CHEMICAL.config.inner_eps, stability_count=2,
                       max_iterations=3000)
    result = _run("pm2", "aiac", opts, n_ranks=3, problem=CHEMICAL)
    per_step = result.reports[0].meta["per_step_iterations"]
    assert len(per_step) == CHEMICAL.config.n_steps
    assert all(k >= 1 for k in per_step)


def test_stepped_worker_sums_its_send_counters_over_the_steps():
    """Each step's skip-send gate and detector count into the report:
    every offer is a send or a skip, and data sends + state reports +
    stops + halo exchanges are every message of the run."""
    scenario = Scenario(
        problem="chemical", problem_params={"nx": 10, "nz": 9, "t_end": 360.0},
        environment="pm2", n_ranks=3, seed=1,
    )
    result = SimulatedBackend().run(scenario)
    reports = result.reports
    receivers = {0: 1, 1: 2, 2: 1}  # a strip's neighbours
    for rank, report in reports.items():
        assert report.sends > 0
        assert report.sends + report.skipped_sends == receivers[rank] * report.iterations
    assert reports[0].state_messages == 0 < reports[1].state_messages  # rank 0 coordinates
    n_steps = len(reports[0].meta["per_step_iterations"])
    stops, halo = 2 * n_steps, 4 * (n_steps + 1)
    data_and_state = sum(r.sends + r.state_messages for r in reports.values())
    assert data_and_state + stops + halo == result.backend_stats["messages_sent"] == 204


class _Delegating:
    """Forwards every attribute to the wrapped solver, as a tracing
    wrapper does; it is not a ``SteppedLocalSolver`` itself."""

    def __init__(self, solver):
        self._solver = solver

    def __getattr__(self, name):
        return getattr(self._solver, name)


def test_a_delegating_solver_proxy_keeps_the_step_loop():
    """The step loop follows the solver's ``n_steps``, not its class,
    so a proxy around a chemical strip runs exactly the plain run."""
    scenario = Scenario(
        problem="chemical", problem_params={"nx": 6, "nz": 6, "t_end": 360.0},
        environment="pm2", n_ranks=2,
    )
    problem = scenario.build_problem()
    proxied = SimulatedBackend().run(
        scenario, make_solver=lambda r, s: _Delegating(problem.make_local(r, s))
    )
    plain = SimulatedBackend().run(scenario)
    records = [result.to_record(include_solution=True) for result in (proxied, plain)]
    for record in records:
        record.pop("elapsed")
    assert records[0] == records[1]
    assert len(proxied.reports[0].meta["per_step_iterations"]) == 2


# ----------------------------------------------------------------------
# API guards
# ----------------------------------------------------------------------
def test_simulate_validates_inputs():
    opts = _linear_opts()
    with pytest.raises(KeyError, match="nope"):
        _scenario("pm2", "nope", opts)
    with pytest.raises(ValueError):
        _scenario("pm2", "aiac", opts, n_ranks=0)
    with pytest.raises(ValueError, match="hosts"):
        SimulatedBackend().run(_scenario("pm2", "aiac", opts, n_ranks=10, n_hosts=4))


def test_run_result_stats_structure():
    result = _run("pm2", "aiac", _linear_opts(), n_ranks=2)
    assert result.backend_stats["policy"] == "pm2"
    assert result.converged is True
    assert set(result.reports) == {0, 1}


def test_trace_records_compute_spans_for_all_ranks():
    result = _run("pm2", "aiac", _linear_opts(), n_ranks=3, timeline=True)
    trace = result.world.trace
    for rank in range(3):
        assert trace.kind_time(rank, "compute") > 0
        assert trace.check_no_overlap(rank)
