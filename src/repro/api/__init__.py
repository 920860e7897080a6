"""The declarative entry point: a run is a value, not a call.

The paper's whole point is executing the *same* AIAC/SISC algorithms
across different execution environments.  This package makes that
comparison first-class:

* :class:`Scenario` -- a frozen description of one run (problem,
  environment, cluster preset, algorithm, options, seed), fully
  expressible as a plain JSON dict via string registries;
* :class:`SimulatedBackend` / :class:`ThreadedBackend` /
  :class:`ProcessBackend` -- three interpreters of the same scenario
  value (discrete-event simulation, real threads, real multi-core OS
  processes), all returning the unified :class:`RunResult`;
* :func:`scenario_matrix` -- a scenario grid, which
  :func:`repro.sweep.run_sweep` runs into JSON-serializable records.

Quickstart::

    from repro.api import Scenario, run_scenario, scenario_matrix
    from repro.sweep import run_sweep

    base = Scenario(problem="sparse_linear",
                    problem_params={"n": 1200, "dominance": 0.9},
                    cluster="ethernet_wan",
                    cluster_params={"n_sites": 3, "speed_scale": 0.003},
                    environment="pm2", n_ranks=6)
    result = run_scenario(base)                      # simulated
    result = run_scenario(base, backend="threaded")  # same value, real threads
    records = run_sweep(scenario_matrix(base,
                                        environment=["sync_mpi", "pm2"],
                                        problem_params__n=[600, 1200]),
                        placement="pool", processes=4).records

Guides: ``docs/quickstart.md`` (first run), ``docs/scenarios.md``
(field/registry reference), ``docs/backends.md`` (execution
semantics), ``docs/benchmarking.md`` (measuring performance).
"""

from repro.api.backends import (
    Backend,
    ProcessBackend,
    SimulatedBackend,
    ThreadedBackend,
    get_backend,
    list_backends,
    register_backend,
    run_scenario,
)
from repro.api.faults import (
    FaultPlan,
    HostSlowdown,
    LinkDegradation,
    MessageDuplication,
    MessageLoss,
    MessageReorder,
    RankCrash,
)
from repro.api.registry import (
    get_balancer,
    get_cluster,
    get_environment,
    get_problem_factory,
    get_worker,
    list_balancers,
    list_clusters,
    list_environments,
    list_problems,
    list_workers,
    register_balancer,
    register_cluster,
    register_problem,
    register_worker,
)
from repro.api.result import RunResult, jsonify
from repro.balancing import BalancingPlan
from repro.api.scenario import Scenario, scenario_matrix

__all__ = [
    "Scenario",
    "scenario_matrix",
    "RunResult",
    "jsonify",
    "BalancingPlan",
    "register_balancer",
    "get_balancer",
    "list_balancers",
    "FaultPlan",
    "LinkDegradation",
    "HostSlowdown",
    "MessageLoss",
    "MessageDuplication",
    "MessageReorder",
    "RankCrash",
    "Backend",
    "SimulatedBackend",
    "ThreadedBackend",
    "ProcessBackend",
    "register_backend",
    "get_backend",
    "list_backends",
    "run_scenario",
    "register_worker",
    "get_worker",
    "list_workers",
    "register_problem",
    "get_problem_factory",
    "list_problems",
    "register_cluster",
    "get_cluster",
    "list_clusters",
    "get_environment",
    "list_environments",
]
