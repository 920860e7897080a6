"""repro -- reproduction of Bahi, Contassot-Vivier & Couturier (2006):
"Performance comparison of parallel programming environments for
implementing AIAC algorithms".

Quickstart (declarative API -- one scenario value, any backend)::

    from repro.api import Scenario, run_scenario

    scenario = Scenario(
        problem="sparse_linear",
        problem_params={"n": 1200, "eps": 1e-6},
        environment="pm2",
        cluster="ethernet_wan",
        cluster_params={"n_sites": 3, "speed_scale": 0.003},
        n_ranks=8,
    )
    result = run_scenario(scenario)                      # simulated grid
    result = run_scenario(scenario, backend="threaded")  # real threads
    print(result.makespan, result.converged)

See DESIGN.md at the repository root for the Scenario/Backend
architecture and the module inventory, and ROADMAP.md for the open
items.
"""

from repro.core import (
    AIACOptions,
    WorkerReport,
    aiac_stepped_worker,
    aiac_worker,
    sisc_stepped_worker,
    sisc_worker,
)
from repro.api import (
    RunResult,
    Scenario,
    SimulatedBackend,
    ThreadedBackend,
    get_backend,
    run_scenario,
    scenario_matrix,
)

__version__ = "1.2.0"

__all__ = [
    "AIACOptions",
    "RunResult",
    "WorkerReport",
    "aiac_worker",
    "aiac_stepped_worker",
    "sisc_worker",
    "sisc_stepped_worker",
    "Scenario",
    "SimulatedBackend",
    "ThreadedBackend",
    "get_backend",
    "run_scenario",
    "scenario_matrix",
    "__version__",
]
