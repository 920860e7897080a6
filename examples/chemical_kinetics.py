#!/usr/bin/env python
"""The non-linear chemical problem end to end (paper Section 4.2).

Solves the two-species advection-diffusion system (stratospheric ozone
photochemistry) with implicit Euler + multisplitting Newton + GMRES:
first sequentially, then in parallel via a declarative
:class:`repro.api.Scenario` with the AIAC worker, driven time step by
time step, on a simulated grid, comparing the two solutions.

Run:  python examples/chemical_kinetics.py
Illustrates:  docs/scenarios.md (problem registry + options derivation)
"""

import numpy as np

from repro.api import Scenario, get_environment, run_scenario
from repro.core.aiac import AIACOptions
from repro.problems import make_chemical_problem


def main() -> None:
    problem = make_chemical_problem(nx=16, nz=24, t_end=540.0)  # 3 time steps
    cfg = problem.config
    print(f"grid {cfg.nx} x {cfg.nz}, {cfg.n_steps} implicit-Euler steps of "
          f"{cfg.dt:.0f} s")
    c0 = problem.initial_state()
    print(f"initial concentrations: c1 max {c0[0].max():.3e}, "
          f"c2 max {c0[1].max():.3e}")

    reference, totals = problem.solve_sequential()
    print(f"sequential: {totals['newton_iterations']} Newton iterations, "
          f"{totals['gmres_iterations']} GMRES iterations total")
    print(f"final: c1 max {reference[0].max():.3e} (photochemical quenching), "
          f"c2 max {reference[1].max():.3e}\n")

    # The parallel run as a value: algorithm="auto" resolves to the AIAC
    # worker, which runs one barrier-separated inner process per time
    # step because the chemical solver has n_steps.
    scenario = Scenario(
        problem="chemical",
        problem_params=dict(nx=16, nz=24, t_end=540.0),
        environment="mpimad",
        cluster="ethernet_wan",
        cluster_params=dict(n_sites=3, speed_scale=0.5, wan_latency=0.018),
        n_ranks=6,
        options=AIACOptions(eps=cfg.inner_eps, stability_count=2,
                            max_iterations=cfg.max_inner_iterations),
    )
    result = run_scenario(scenario)
    parallel = np.concatenate(
        [result.reports[r].solution.reshape(2, -1, cfg.nx)
         for r in sorted(result.reports)],
        axis=1,
    )
    rel = np.max(np.abs(parallel - reference) / (np.abs(reference) + 1.0))
    display = get_environment(scenario.environment).display_name
    print(f"AIAC on {display}: simulated time {result.makespan:.2f} s, "
          f"converged {result.converged}")
    print(f"per-step inner iterations (rank 0): "
          f"{result.reports[0].meta['per_step_iterations']}")
    print(f"max relative difference vs sequential: {rel:.2e}")


if __name__ == "__main__":
    main()
