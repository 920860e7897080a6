#!/usr/bin/env python
"""Declarative sweeps: a grid of runs as plain data.

Builds an (environment x problem size) scenario grid from one base
value, fans it out over a process pool with :func:`repro.sweep.run_sweep`,
and prints the resulting records -- then re-runs one scenario of the
grid, unchanged, on the real-thread backend.  This is the paper's
comparison methodology as a data structure: scenarios round-trip
through plain dicts, so the same grid could be loaded from a JSON file
(see the ``repro`` console command).

Run:  python examples/scenario_sweep.py
Illustrates:  docs/scenarios.md
"""

import json

from repro.api import Scenario, run_scenario, scenario_matrix
from repro.core.aiac import AIACOptions
from repro.sweep import run_sweep


def main() -> None:
    base = Scenario(
        problem="sparse_linear",
        problem_params=dict(n=600, dominance=0.9, eps=1e-6),
        cluster="ethernet_wan",
        cluster_params=dict(n_sites=3, speed_scale=0.003, wan_latency=0.018),
        n_ranks=6,
        options=AIACOptions(eps=1e-6, stability_count=10, max_iterations=20_000),
    )
    grid = scenario_matrix(
        base,
        environment=["sync_mpi", "pm2", "mpimad", "omniorb"],
        problem_params__n=[600, 1200],
    )
    print(f"sweeping {len(grid)} scenarios over 2 processes...")
    records = run_sweep(grid, placement="pool", processes=2).records
    for record in records:
        scenario = record["scenario"]
        print(f"  {scenario['environment']:<9s} n={scenario['problem_params']['n']:<5d} "
              f"simulated {record['makespan']:8.2f} s  "
              f"iterations {record['max_iterations']:5d}  "
              f"converged {record['converged']}")

    # Records are plain JSON -- ready for files, queues or dashboards.
    print(f"\nrecord JSON size: {len(json.dumps(records))} bytes")

    # The same declarative value, interpreted by the other backend.
    scenario = grid[1].derive(problem_params__n=200,
                              problem_params__sign_structure="random",
                              n_ranks=3)
    result = run_scenario(scenario, backend="threaded")
    print(f"\nsame scenario on real threads: wall {result.makespan:.3f} s, "
          f"converged {result.converged} "
          f"(backend={result.backend!r}, same result type)")


if __name__ == "__main__":
    main()
