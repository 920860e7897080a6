"""Table 3: execution times for the non-linear (chemical) problem.

Paper values (averages of ten executions):

    Ethernet cluster                Ethernet + ADSL cluster
    --------------------------      --------------------------
    sync MPI        2510  (1)       sync MPI        3042  (1)
    async PM2        563  (4.46)    async PM2        612  (4.97)
    async MPI/Mad    565  (4.44)    async MPI/Mad    605  (5.03)
    async OmniORB    595  (4.22)    async OmniORB    664  (4.58)

Shape to reproduce: the asynchronous versions crush the synchronous
one (ratios >> those of the linear problem, because the Newton process
"actually continues to evolve between data receptions"); PM2 and
MPI/Mad are neck and neck; OmniORB trails by 5-10% (per-message ORB
cost on the neighbour exchange).

Known deviation (documented in EXPERIMENTS.md): the paper's ADSL
ratios are *slightly better* than its Ethernet ones; ours are lower,
because at 4 scaled time steps the per-step fixed costs that cross the
ADSL link (convergence-detection messages, final halo exchange,
barriers) are not amortised the way the paper's 12 full-size steps
amortise them.  The first-order claims -- async wins by a large
factor on both clusters, and everything slows down behind ADSL --
hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.api import Scenario
from repro.core.aiac import AIACOptions
from repro.envs import all_environments
from repro.experiments.common import (
    EnvironmentRow,
    render_table,
    run_scenario_case,
    speed_ratios,
)

PAPER_TABLE3 = {
    "Ethernet": {
        "sync MPI": (2510.0, 1.0),
        "async PM2": (563.0, 4.46),
        "async MPI/Mad": (565.0, 4.44),
        "async OmniOrb 4": (595.0, 4.22),
    },
    "Ethernet+ADSL": {
        "sync MPI": (3042.0, 1.0),
        "async PM2": (612.0, 4.97),
        "async MPI/Mad": (605.0, 5.03),
        "async OmniOrb 4": (664.0, 4.58),
    },
}


@dataclass(frozen=True)
class Table3Config:
    """Scaled-down configuration for the chemical-problem comparison."""

    # The grid keeps the paper's strong vertical diffusion coupling
    # (dt*Kv/dz^2 >> 0.1 needs a fine dz), which is what makes the
    # inner multisplitting process iterate long enough per time step
    # for the synchronisation costs to matter -- see EXPERIMENTS.md.
    nx: int = 40
    nz: int = 48
    t_end: float = 720.0          # 4 time steps of 180 s
    n_ranks: int = 12
    n_sites: int = 3
    speed_scale: float = 1.0
    wan_latency: float = 1.8e-2
    stability_count: int = 2
    max_inner_iterations: int = 6_000
    clusters: tuple = ("Ethernet", "Ethernet+ADSL")


def _cluster_spec(name: str, config: Table3Config):
    """(registry name, builder params) for one of the paper's clusters."""
    if name == "Ethernet":
        return "ethernet_wan", dict(
            n_sites=config.n_sites,
            speed_scale=config.speed_scale, wan_latency=config.wan_latency,
        )
    if name == "Ethernet+ADSL":
        return "ethernet_adsl", dict(
            n_sites=config.n_sites + 1,
            speed_scale=config.speed_scale, wan_latency=config.wan_latency,
        )
    raise ValueError(f"unknown cluster {name!r}")


def run_table3(config: Table3Config = Table3Config()) -> Dict[str, object]:
    params = dict(nx=config.nx, nz=config.nz, t_end=config.t_end)
    # The instance every run below shares (Scenario.build_problem).
    problem = Scenario(problem="chemical", problem_params=params).build_problem()
    c_reference, _ = problem.solve_sequential()
    opts = AIACOptions(
        eps=problem.config.inner_eps,
        stability_count=config.stability_count,
        max_iterations=config.max_inner_iterations,
    )
    per_cluster: Dict[str, List[EnvironmentRow]] = {}
    for cluster_name in config.clusters:
        cluster, cluster_params = _cluster_spec(cluster_name, config)
        base = Scenario(
            problem="chemical",
            problem_params=params,
            cluster=cluster,
            cluster_params=cluster_params,
            n_ranks=config.n_ranks,
            options=opts,
            name=f"table3-{cluster_name}",
        )
        rows: List[EnvironmentRow] = []
        for env in all_environments():
            result = run_scenario_case(base.derive(environment=env.name))
            solution = np.concatenate(
                [
                    result.reports[r].solution.reshape(2, -1, config.nx)
                    for r in sorted(result.reports)
                ],
                axis=1,
            )
            error = float(
                np.max(np.abs(solution - c_reference) / (np.abs(c_reference) + 1.0))
            )
            rows.append(
                EnvironmentRow(
                    version=env.display_name,
                    execution_time=result.makespan,
                    speed_ratio=1.0,
                    converged=result.converged,
                    iterations=result.max_iterations,
                    solution_error=error,
                )
            )
        speed_ratios(rows)
        per_cluster[cluster_name] = rows
    return {"clusters": per_cluster, "config": config, "paper": PAPER_TABLE3}


def format_table3(outcome: Dict[str, object]) -> str:
    blocks = []
    for cluster_name, rows in outcome["clusters"].items():
        paper = outcome["paper"][cluster_name]
        table_rows = [
            [
                r.version,
                r.execution_time,
                r.speed_ratio,
                paper[r.version][0],
                paper[r.version][1],
                "yes" if r.converged else "NO",
                f"{r.solution_error:.1e}",
            ]
            for r in rows
        ]
        blocks.append(
            render_table(
                ["Version", "time (sim s)", "ratio", "paper time (s)",
                 "paper ratio", "converged", "error"],
                table_rows,
                title=f"Table 3 -- non-linear problem, {cluster_name} cluster",
            )
        )
    return "\n\n".join(blocks)


__all__ = ["Table3Config", "run_table3", "format_table3", "PAPER_TABLE3"]
