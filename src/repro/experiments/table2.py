"""Table 2: execution times for the sparse linear problem.

Paper values (Ethernet-WAN cluster, average of ten executions):

    ==================  =========  ===========
    Version             time (s)   speed ratio
    ==================  =========  ===========
    synchronous MPI       914         1
    asynchronous PM2      551         1.66
    asynchronous MPI/Mad  672         1.36
    asynchronous OmniORB  507         1.80
    ==================  =========  ===========

Our reproduction runs a scaled instance (Section "Calibration" of
EXPERIMENTS.md): ``n`` unknowns instead of 2 000 000 and host speeds
rescaled so one local iteration costs about as long as one inter-site
message wave -- the regime of the paper's full-size run.  The *shape*
to reproduce: every asynchronous version beats the synchronous one;
OmniORB (per-peer sending threads + on-demand reception) leads; PM2
is close behind; MPI/Mad (single dedicated sending and receiving
thread) trails the asynchronous pack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.api import Scenario
from repro.core.aiac import AIACOptions
from repro.envs import all_environments
from repro.experiments.common import (
    EnvironmentRow,
    render_table,
    run_scenario_case,
    speed_ratios,
)

#: Paper reference values for EXPERIMENTS.md comparisons.
PAPER_TABLE2 = {
    "sync MPI": (914.0, 1.0),
    "async PM2": (551.0, 1.66),
    "async MPI/Mad": (672.0, 1.36),
    "async OmniOrb 4": (507.0, 1.80),
}


@dataclass(frozen=True)
class Table2Config:
    """Scaled-down experiment configuration (see module docstring)."""

    n: int = 2_400
    n_ranks: int = 12
    n_sites: int = 3
    eps: float = 1.0e-6
    stability_count: int = 10
    max_iterations: int = 20_000
    speed_scale: float = 0.003
    wan_latency: float = 1.5e-2
    dominance: float = 0.90
    seed: int = 12004


def run_table2(config: Table2Config = Table2Config()) -> Dict[str, object]:
    """Run all four environments; returns rows + the problem instance."""
    opts = AIACOptions(
        eps=config.eps,
        stability_count=config.stability_count,
        max_iterations=config.max_iterations,
    )
    base = Scenario(
        problem="sparse_linear",
        problem_params=dict(
            n=config.n, eps=config.eps, dominance=config.dominance, seed=config.seed
        ),
        cluster="ethernet_wan",
        cluster_params=dict(
            n_sites=config.n_sites,
            speed_scale=config.speed_scale,
            wan_latency=config.wan_latency,
        ),
        n_ranks=config.n_ranks,
        options=opts,
        name="table2",
    )
    problem = base.build_problem()  # the instance every environment's run shares
    rows: List[EnvironmentRow] = []
    for env in all_environments():
        result = run_scenario_case(base.derive(environment=env.name))
        rows.append(
            EnvironmentRow(
                version=env.display_name,
                execution_time=result.makespan,
                speed_ratio=1.0,
                converged=result.converged,
                iterations=result.max_iterations,
                solution_error=problem.solution_error(result.solution()),
                extra={"skipped_sends": result.stats()["skipped_sends"]},
            )
        )
    speed_ratios(rows)
    return {"rows": rows, "config": config, "paper": PAPER_TABLE2}


def format_table2(outcome: Dict[str, object]) -> str:
    rows = outcome["rows"]
    paper = outcome["paper"]
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
    return render_table(
        ["Version", "time (sim s)", "ratio", "paper time (s)", "paper ratio", "converged", "error"],
        table_rows,
        title="Table 2 -- sparse linear problem, Ethernet-WAN cluster",
    )


__all__ = ["Table2Config", "run_table2", "format_table2", "PAPER_TABLE2"]
