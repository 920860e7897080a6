"""Figure 3: execution times against the number of processors.

The paper's last experiment runs the non-linear problem (fixed size
1000 x 1000) on the local heterogeneous cluster for 10 to 40 machines
and plots, on a log scale, the times of sync MPI and the three
asynchronous environments.

Shape to reproduce:

* the synchronous curve sits far above the asynchronous ones;
* PM2 and MPI/Mad almost coincide; OmniORB is slightly higher
  ("designed for distant client/server communications", so slightly
  disadvantaged on a fast local network);
* all curves decrease with more processors and *converge at the
  highest count*, where the per-host work becomes too small -- "the
  limit of the parallel efficiency is reached", showing asynchronism
  reaches the best time with fewer processors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.api import Scenario
from repro.core.aiac import AIACOptions
from repro.envs import all_environments
from repro.experiments.common import DEFAULT_BACKEND, render_table
from repro.problems.chemical import ChemicalConfig, ChemicalProblem
from repro.sweep import run_sweep


@dataclass(frozen=True)
class Figure3Config:
    """Scaled-down sweep (fixed problem size, varying processors)."""

    nx: int = 20
    nz: int = 40               # divisible strips for every processor count
    t_end: float = 360.0       # 2 time steps
    processor_counts: Tuple[int, ...] = (4, 8, 12, 20, 40)
    speed_scale: float = 0.1
    stability_count: int = 2
    processes: int = 1         # worker processes for the scenario sweep


def figure3_scenarios(config: Figure3Config = Figure3Config()) -> List[Scenario]:
    """The full (environment x processor count) scenario grid."""
    problem_config = ChemicalConfig(nx=config.nx, nz=config.nz, t_end=config.t_end)
    opts = AIACOptions(
        eps=problem_config.inner_eps,
        stability_count=config.stability_count,
        max_iterations=problem_config.max_inner_iterations,
    )
    return [
        Scenario(
            problem="chemical",
            problem_params=dict(nx=config.nx, nz=config.nz, t_end=config.t_end),
            environment=env.name,
            cluster="local_cluster",
            cluster_params=dict(speed_scale=config.speed_scale),
            n_ranks=n_ranks,
            options=opts,
            name=f"figure3-{env.name}-{n_ranks}",
        )
        for env in all_environments()
        for n_ranks in config.processor_counts
    ]


def run_figure3(config: Figure3Config = Figure3Config()) -> Dict[str, object]:
    scenarios = figure3_scenarios(config)
    records = run_sweep(
        scenarios, DEFAULT_BACKEND,
        placement="pool" if config.processes > 1 else "local",
        processes=config.processes,
    ).records
    failures = [r for r in records if "error" in r]
    if failures:
        raise RuntimeError(
            f"{len(failures)} figure-3 scenario(s) failed, first: "
            f"{failures[0]['scenario'].get('name')}: {failures[0]['error']}"
        )
    labels = [env.display_name for env in all_environments()]
    per_env = len(config.processor_counts)
    series: Dict[str, List[float]] = {
        label: [r["makespan"] for r in records[i * per_env:(i + 1) * per_env]]
        for i, label in enumerate(labels)
    }
    return {
        "processor_counts": list(config.processor_counts),
        "series": series,
        "config": config,
    }


def format_figure3(outcome: Dict[str, object]) -> str:
    counts = outcome["processor_counts"]
    series = outcome["series"]
    rows = [
        [label] + [f"{t:.3f}" for t in times] for label, times in series.items()
    ]
    table = render_table(
        ["Version"] + [f"{n} procs" for n in counts],
        rows,
        title="Figure 3 -- execution times (simulated s) vs number of processors, "
        "local heterogeneous cluster",
    )
    # A coarse log-scale ASCII plot, one row per sampled time.
    lines = [table, "", "log-scale view (each column = one processor count):"]
    all_times = [t for times in series.values() for t in times]
    lo, hi = min(all_times), max(all_times)
    for label, times in series.items():
        marks = []
        for t in times:
            if hi > lo:
                level = int(round(9 * (np.log(t) - np.log(lo)) / (np.log(hi) - np.log(lo))))
            else:
                level = 0
            marks.append(str(level))
        lines.append(f"  {label:<16s} {' '.join(marks)}   (9=slowest, 0=fastest)")
    return "\n".join(lines)


__all__ = ["Figure3Config", "figure3_scenarios", "run_figure3", "format_figure3"]
