"""Figures 1 and 2: execution flow of SISC versus AIAC.

Figure 1 of the paper shows a two-processor SISC run: computation
blocks (grey) separated by idle waits (white) caused by the synchronous
communications.  Figure 2 shows the AIAC run: no idle time between
iterations.  We regenerate both as Gantt data from the simulator's
trace: per-rank spans, idle-gap lists and utilisation percentages,
plus an ASCII rendering of the two flows.

Shape to reproduce: the SISC trace has an idle gap between consecutive
iterations on every processor (the faster machine waits the longer),
while the AIAC trace has near-100% compute utilisation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.api import Scenario, SimulatedBackend
from repro.core.aiac import AIACOptions
from repro.experiments.common import run_scenario_case


@dataclass(frozen=True)
class FlowConfig:
    """Two heterogeneous processors on two sites, as in the figures."""

    n: int = 600
    eps: float = 1.0e-6
    stability_count: int = 3
    speed_scale: float = 0.05
    max_iterations: int = 5_000


def _base_scenario(config: FlowConfig) -> Scenario:
    # Two machines of different speeds on two distant sites: the
    # heterogeneity is what makes the idle gaps of Figure 1 visible.
    return Scenario(
        problem="sparse_linear",
        problem_params=dict(n=config.n, eps=config.eps),
        cluster="ethernet_wan",
        cluster_params=dict(
            n_sites=2,
            machine_mix=["duron_800", "p4_2400"],
            speed_scale=config.speed_scale,
        ),
        n_ranks=2,
        options=AIACOptions(
            eps=config.eps,
            stability_count=config.stability_count,
            max_iterations=config.max_iterations,
        ),
        name="figures12",
    )


def run_execution_flows(config: FlowConfig = FlowConfig()) -> Dict[str, object]:
    from repro.obs import Timeline, utilisation_table

    base = _base_scenario(config)
    backend = SimulatedBackend(trace=True)  # the figures are Gantt data
    flows: Dict[str, object] = {}
    for label, env_name in [("figure1_sisc", "sync_mpi"), ("figure2_aiac", "pm2")]:
        result = run_scenario_case(base.derive(environment=env_name), backend)
        trace = result.world.trace
        # The per-rank utilisation rows come from the shared obs layer:
        # the same table `repro report` prints for a traced run on any
        # backend, so the figure and the tracer agree by construction.
        rows = utilisation_table(trace)
        flows[label] = {
            "makespan": result.makespan,
            "utilisation": {row["rank"]: row["utilisation"] for row in rows},
            "idle_gaps": {r: trace.idle_gaps(r, min_gap=1e-6) for r in trace.ranks()},
            "gantt": trace.ascii_gantt(width=72),
            "iterations": {r: rep.iterations for r, rep in result.reports.items()},
            "trace": trace,
            "timeline": Timeline.from_gantt(
                trace, backend="simulated", clock="virtual",
                meta={"figure": label, "makespan": result.makespan},
            ),
            "utilisation_rows": rows,
        }
    return flows


def format_flows(outcome: Dict[str, object]) -> str:
    from repro.obs import format_utilisation

    blocks = []
    for label, title in [
        ("figure1_sisc", "Figure 1 -- execution flow of a SISC algorithm (sync MPI)"),
        ("figure2_aiac", "Figure 2 -- execution flow of an AIAC algorithm (PM2)"),
    ]:
        flow = outcome[label]
        util = ", ".join(
            f"P{r}: {u * 100.0:.1f}%" for r, u in sorted(flow["utilisation"].items())
        )
        gaps = ", ".join(
            f"P{r}: {len(g)} gaps" for r, g in sorted(flow["idle_gaps"].items())
        )
        blocks.append(
            f"{title}\n{flow['gantt']}\n"
            f"{format_utilisation(flow['utilisation_rows'])}\n"
            f"compute utilisation: {util}\nidle gaps: {gaps}\n"
            f"makespan: {flow['makespan']:.3f} s"
        )
    return "\n\n".join(blocks)


__all__ = ["FlowConfig", "run_execution_flows", "format_flows"]
