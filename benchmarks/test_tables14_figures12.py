"""Benchmarks for Table 1 (parameters), Table 4 (thread policies) and
Figures 1-2 (execution flows), plus the qualitative sections 5.2/5.3/6."""

import hashlib

import pytest

from repro.clusters import local_cluster
from repro.envs import (
    aiac_suitability,
    all_environments,
    deployment_ranking,
    validate_deployment,
)
from repro.experiments import FIGURES12, format_spec, run_spec
from repro.experiments.table1 import format_table1, run_table1
from repro.experiments.table4 import format_table4, run_table4

#: SHA-1 over each figure's per-rank idle gaps and utilisation, its
#: ASCII Gantt text and its makespan (Figure 1, then Figure 2).
FIGURES12_PIN = "48ec1341dc817edb54ee26e736291d4ccf86c14c"


def test_table1_parameters_benchmark(benchmark):
    outcome = benchmark(run_table1)
    checks = outcome["checks"]
    assert checks["off_diagonals"] == 30
    assert checks["spectral_radius_below_one"]
    assert checks["paper_n_steps"] == 12
    benchmark.extra_info["checks"] = {
        k: (bool(v) if isinstance(v, bool) else v) for k, v in checks.items()
    }
    print()
    print(format_table1(outcome))


def test_table4_thread_policies_benchmark(benchmark):
    outcome = benchmark(run_table4)
    assert outcome["all_match"]
    benchmark.extra_info["all_rows_match_paper"] = True
    print()
    print(format_table4(outcome))


def test_figures12_execution_flows_benchmark(benchmark):
    outcome = benchmark.pedantic(run_spec, args=(FIGURES12,), rounds=1, iterations=1)
    assert not outcome.false_claims, outcome.false_claims
    sisc, aiac = outcome.rows.values()
    pinned = [
        (
            {r: [(float(a), float(b)) for a, b in flow["trace"].idle_gaps(r, min_gap=1e-6)]
             for r in flow["trace"].ranks()},
            {r: float(u) for r, u in enumerate(flow["utilisation"])},
            flow["trace"].ascii_gantt(width=72),
            float(flow["makespan"]),
        )
        for flow in (sisc, aiac)
    ]
    assert hashlib.sha1(repr(pinned).encode()).hexdigest() == FIGURES12_PIN
    benchmark.extra_info["utilisation"] = {
        "sisc": [round(u, 3) for u in sisc["utilisation"]],
        "aiac": [round(u, 3) for u in aiac["utilisation"]],
    }
    benchmark.extra_info["claims"] = outcome.verdicts
    print()
    print(format_spec(outcome))


def test_section53_deployment_benchmark(benchmark):
    """Section 5.3: OmniORB easiest to deploy across constrained grids."""
    def run():
        cluster = local_cluster(n_hosts=9)
        return {
            env.name: validate_deployment(env, cluster) for env in all_environments()
        }

    plans = benchmark(run)
    assert all(plan.ok for plan in plans.values())
    benchmark.extra_info["effort_scores"] = {
        name: plan.effort_score for name, plan in plans.items()
    }


def test_section6_feature_checklist_benchmark(benchmark):
    """Section 6: the three multi-threaded environments qualify."""
    verdicts = benchmark(
        lambda: {env.name: aiac_suitability(env) for env in all_environments()}
    )
    assert verdicts["pm2"]["suitable"]
    assert verdicts["mpimad"]["suitable"]
    assert verdicts["omniorb"]["suitable"]
    assert not verdicts["sync_mpi"]["suitable"]
    benchmark.extra_info["verdicts"] = {
        k: {"suitable": v["suitable"], "missing": v["missing"]}
        for k, v in verdicts.items()
    }
