#!/usr/bin/env python
"""AIAC with and without dynamic load balancing, an extension of the paper.

Section 6 of the paper only points to load balancing; coupling it with
asynchronism is the authors' companion IPDPS'03 work.

A heterogeneous cluster (the paper's Duron 800 / P4 1.7 / P4 2.4 mix)
runs the same asynchronous sparse-linear scenario twice:

* ``balancer=none`` -- every rank keeps its static equal-size block,
  so the Durons pace the whole run;
* ``balancer=diffusion`` -- ranks measure their own throughput and
  migrate boundary rows to faster neighbours mid-run, through the
  in-band two-phase handoff of :mod:`repro.balancing`.

Both runs share one seed and the identical machinery (migratable
solver, self-describing payloads), so the makespan difference is the
effect of migration alone.  A third run adds a host-slowdown fault
window to show diffusion absorbing a *transient* perturbation, not
just static heterogeneity.

Run:  python examples/load_balancing.py
Illustrates:  docs/balancing.md
"""

from repro.api import BalancingPlan, Scenario, run_scenario


def describe(label, result) -> None:
    progress = result.per_rank
    rows = [progress[r].rows for r in sorted(progress)]
    iters = [progress[r].iterations for r in sorted(progress)]
    balancing = result.balancing
    print(f"{label}:")
    print(f"  makespan {result.makespan:8.3f} virtual s   "
          f"converged {result.converged}")
    print(f"  per-rank iterations {iters}")
    print(f"  final row blocks    {[hi - lo for lo, hi in rows]}")
    if balancing.get("migrations_out"):
        print(f"  migrations {balancing['migrations_out']} "
              f"({balancing['rows_out']} rows moved)")
    print()


def main() -> None:
    base = Scenario(
        problem="sparse_linear",
        problem_params={"n": 400, "dominance": 0.9},
        environment="pm2",
        cluster="local_cluster",            # interleaved Duron/P4 mix
        cluster_params={"speed_scale": 4e-4},
        n_ranks=6,
        seed=3,
    )

    static = run_scenario(base.derive(balancer=BalancingPlan(policy="none")))
    describe("static equal blocks (balancer=none)", static)

    balanced = run_scenario(
        base.derive(balancer=BalancingPlan(policy="diffusion", period=10))
    )
    describe("neighbour diffusion (balancer=diffusion)", balanced)

    win = 1.0 - balanced.makespan / static.makespan
    print(f"load balancing wins {win:.1%} of the static makespan\n")

    # A transient perturbation instead of static heterogeneity: one
    # fast host is throttled to 30% for part of the run (a FaultPlan
    # host-slowdown window); diffusion shifts rows away and back.
    perturbed = base.derive(
        cluster="uniform_cluster",
        cluster_params={"speed": 30000.0},
        faults={
            "seed": 11,
            "events": [{
                "kind": "host_slowdown",
                "start": 0.5, "end": 8.0, "factor": 0.2,
                "hosts": ["node2"],
            }],
        },
    )
    slowed = run_scenario(
        perturbed.derive(balancer=BalancingPlan(policy="none"))
    )
    absorbed = run_scenario(
        perturbed.derive(
            balancer=BalancingPlan(policy="diffusion", period=5, threshold=0.05)
        )
    )
    describe("host-slowdown window, no balancing", slowed)
    describe("host-slowdown window, diffusion", absorbed)
    win = 1.0 - absorbed.makespan / slowed.makespan
    print(f"diffusion absorbs {win:.1%} of the perturbation's cost")


if __name__ == "__main__":
    main()
