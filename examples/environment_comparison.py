#!/usr/bin/env python
"""Regenerate the paper's comparison tables and figures in one go.

Runs the specs of Table 2 (sparse linear problem), Table 3
(non-linear problem on two clusters) and Figures 1-2 (execution
flows), each with the verdict on the paper's shape claims, then
Table 4 (thread policies) and the qualitative sections (deployment
validation, AIAC feature checklist).

Run:  python examples/environment_comparison.py        (~5 s)
Illustrates:  docs/backends.md (simulated semantics at paper scale)
"""

from repro.clusters import local_cluster
from repro.envs import all_environments, aiac_suitability, validate_deployment
from repro.experiments import (
    FIGURES12,
    TABLE2,
    TABLE3,
    format_spec,
    format_table4,
    run_spec,
    run_table4,
)


def main() -> None:
    print(format_spec(run_spec(TABLE2)))
    print()
    print(format_spec(run_spec(TABLE3)))
    print()
    print(format_table4(run_table4()))
    print()
    print(format_spec(run_spec(FIGURES12)))
    print()

    print("Section 5.3 -- deployment effort on the local cluster:")
    cluster = local_cluster(n_hosts=9)
    for env in all_environments():
        plan = validate_deployment(env, cluster)
        print(f"  {env.display_name:<16s} ok={plan.ok} effort={plan.effort_score} "
              f"daemons={list(plan.required_daemons)} "
              f"manual_steps={len(plan.manual_steps)}")
    print()
    print("Section 6 -- AIAC suitability checklist:")
    for env in all_environments():
        verdict = aiac_suitability(env)
        missing = ", ".join(verdict["missing"]) or "none"
        print(f"  {env.display_name:<16s} suitable={verdict['suitable']} "
              f"missing: {missing}")


if __name__ == "__main__":
    main()
