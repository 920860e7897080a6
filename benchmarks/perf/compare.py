#!/usr/bin/env python3
"""A/B table over ``results.json`` files written by ``run.py --out``.

::

    python3 benchmarks/perf/compare.py --parent p1/results.json p2/results.json ... \\
                                       --change c1/results.json c2/results.json ...

One row per (workload, end-to-end metric): each side's median and
quartiles, the ratio *with its base*, and a verdict against the bound
fixed in ``BENCHMARK.json``:

* ``worse``       -- the change's median is worse than the parent's by more
  than the bound;
* ``better``      -- every pairing rule of the claim is met: the change wins
  at least 9/10 of the pairs (files are paired in the order given) and the
  medians differ by more than the parent's own inter-quartile spread;
* ``within bound`` -- neither;
* ``unresolved``  -- the parent's own inter-quartile spread exceeds the
  bound, so the table cannot tell (unless every run of the change beats
  every run of the parent, which still reads ``better``).

Per-layer medians of both sides follow each workload's rows, so a move in
an end-to-end number can be traced to the layer that caused it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

import env


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single value stands for all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float
) -> Tuple[str, str]:
    """(verdict, pairs won) for one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    worse_by = sign * (c_med - p_med) / p_med
    spread = (p_q3 - p_q1) / p_med
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    ties = sum(1 for p, c in pairs if c == p)
    won = f"{wins}/{len(pairs) - ties}"
    dominates = all(sign * (c - p) < 0 for p in parent for c in change)
    if spread > bound:
        return ("better" if dominates else "unresolved"), won
    if worse_by > bound:
        return "worse", won
    decided = len(pairs) - ties
    if decided and wins >= 0.9 * decided and abs(c_med - p_med) > (p_q3 - p_q1) and worse_by < 0:
        return "better", won
    return "within bound", won


def load(paths: Sequence[str]) -> List[Dict[str, Any]]:
    payloads = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            payloads.append(json.load(handle))
    return payloads


def series(payloads: List[Dict[str, Any]], workload: str, group: str, metric: str) -> List[float]:
    return [
        p["workloads"][workload][group][metric]
        for p in payloads
        if metric in p["workloads"].get(workload, {}).get(group, {})
    ]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True, metavar="RESULTS_JSON")
    parser.add_argument("--change", nargs="+", required=True, metavar="RESULTS_JSON")
    args = parser.parse_args(argv)
    spec = env.load_spec()
    parent, change = load(args.parent), load(args.change)
    worse = 0
    print(f"parent: {len(parent)} run(s)   change: {len(change)} run(s)   "
          "(claims need >= 10 alternating pairs; see README.md)")
    for workload in (w["name"] for w in spec["workloads"]):
        rows = []
        for metric in spec["end_to_end"]:
            p = series(parent, workload, "end_to_end", metric["name"])
            c = series(change, workload, "end_to_end", metric["name"])
            if not p or not c:
                continue
            p_q1, p_med, p_q3 = quartiles(p)
            c_q1, c_med, c_q3 = quartiles(c)
            outcome, won = verdict(p, c, metric["better"], metric["bound"])
            worse += outcome == "worse"
            rows.append(
                f"  {metric['name']:<13} {p_med:>11.5g} [{p_q1:.5g}, {p_q3:.5g}]"
                f"  {c_med:>11.5g} [{c_q1:.5g}, {c_q3:.5g}]"
                f"  {c_med / p_med:>6.3f}x of {p_med:.5g} {metric['unit']}"
                f"  bound {metric['bound']:.0%} ({metric['better']} is better)"
                f"  pairs won {won}  => {outcome}"
            )
        if not rows:
            continue
        print(f"\n{workload}")
        print(f"  {'metric':<13} {'parent median [q1, q3]':<34} {'change median [q1, q3]'}")
        print("\n".join(rows))
        for metric in spec["per_layer"]:
            p = series(parent, workload, "per_layer", metric["name"])
            c = series(change, workload, "per_layer", metric["name"])
            if not p or not c:
                continue
            p_med, c_med = statistics.median(p), statistics.median(c)
            ratio = f"{c_med / p_med:.3f}x of {p_med:.5g}" if p_med else "base is 0"
            print(f"    {metric['name']:<36} {p_med:>12.5g} -> {c_med:>12.5g} "
                  f"{metric['unit']:<8} {ratio}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
