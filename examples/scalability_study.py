#!/usr/bin/env python
"""Figure 3 style scalability study on the local heterogeneous cluster.

Fixed problem size, 4 to 40 processors, all four environments -- shows
that asynchronism reaches the best execution time with fewer
processors ("less resources demanding for the same efficiency").

Run:  python examples/scalability_study.py     (~10 s)
Illustrates:  docs/scenarios.md (grids + sweeps over a process pool)
"""

from repro.experiments import format_spec, run_spec
from repro.experiments.paper import COUNTS, FIGURE3


def main() -> None:
    # The 20-cell (environment x processor count) grid is a scenario
    # sweep; processes=2 fans it over a small process pool (results are
    # deterministic regardless of the pool size).
    outcome = run_spec(FIGURE3, placement="pool", processes=2)
    print(format_spec(outcome))

    rows = outcome.rows
    sync = [rows[(n, "sync MPI")]["time"] for n in COUNTS]
    target = min(row["time"] for (n, version), row in rows.items()
                 if n == 12 and version != "sync MPI")
    print("\nResources needed to reach the asynchronous 12-processor time:")
    reached = next((n for n, t in zip(COUNTS, sync) if t <= target), None)
    if reached is None:
        print(f"  async with 12 procs: {target:.3f} s -- the synchronous "
              "version never reaches it in this sweep")
    else:
        print(f"  async needs 12 procs, sync needs {reached} for "
              f"{target:.3f} s")


if __name__ == "__main__":
    main()
