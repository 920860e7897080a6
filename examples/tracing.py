#!/usr/bin/env python
"""Trace one scenario, render its report, export it for Perfetto.

The paper argues with pictures: Figure 1's idle gaps against Figure
2's back-to-back compute.  This example produces the same picture for
a run *you* execute -- on the simulator's virtual clock here, but the
``timeline=True`` flag (and everything downstream of it) is identical
on the threaded and process backends, so swapping the backend swaps
the clock, not the tooling.

Run:  python examples/tracing.py
Illustrates:  docs/observability.md

CLI equivalent::

    repro trace examples/trace_scenario.json --backend simulated \
        --out trace.json
    repro report trace.json
"""

from repro.api import Scenario, run_scenario
from repro.core.aiac import AIACOptions
from repro.obs import render_report, timeline_to_chrome, write_trace


def main() -> None:
    scenario = Scenario(
        problem="sparse_linear",
        problem_params=dict(n=240),
        environment="pm2",
        n_ranks=3,
        seed=7,
        # trace_iterations stamps an "iteration" marker per local
        # iteration -- the instants Perfetto shows on each rank track.
        options=AIACOptions(eps=1e-6, stability_count=3,
                            max_iterations=5_000, trace_iterations=True),
        name="tracing-example",
    )

    result = run_scenario(scenario, backend="simulated", timeline=True)
    timeline = result.timeline
    print(f"converged={result.converged} in {result.makespan:.4f} virtual s; "
          f"{len(timeline.spans)} spans, {len(timeline.markers)} markers "
          f"across ranks {timeline.ranks()}\n")

    # The ASCII view: utilisation table + Gantt -- the same renderer
    # the figure harness uses for the paper's Figures 1/2.
    print(render_report(timeline, width=64))

    # The browser view: load trace.json at ui.perfetto.dev (or
    # chrome://tracing).  One track per rank, spans by kind,
    # iteration markers as instants.
    write_trace(timeline, "trace.json", format="chrome")
    events = timeline_to_chrome(timeline)["traceEvents"]
    print(f"\nwrote trace.json ({len(events)} Chrome trace events)")

    # A timeline survives serialization with the run record: anything
    # that stores records (the serve cache, sweep state) keeps it.
    record = result.to_record()
    assert record["timeline"]["schema"] == "repro.timeline/1"


if __name__ == "__main__":
    main()
