"""ASCII Gantt / utilization reports over timelines.

One rendering path for every consumer: the Figures 1-2 spec
(:data:`repro.experiments.paper.FIGURES12`, from each run's
recorded timeline) and ``repro report`` both build their per-rank
utilisation summaries here and both render the Gantt rows through
:meth:`~repro.core.trace.Timeline.ascii_gantt`, so
"the paper's Figure 1/2 view" and "what the tracer saw on a real
backend" are the same picture on different clocks.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.core.trace import SPAN_KINDS, Timeline


def utilisation_table(timeline: Timeline) -> List[Dict[str, Any]]:
    """One row per rank: seconds by span kind + compute utilisation.

    ``utilisation`` is :meth:`Timeline.utilisation` -- the fraction
    of the global makespan the rank spent computing -- i.e. the number
    the paper's Figure 1 vs Figure 2 comparison turns on.
    """
    rows = []
    for rank in timeline.ranks():
        row: Dict[str, Any] = {"rank": rank}
        for kind in SPAN_KINDS:
            row[f"{kind}_s"] = timeline.kind_time(rank, kind)
        row["utilisation"] = timeline.utilisation(rank)
        row["markers"] = len(timeline.markers_for(rank))
        rows.append(row)
    return rows


def format_utilisation(rows: List[Dict[str, Any]]) -> str:
    """Fixed-width table over :func:`utilisation_table` rows."""
    header = (
        f"{'rank':>4}  {'compute':>10}  {'idle':>10}  {'comm':>10}"
        f"  {'util':>6}  {'markers':>7}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['rank']:>4}  {row['compute_s']:>9.4f}s  {row['idle_s']:>9.4f}s"
            f"  {row['comm_s']:>9.4f}s  {row['utilisation'] * 100.0:>5.1f}%"
            f"  {row['markers']:>7}"
        )
    return "\n".join(lines)


def render_report(timeline: Timeline, width: int = 72) -> str:
    """The full ``repro report`` body: header, table, Gantt, markers."""
    lines = [
        f"backend: {timeline.backend}   clock: {timeline.clock}   "
        f"makespan: {timeline.makespan():.4f}s   "
        f"spans: {len(timeline.spans)}   markers: {len(timeline.markers)}",
    ]
    interesting = {
        k: v
        for k, v in timeline.meta.items()
        if isinstance(v, (int, float, str, bool))
    }
    if interesting:
        lines.append(
            "meta: " + "  ".join(f"{k}={v}" for k, v in sorted(interesting.items()))
        )
    lines.append("")
    lines.append(format_utilisation(utilisation_table(timeline)))
    lines.append("")
    lines.append(timeline.ascii_gantt(width=width))
    iteration_markers = [m for m in timeline.markers if m.kind == "iteration"]
    if iteration_markers:
        by_rank: Dict[int, int] = {}
        for marker in iteration_markers:
            by_rank[marker.rank] = by_rank.get(marker.rank, 0) + 1
        lines.append("")
        lines.append(
            "iteration markers: "
            + ", ".join(f"P{r}: {n}" for r, n in sorted(by_rank.items()))
        )
    return "\n".join(lines)


__all__ = ["utilisation_table", "format_utilisation", "render_report"]
