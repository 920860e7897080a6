"""Shared experiment plumbing: describe one (problem, environment,
cluster) case as a :class:`repro.api.Scenario`, run it on a backend and
collect the numbers the paper reports."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.api import RunResult, Scenario, SimulatedBackend

#: Default backend shared by the experiment harnesses.
DEFAULT_BACKEND = SimulatedBackend()


def run_scenario_case(
    scenario: Scenario, backend: Optional[SimulatedBackend] = None
) -> RunResult:
    """Run one scenario on the shared (or a caller-provided) backend."""
    return (backend or DEFAULT_BACKEND).run(scenario)


@dataclass
class EnvironmentRow:
    """One row of a paper table: an environment's time and speed ratio."""

    version: str            # e.g. "async PM2"
    execution_time: float   # simulated seconds
    speed_ratio: float      # sync MPI time / this time
    converged: bool
    iterations: int         # max per-rank iteration count
    solution_error: Optional[float] = None
    extra: Dict[str, object] = field(default_factory=dict)


def speed_ratios(rows: List[EnvironmentRow], baseline: str = "sync MPI") -> None:
    """Fill in ``speed_ratio`` relative to the named baseline row."""
    base = next((r for r in rows if r.version == baseline), None)
    if base is None:
        raise ValueError(f"baseline row {baseline!r} not found")
    for row in rows:
        row.speed_ratio = base.execution_time / row.execution_time


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Plain-text table rendering (the paper's tables as text)."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if cell == 0 or 0.01 <= abs(cell) < 1e6:
            return f"{cell:.2f}"
        return f"{cell:.3g}"
    return str(cell)


__all__ = [
    "EnvironmentRow",
    "DEFAULT_BACKEND",
    "run_scenario_case",
    "speed_ratios",
    "render_table",
]
