"""One spec per paper result, one runner and one renderer for them all.

Rows are keyed ``(case, version)``: the case labels one block of the
table (a cluster, a processor count, a figure), the version is the
environment's display name -- ``rows[("Ethernet", "sync MPI")]``.
"""

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

from repro.api import Backend, Scenario
from repro.envs import PAPER_ENVIRONMENTS, get_environment
from repro.sweep import run_sweep

Key = Tuple[Any, str]
Rows = Dict[Key, Dict[str, Any]]

#: The paper's four environments by registry name, baseline first, and
#: their display names: ``SYNC`` is "sync MPI", ``ASYNC`` the other three.
ENVIRONMENTS = [env.name for env in PAPER_ENVIRONMENTS]
SYNC, *ASYNC = [env.display_name for env in PAPER_ENVIRONMENTS]


@dataclass(frozen=True)
class Claim:
    """One shape claim of the paper, as text and a predicate over rows."""

    text: str
    holds: Callable[[Rows], bool]


@dataclass(frozen=True)
class Spec:
    """One table or figure of the paper: its scenario grid, the backend
    that runs it, a ``measure`` turning one sweep record into a keyed
    row, the paper's reference numbers keyed the same way, and the
    paper's shape claims."""

    title: str
    grid: Tuple[Scenario, ...]
    backend: Backend
    measure: Callable[[Mapping[str, Any]], Tuple[Key, Dict[str, Any]]]
    paper: Mapping[Key, Mapping[str, float]]
    claims: Tuple[Claim, ...]


@dataclass(frozen=True)
class SpecResult:
    """The measured rows of one spec and the verdict on each claim."""

    spec: Spec
    rows: Rows
    verdicts: Dict[str, bool]

    @property
    def false_claims(self) -> List[str]:
        return [text for text, holds in self.verdicts.items() if not holds]


def run_spec(spec: Spec, placement: str = "local", processes: int = 1) -> SpecResult:
    """Run ``spec``'s grid through :func:`run_sweep` and judge its claims.

    ``placement`` and ``processes`` go to :func:`run_sweep` unchanged.
    A failed unit raises: a table with a hole in it has no verdict.
    """
    records = run_sweep(
        spec.grid, spec.backend, placement=placement, processes=processes,
        include_solution=True,
    ).records
    failed = [r["error"] for r in records if "error" in r]
    if failed:
        raise RuntimeError(f"{spec.title}: {len(failed)} run(s) failed, first: {failed[0]}")
    rows = dict(spec.measure(record) for record in records)
    return SpecResult(spec, rows, {c.text: bool(c.holds(rows)) for c in spec.claims})


def version(record: Mapping[str, Any]) -> str:
    """The display name of the environment a record ran on."""
    return get_environment(record["scenario"]["environment"]).display_name


def speed_ratio(rows: Rows, key: Key) -> float:
    """The paper's speed ratio: the case's sync MPI time over this time."""
    return rows[(key[0], SYNC)]["time"] / rows[key]["time"]


def format_spec(result: SpecResult) -> str:
    """The measured rows beside the paper's, then each multi-line column
    (a Gantt chart) as a block, then the verdict on every claim."""
    rows, paper = result.rows, result.spec.paper
    columns = [c for c, v in next(iter(rows.values())).items()
               if isinstance(v, (int, float, tuple)) or (isinstance(v, str) and "\n" not in v)]
    with_ratio = "time" in columns and all((case, SYNC) in rows for case, _ in rows)
    paper_columns = list(next(iter(paper.values()), {}))
    table = [
        [*key, *(row[c] for c in columns),
         *([speed_ratio(rows, key)] if with_ratio else []),
         *(paper[key][c] for c in paper_columns)]
        for key, row in rows.items()
    ]
    headers = ["case", "version", *columns, *(["ratio"] if with_ratio else []),
               *paper_columns]
    blocks = [render_table(headers, table, title=result.spec.title)]
    blocks += [
        f"{case} / {name}:\n{value}"
        for (case, name), row in rows.items()
        for value in row.values() if isinstance(value, str) and "\n" in value
    ]
    blocks.append("\n".join(
        f"  [{'holds' if holds else 'FALSE'}] {text}"
        for text, holds in result.verdicts.items()
    ))
    return "\n\n".join(blocks)


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Plain-text table rendering (the paper's tables as text)."""
    cells = [list(headers)] + [[_fmt(cell) for cell in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = [" | ".join(c.ljust(w) for c, w in zip(row, widths)) for row in cells]
    lines.insert(1, "-+-".join("-" * w for w in widths))
    return "\n".join([title, *lines] if title else lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, tuple):
        return " ".join(_fmt(c) for c in cell)
    if isinstance(cell, float):
        return f"{cell:.4g}"
    return str(cell)


__all__ = [
    "ASYNC", "ENVIRONMENTS", "SYNC", "Claim", "Spec", "SpecResult", "format_spec",
    "render_table", "run_spec", "speed_ratio", "version",
]
