"""Sharded, resumable scenario sweeps with pluggable placement.

The one grid runner of the package.  A grid of scenarios is validated
up front, coalesced into distinct units by ``content_hash + seed``,
admitted to the work queue it shares with ``repro serve`` (settled
units come back from the on-disk cache + journal), and the remainder
pumped through a placement strategy -- in-process (``local``), process
per shard (``pool``), or a running ``repro serve`` daemon (``serve``)::

    from repro.sweep import run_sweep

    outcome = run_sweep(grid, placement="pool", processes=4,
                        state_dir="sweep-state")
    # ... SIGKILL ...
    outcome = run_sweep(grid, placement="pool", processes=4,
                        state_dir="sweep-state", resume=True)
    outcome.counters["resumed"]     # settled units came back for free

See ``docs/sweeping.md`` for the placement vocabulary, the resume
workflow and the on-disk layout.
"""

from repro.sweep.executor import SweepOutcome, run_sweep
from repro.sweep.placement import (
    LocalPlacement,
    Placement,
    PlacementContext,
    PoolPlacement,
    ServePlacement,
    get_placement,
    list_placements,
    register_placement,
)
from repro.sweep.state import SweepState, SweepStateError, plan_fingerprint

__all__ = [
    "run_sweep",
    "SweepOutcome",
    "Placement",
    "PlacementContext",
    "LocalPlacement",
    "PoolPlacement",
    "ServePlacement",
    "register_placement",
    "get_placement",
    "list_placements",
    "SweepState",
    "SweepStateError",
    "plan_fingerprint",
]
