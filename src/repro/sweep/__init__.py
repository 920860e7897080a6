"""Sharded, resumable scenario sweeps over three executors.

The one grid runner of the package.  A grid of scenarios is validated
up front, coalesced into distinct units by ``content_hash + seed``,
admitted to the work queue it shares with ``repro serve`` (settled
units come back from the on-disk cache + journal), and the remainder
pumped through the executor a placement name picks -- in-process
(``local``), process per shard (``pool``), or a running ``repro serve``
daemon (``serve``)::

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
from repro.sweep.placement import LocalPlacement, ServePlacement
from repro.sweep.state import SweepState, SweepStateError, plan_fingerprint

__all__ = [
    "run_sweep",
    "SweepOutcome",
    "LocalPlacement",
    "ServePlacement",
    "SweepState",
    "SweepStateError",
    "plan_fingerprint",
]
