"""Fault injection for the wall-clock backends: the message-level subset.

Threads and processes have no links or simulated hosts, but the
loss/duplication/reorder/crash subset of a
:class:`~repro.api.faults.FaultPlan` is meaningful on their channels,
and honouring it there keeps every interpreter of the algorithm
coroutines facing the same adversity.  :class:`ThreadFaultInjector`
makes the per-message decisions (same decision vocabulary as the
simulator's injector, wall-clock windows measured from run start);
:func:`repro.runtime.channels.fates` turns each decision into
deliveries for both backends: a dropped message has none, a duplicated
one two, and a delayed one travels at once and waits at its receiver's
:class:`~repro.runtime.channels.Mailbox` until its due time.

Topology-level events (link degradation, host slowdown) do not apply
to in-process channels and are ignored here; counters only reflect
what actually happened on this backend.  Thread interleaving makes the
decision *sequence* non-deterministic run to run -- only the simulated
backend promises deterministic fault counters.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Dict, List, Optional

from repro.api.faults import (
    FaultPlan,
    MessageDuplication,
    MessageLoss,
    MessageReorder,
    RankCrash,
)
from repro.simgrid.faults import FaultDecision, decide_message_fate
from repro.simgrid.message import Message


class ThreadFaultInjector:
    """Wall-clock interpretation of the message-level fault subset.

    ``stream`` selects a decorrelated RNG stream derived from the
    plan's seed: the threaded backend runs one injector for the whole
    hub (stream 0, the plan seed unchanged), while the process backend
    runs one injector *per rank* -- same plan, per-rank streams -- so
    sender processes make independent but still seed-reproducible
    decisions without sharing an RNG across process boundaries.
    """

    def __init__(
        self,
        plan: FaultPlan,
        default_seed: Optional[int] = None,
        stream: int = 0,
    ) -> None:
        self.plan = plan
        self._rng = random.Random(plan.rng_seed(default_seed) + 1_000_003 * stream)
        self._lock = threading.Lock()
        self.counters: Dict[str, int] = {}
        self._message_events = plan.select(
            MessageLoss, MessageDuplication, MessageReorder
        )
        self._crashes: List[RankCrash] = plan.select(RankCrash)
        self._t0: Optional[float] = None

    def _count(self, key: str, by: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + by

    def start(self, t0: Optional[float] = None) -> None:
        """Anchor the plan's time axis to the run's wall-clock start.

        ``t0`` (a ``time.monotonic`` reading) lets the process backend
        hand every rank's injector the *same* anchor: ``CLOCK_MONOTONIC``
        is system-wide, so fault windows open and close at one shared
        instant across all worker processes.
        """
        self._t0 = time.monotonic() if t0 is None else t0

    def now(self) -> float:
        """Seconds since run start (0.0 before :meth:`start`)."""
        return 0.0 if self._t0 is None else time.monotonic() - self._t0

    def finish(self) -> None:
        """Record which crash windows the run actually lived through.

        Measured on the injector's own clock (anchored at
        :meth:`start`) -- the executor's elapsed time starts later, and
        comparing against it would miss a recovery that happened in the
        final moments of the run.
        """
        horizon = self.now()
        with self._lock:
            for crash in self._crashes:
                if crash.at <= horizon:
                    self._count("crashes")
                    if crash.end is not None and crash.end <= horizon:
                        self._count("recoveries")

    def on_send(self, message: Message, now: float) -> FaultDecision:
        """Decide the fate of one message posted to the channel hub.

        The decision procedure itself is
        :func:`repro.simgrid.faults.decide_message_fate` -- one shared
        implementation for both backends -- wrapped in this injector's
        lock (many sender threads, one RNG stream).
        """
        with self._lock:
            return decide_message_fate(
                self._crashes, self._message_events, self._rng, self.counters,
                message, now,
            )


__all__ = ["ThreadFaultInjector"]
