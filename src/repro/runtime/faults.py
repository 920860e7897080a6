"""Fault injection for the wall-clock backends: the message-level subset.

Threads and processes have no links or simulated hosts, but the
loss/duplication/reorder/crash subset of a
:class:`~repro.api.faults.FaultPlan` is meaningful on their channels,
and honouring it there keeps every interpreter of the algorithm
coroutines facing the same adversity.  :class:`ThreadFaultInjector`
makes the per-message decisions (the simulator's
:class:`~repro.api.faults.MessageFates` rule, wall-clock windows
measured from run start);
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

import threading
import time
from typing import Optional

from repro.api.faults import FaultDecision, FaultPlan, MessageFates
from repro.core.effects import Message


class ThreadFaultInjector(MessageFates):
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
        super().__init__(plan, plan.rng_seed(default_seed) + 1_000_003 * stream)
        self._lock = threading.Lock()
        self._t0: Optional[float] = None

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

        :meth:`~repro.api.faults.MessageFates.decide` under this
        injector's lock (many sender threads, one RNG stream).
        """
        with self._lock:
            return self.decide(message, now)


__all__ = ["ThreadFaultInjector"]
