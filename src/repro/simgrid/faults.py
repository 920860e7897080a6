"""Compile a :class:`~repro.api.faults.FaultPlan` onto the simulator.

A :class:`SimFaultInjector` is handed to
:class:`~repro.simgrid.world.World`, which installs it when the run
starts:

* :class:`~repro.api.faults.LinkDegradation` windows become engine
  events that mutate the matching :class:`~repro.simgrid.link.Link`
  objects (bandwidth factor, added latency) at the window edges -- the
  FIFO reservation model picks the degraded numbers up automatically;
* :class:`~repro.api.faults.HostSlowdown` windows mutate
  :class:`~repro.simgrid.host.Host` speeds, geometrically ramped when
  ``steps > 1``;
* the message-level events (loss, duplication, reorder,
  crash-blackout) are consulted by the
  :class:`~repro.simgrid.comm.Transport` for every eligible message via
  :meth:`SimFaultInjector.on_send`.

All probabilistic decisions consume a ``random.Random`` stream seeded
from the plan, and the engine processes events deterministically, so a
seeded faulty scenario has bit-identical work counters run to run.
Window events still pending when every process has finished are
cancelled (see ``World._process_finished``) so an open-ended window
never extends the makespan.
"""

from __future__ import annotations

import random
from fnmatch import fnmatch
from typing import Dict, List, Optional, Sequence, TYPE_CHECKING

from repro.api.faults import (
    FaultPlan,
    HostSlowdown,
    LinkDegradation,
    MessageDuplication,
    MessageLoss,
    MessageReorder,
    RankCrash,
    in_window,
    matches_tag,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.simgrid.message import Message
    from repro.simgrid.world import World


class FaultDecision:
    """Outcome of consulting the injector for one message."""

    __slots__ = ("drop", "duplicate", "extra_delay")

    def __init__(self, drop: bool = False, duplicate: bool = False,
                 extra_delay: float = 0.0) -> None:
        self.drop = drop
        self.duplicate = duplicate
        self.extra_delay = extra_delay


#: Shared "nothing happens" decision (read-only by convention).
NO_FAULT = FaultDecision()


def decide_message_fate(
    crashes: List[RankCrash],
    message_events: List,
    rng: random.Random,
    counters: Dict[str, int],
    message: "Message",
    now: float,
) -> FaultDecision:
    """The one message-fault decision procedure, shared by both backends.

    Consumes exactly one RNG draw per *eligible* probabilistic event,
    in plan order, so on the simulator (deterministic event order) the
    decision stream -- and therefore every counter -- is reproducible
    for a fixed seed.  The thread injector wraps this in its lock.
    """
    def count(key: str) -> None:
        counters[key] = counters.get(key, 0) + 1

    for crash in crashes:
        if not crash.dark(now):
            continue
        if message.src != crash.rank and message.dst != crash.rank:
            continue
        if not matches_tag(crash.tags, message.tag):
            continue
        count("messages_dropped")
        count("crash_dropped")
        return FaultDecision(drop=True)

    drop = False
    duplicate = False
    extra_delay = 0.0
    for event in message_events:
        if not in_window(event.start, event.end, now):
            continue
        if not matches_tag(event.tags, message.tag):
            continue
        if rng.random() >= event.probability:
            continue
        if isinstance(event, MessageLoss):
            drop = True
        elif isinstance(event, MessageDuplication):
            duplicate = True
        else:  # MessageReorder
            extra_delay += rng.random() * event.max_delay
    if drop:
        count("messages_dropped")
        return FaultDecision(drop=True)
    if duplicate:
        count("messages_duplicated")
    if extra_delay > 0.0:
        count("messages_delayed")
    if duplicate or extra_delay > 0.0:
        return FaultDecision(duplicate=duplicate, extra_delay=extra_delay)
    return NO_FAULT


def _matching(objects, patterns: Optional[Sequence[str]]) -> List:
    """Objects whose ``.name`` matches any fnmatch pattern (``None`` = all)."""
    if patterns is None:
        return list(objects)
    return [o for o in objects if any(fnmatch(o.name, p) for p in patterns)]


class SimFaultInjector:
    """Runtime state of one fault plan during one simulated run.

    One injector serves one run: it owns the fault RNG, the counters
    that end up in :attr:`repro.api.result.RunResult.faults`, and the
    pending window events (for cancellation when the run ends early).
    """

    def __init__(self, plan: FaultPlan, default_seed: Optional[int] = None) -> None:
        self.plan = plan
        self._rng = random.Random(plan.rng_seed(default_seed))
        self.counters: Dict[str, int] = {}
        self._message_events = plan.select(
            MessageLoss, MessageDuplication, MessageReorder
        )
        self._crashes: List[RankCrash] = plan.select(RankCrash)
        self._pending_events: List = []
        self._installed = False

    def _count(self, key: str, by: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + by

    # ------------------------------------------------------------------
    # window compilation (called by World.run)
    # ------------------------------------------------------------------
    def install(self, world: "World") -> None:
        """Schedule every window edge on the world's engine."""
        if self._installed:
            raise RuntimeError("fault injector already installed")
        self._installed = True
        engine = world.engine

        for event in self.plan.select(LinkDegradation):
            links = _matching(world.network.links, event.links)
            if links:
                self._install_link_window(engine, event, links)

        for event in self.plan.select(HostSlowdown):
            hosts = _matching(world.hosts, event.hosts)
            if hosts:
                self._install_host_window(engine, event, hosts)

        for crash in self._crashes:
            self._schedule_counting(engine, crash.at, "crashes")
            if crash.end is not None:
                self._schedule_counting(engine, crash.end, "recoveries")

    # Every apply/undo below changes state *relatively* (multiply /
    # divide, add / subtract) rather than writing absolutes captured at
    # install time, so overlapping windows on the same link or host
    # compose instead of the first restore clobbering the second window.
    def _install_link_window(self, engine, event: LinkDegradation, links) -> None:
        def apply() -> None:
            for link in links:
                link.bandwidth *= event.bandwidth_factor
                link.latency += event.latency_add
            self._count("link_degradations")

        def restore() -> None:
            for link in links:
                link.bandwidth /= event.bandwidth_factor
                link.latency -= event.latency_add
            self._count("recoveries")

        self._schedule(engine, event.start, apply)
        self._schedule(engine, event.end, restore)

    def _install_host_window(self, engine, event: HostSlowdown, hosts) -> None:
        # Geometric ramp: nominal -> factor across `steps` equal
        # sub-windows (steps=1 degenerates to a plain switch).  The
        # applied factor is tracked so each step and the final restore
        # only changes this event's own contribution.
        state = {"applied": 1.0}

        def ramp_to(target: float) -> None:
            for host in hosts:
                host.speed *= target / state["applied"]
            state["applied"] = target

        span = event.end - event.start
        for i in range(event.steps):
            target = event.factor ** ((i + 1) / event.steps)
            when = event.start + span * (i / event.steps)
            self._schedule(engine, when, (lambda t=target: ramp_to(t)))
        self._schedule_counting(engine, event.start, "host_slowdowns")

        def restore() -> None:
            ramp_to(1.0)
            self._count("recoveries")

        self._schedule(engine, event.end, restore)

    def _schedule(self, engine, when: float, callback) -> None:
        self._pending_events.append(engine.at(when, callback))

    def _schedule_counting(self, engine, when: float, key: str) -> None:
        self._schedule(engine, when, lambda: self._count(key))

    def cancel_pending(self) -> None:
        """Cancel window edges that lie beyond the end of the run.

        Called when every process has finished; cancelled events do not
        advance virtual time, so an open window cannot stretch the
        makespan past the last process completion.
        """
        for event in self._pending_events:
            event.cancel()
        self._pending_events.clear()

    # ------------------------------------------------------------------
    # message path (called by Transport.send)
    # ------------------------------------------------------------------
    def on_send(self, message: "Message", now: float) -> FaultDecision:
        """Decide the fate of one message entering the transport."""
        return decide_message_fate(
            self._crashes, self._message_events, self._rng, self.counters,
            message, now,
        )


__all__ = ["SimFaultInjector", "FaultDecision", "NO_FAULT", "decide_message_fate"]
