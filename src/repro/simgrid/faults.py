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
  crash-blackout) are the :class:`~repro.api.faults.MessageFates` rule
  every backend shares, consulted by the
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

from fnmatch import fnmatch
from typing import List, Optional, Sequence, TYPE_CHECKING

from repro.api.faults import (
    FaultPlan,
    HostSlowdown,
    LinkDegradation,
    MessageFates,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.simgrid.world import World


def _matching(objects, patterns: Optional[Sequence[str]]) -> List:
    """Objects whose ``.name`` matches any fnmatch pattern (``None`` = all)."""
    if patterns is None:
        return list(objects)
    return [o for o in objects if any(fnmatch(o.name, p) for p in patterns)]


class SimFaultInjector(MessageFates):
    """Runtime state of one fault plan during one simulated run.

    One injector serves one run: on top of the shared message rule (the
    fault RNG, the counters) it owns the pending window events (for
    cancellation when the run ends early).
    """

    def __init__(self, plan: FaultPlan, default_seed: Optional[int] = None) -> None:
        super().__init__(plan, plan.rng_seed(default_seed))
        self._pending_events: List = []
        self._installed = False

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

    #: Decide the fate of one message entering the transport
    #: (called by ``Transport.send``).
    on_send = MessageFates.decide


__all__ = ["SimFaultInjector"]
