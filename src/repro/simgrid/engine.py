"""Deterministic discrete-event engine.

The engine maintains a priority queue of timestamped events.  Ties are
broken by a monotonically increasing sequence number so that runs are
fully deterministic: two events scheduled for the same virtual time fire
in scheduling order.  All of the simulation (hosts, links, thread pools,
processes) is driven by callbacks registered here.

Performance notes (this is the simulator's hottest loop; see the
``simgrid.engine_dispatch_us`` layer metric of ``benchmarks/perf/``):

* heap entries are plain ``(time, seq, callback, handle)`` tuples: the
  callback rides in the entry itself and every heap comparison happens
  in C (``seq`` is unique, so the callback is never compared);
* an :class:`Event` handle exists only for the events somebody may
  cancel (:meth:`Engine.at` / :meth:`Engine.after` return one); the
  simulator's own per-message and per-effect events use the
  handle-free :meth:`Engine.post_at` / :meth:`Engine.post_after`, which
  apply the same time checks and allocate nothing but the entry;
* :meth:`Engine.run` is one loop that pops and dispatches directly --
  same-timestamp groups run back to back with no peeking -- and tests
  nothing per event but the halt flag.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, List, Optional, Tuple

_INF = float("inf")


class SimulationError(RuntimeError):
    """Raised for inconsistencies detected by the simulation engine."""


class Event:
    """Cancellable handle of one scheduled callback.

    Returned by :meth:`Engine.at` / :meth:`Engine.after`; the heap
    entry points back at it so the engine can skip a cancelled event
    without firing it, counting it or advancing the clock to it.
    """

    __slots__ = ("cancelled",)

    def __init__(self) -> None:
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event so the engine skips it when popped."""
        self.cancelled = True


#: Heap entry type: ``(time, seq, callback, handle-or-None)``.
_Entry = Tuple[float, int, Callable[[], None], Optional[Event]]


class Engine:
    """Virtual-time event loop; virtual time starts at ``0.0`` seconds."""

    def __init__(self) -> None:
        #: Current virtual time in seconds (a plain attribute -- it is
        #: read several times per event; only the engine writes it).
        self.now = 0.0
        self._queue: List[_Entry] = []
        self._seq = itertools.count()
        self._events = 0
        self._running = False
        self._halted = False

    def halt(self) -> None:
        """Stop the current :meth:`run` after the event being dispatched.

        A cheap flag checked once per event in the hot loop -- how a
        callback stops the world (process failure) without costing every
        event a Python call.
        """
        self._halted = True

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Flat engine counters for observability surfaces.

        The one dict :meth:`repro.simgrid.world.World.stats` and the
        obs layer fold into run metadata -- event totals live here so
        every consumer reads the same numbers.
        """
        return {
            "now": self.now,
            "events": self._events,
            "pending_events": len(self._queue),
        }

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def _admit(self, time: float) -> float:
        """Slow half of the time check: ``time`` is not in ``[now, inf)``.

        Scheduling in the past is an error (the simulation is causal),
        except for floating-point noise: tiny negative deltas clamp to
        ``now``.
        """
        if not math.isfinite(time):
            raise SimulationError(f"non-finite event time: {time!r}")
        now = self.now
        if now - time < 1e-12 * max(1.0, abs(now)):
            return now
        raise SimulationError(f"cannot schedule event at {time} before now={now}")

    def post_at(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at absolute virtual time ``time``.

        The handle-free form: same checks as :meth:`at`, nothing to
        cancel, nothing allocated beyond the heap entry.
        """
        if not self.now <= time < _INF:
            time = self._admit(time)
        heapq.heappush(self._queue, (time, next(self._seq), callback, None))

    def post_after(self, delay: float, callback: Callable[[], None]) -> None:
        """Handle-free :meth:`after`: ``callback`` fires ``delay >= 0`` from now."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        self.post_at(self.now + delay, callback)

    def fire_in_place(self, time: float) -> bool:
        """For a callback whose last act would be to post an event at
        ``time``: if that event would fire next (the queue is empty or
        its head later, the run not halted), move the clock there, count
        it and return True -- the caller runs it in place."""
        queue = self._queue
        if self._halted or not self.now <= time < (queue[0][0] if queue else _INF):
            return False
        self.now = time
        self._events += 1
        return True

    def at(self, time: float, callback: Callable[[], None]) -> Event:
        """Like :meth:`post_at`, returning a handle that can cancel the event."""
        if not self.now <= time < _INF:
            time = self._admit(time)
        event = Event()
        heapq.heappush(self._queue, (time, next(self._seq), callback, event))
        return event

    def after(self, delay: float, callback: Callable[[], None]) -> Event:
        """Like :meth:`post_after`, returning a cancellable handle."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self.at(self.now + delay, callback)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self) -> float:
        """Run until the queue empties or a callback calls :meth:`halt`.

        Returns the virtual time at which the run stopped.
        """
        if self._running:
            raise SimulationError("engine is not reentrant")
        self._running = True
        self._halted = False
        queue = self._queue
        heappop = heapq.heappop
        processed = 0
        try:
            # One tight loop, locals bound, same-timestamp events
            # dispatched back to back without re-reading any engine
            # state beyond the queue head and the halt flag.
            while queue:
                time, _seq, callback, handle = heappop(queue)
                if handle is not None and handle.cancelled:
                    continue
                self.now = time
                processed += 1
                callback()
                if self._halted:
                    break
            return self.now
        finally:
            self._events += processed
            self._running = False


__all__ = ["Engine", "Event", "SimulationError"]
