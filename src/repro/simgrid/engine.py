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
* :meth:`Engine.run` has two loops: the unlimited one pops and
  dispatches directly -- same-timestamp groups run back to back with no
  peeking -- and only runs that set ``until`` / ``max_events`` /
  ``stop_when`` pay for those tests per event.
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

    __slots__ = ("time", "cancelled")

    def __init__(self, time: float) -> None:
        self.time = time
        self.cancelled = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time:.6f}{state})"

    def cancel(self) -> None:
        """Mark the event so the engine skips it when popped."""
        self.cancelled = True


#: Heap entry type: ``(time, seq, callback, handle-or-None)``.
_Entry = Tuple[float, int, Callable[[], None], Optional[Event]]


class Engine:
    """Virtual-time event loop.

    Parameters
    ----------
    start_time:
        Initial virtual time (seconds).  Defaults to ``0.0``.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        #: Current virtual time in seconds (a plain attribute -- it is
        #: read several times per event; only the engine writes it).
        self.now = float(start_time)
        self._queue: List[_Entry] = []
        self._seq = itertools.count()
        self._events_processed = 0
        self._running = False
        self._halted = False

    def halt(self) -> None:
        """Stop the current :meth:`run` after the event being dispatched.

        A cheap flag checked once per event in the hot loops -- callers
        that need to stop the world from inside a callback (process
        failure) use this instead of a ``stop_when`` closure, which
        would cost a Python call per event.
        """
        self._halted = True

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._queue)

    def stats(self) -> dict:
        """Flat engine counters for observability surfaces.

        The one dict :meth:`repro.simgrid.world.World.stats` and the
        obs layer fold into run metadata -- event totals live here so
        every consumer reads the same numbers.
        """
        return {
            "now": self.now,
            "events": self._events_processed,
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

    def at(self, time: float, callback: Callable[[], None]) -> Event:
        """Like :meth:`post_at`, returning a handle that can cancel the event."""
        if not self.now <= time < _INF:
            time = self._admit(time)
        event = Event(time)
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
    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> float:
        """Run until the queue empties (or a limit is reached).

        Parameters
        ----------
        until:
            Stop once virtual time would exceed this value.
        max_events:
            Safety valve against runaway simulations.
        stop_when:
            Optional predicate checked after every event.

        Returns
        -------
        float
            The virtual time at which the run stopped.
        """
        if self._running:
            raise SimulationError("engine is not reentrant")
        self._running = True
        self._halted = False
        queue = self._queue
        heappop = heapq.heappop
        processed = 0
        try:
            if until is None and max_events is None and stop_when is None:
                # Hot path: no limits.  One tight loop, locals bound,
                # same-timestamp events dispatched back to back without
                # re-reading any engine state beyond the queue head and
                # the halt flag.
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
            while queue:
                time, _seq, callback, handle = queue[0]
                if handle is not None and handle.cancelled:
                    heappop(queue)
                    continue
                if until is not None and time > until:
                    self.now = until
                    break
                heappop(queue)
                self.now = time
                processed += 1
                callback()
                if self._halted:
                    break
                if stop_when is not None and stop_when():
                    break
                if max_events is not None and processed >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; "
                        "simulation appears to be diverging"
                    )
            return self.now
        finally:
            self._events_processed += processed
            self._running = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Engine(now={self.now:.6f}, pending={len(self._queue)}, "
            f"processed={self._events_processed})"
        )


def poisson_like_jitter(seed: int, index: int, scale: float) -> float:
    """Deterministic pseudo-random jitter in ``[0, scale)``.

    A tiny splitmix-style hash keeps runs reproducible without carrying a
    numpy RNG through the transport layer.  Used to avoid pathological
    phase-locking of identical hosts.
    """
    x = (seed * 0x9E3779B97F4A7C15 + index * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 31
    x = (x * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 29
    return (x / 2**64) * scale


__all__ = ["Engine", "Event", "SimulationError", "poisson_like_jitter"]
