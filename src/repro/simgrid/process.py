"""Coroutine interpreter: runs algorithm generators on simulated hosts.

A :class:`Process` owns one algorithm coroutine (a generator yielding
:mod:`repro.core.effects` objects) bound to one host and one rank.
The interpreter advances the generator, translating each effect into
engine events, trace spans and transport calls.

Whatever unblocks a process resumes its coroutine *directly*, inside
the event that did it (a compute/barrier event of its own, the
sender-released or arrival event of a blocking send, the visible event
that satisfies a ``Recv``) -- never through a same-timestamp bounce
event.  :meth:`Process._advance` is the trampoline that keeps this
re-entrancy-safe: a resume that arrives while the process is already
advancing (a send that completes at once) is handed to the running
loop instead of re-entering the generator, so the stack depth does not
grow with the number of such resumes.
"""

from __future__ import annotations

import enum
from typing import Any, Generator, Optional, TYPE_CHECKING

from repro.core import effects as fx
from repro.simgrid.engine import SimulationError
from repro.simgrid.host import Host

if TYPE_CHECKING:  # pragma: no cover
    from repro.simgrid.world import World


#: "No resume arrived while advancing" marker of the trampoline.
_PARKED = object()


class ProcessState(enum.Enum):
    READY = "ready"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


class Process:
    """One simulated program instance (one per processor, as in the paper)."""

    def __init__(
        self,
        world: "World",
        rank: int,
        host: Host,
        coroutine: Generator[fx.Effect, Any, Any],
        name: Optional[str] = None,
    ) -> None:
        self.world = world
        self.rank = rank
        self.host = host
        self.coroutine = coroutine
        self.name = name or f"p{rank}@{host.name}"
        self.state = ProcessState.READY
        self.result: Any = None
        self.exception: Optional[BaseException] = None
        #: Virtual seconds this process spent in Iterate effects
        #: (surfaced as per-rank busy time in run results).
        self.busy_time: float = 0.0
        self._blocked_since: float = 0.0
        # What the process is blocked on: the handle of a blocking
        # send, or the ``Recv`` effect (and its timeout event, if any).
        self._blocked_on: Any = None
        self._recv_timer = None
        self._advancing = False
        self._resume_value: Any = _PARKED
        self._wake_value: Any = None  # what the next ``_wake`` resumes with

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self.state is not ProcessState.READY:
            raise SimulationError(f"{self.name}: already started")
        self.state = ProcessState.RUNNING
        self.world.engine.post_at(self.world.engine.now, self._wake)

    def _wake(self) -> None:
        """Engine event: a compute or barrier wait is over."""
        value, self._wake_value = self._wake_value, None
        self._advance(value, True)

    def _advance(self, value: Any, in_wake: bool = False) -> None:
        """Send ``value`` into the coroutine and run it until it parks
        (``in_wake``: inside this process's own ``_wake`` event)."""
        if self._advancing:
            # Resumed from inside our own effect handling: the running
            # loop below picks the value up when the handler returns.
            self._resume_value = value
            return
        self._advancing = True
        try:
            while True:
                self._advance_inner(value, in_wake)
                value = self._resume_value
                if value is _PARKED:
                    return
                self._resume_value = _PARKED
        except BaseException as exc:  # noqa: BLE001 - report and stop
            # Failures in effect handling (e.g. sending to a host with
            # no route) are attributed to the process, like failures
            # inside the coroutine itself.
            if self.state is not ProcessState.FAILED:
                self.state = ProcessState.FAILED
                self.exception = exc
                self.world._process_failed(self, exc)
        finally:
            self._advancing = False

    def _advance_inner(self, value: Any, in_wake: bool) -> None:
        engine = self.world.engine
        while True:
            try:
                effect = self.coroutine.send(value)
            except StopIteration as stop:
                self.state = ProcessState.DONE
                self.result = stop.value
                self.world._process_finished(self)
                return
            except BaseException as exc:  # noqa: BLE001 - report and stop
                self.state = ProcessState.FAILED
                self.exception = exc
                self.world._process_failed(self, exc)
                return

            # Effects that resume immediately are handled in this loop
            # (no engine round-trip); time-consuming ones schedule a
            # callback and return.  The seven effect classes have no
            # subclasses, so the type is compared, not isinstance-d, in
            # order of frequency in the iterative hot loop: drain,
            # iterate, send.
            kind = type(effect)
            if kind is fx.Drain:
                value = self.world.transport.mailboxes[self.rank].drain(effect.tag)
                continue
            if kind is fx.Iterate:
                # Host-side numerics now, the simulated cost charged
                # before the coroutine sees the result.
                value = effect.solver.iterate()
                if self._compute(value, in_wake):
                    continue
                return
            if kind is fx.Send:
                handle = fx.SendHandle()
                message = fx.Message(self.rank, effect.dest, effect.tag, effect.payload,
                                     effect.size)
                if effect.dest == self.rank:
                    # Loopback: visible at once, no transport involvement.
                    message.sent_at = message.delivered_at = engine.now
                    self.world.transport.mailboxes[self.rank].deposit(message)
                    handle.complete(engine.now)
                else:
                    self.world.transport.send(message, handle)
                if self.world.policy.blocking_send:
                    self._blocked_since = engine.now
                    self._blocked_on = handle
                    # A rendezvous (large-message MPI) send returns once the
                    # receiver has the data, an eager one once the sender's
                    # side of the transfer is done (socket buffer drained).
                    if effect.size >= self.world.transport.rendezvous_from:
                        handle.on_complete(self._send_unblocked)
                    else:
                        handle.on_sender_release(self._send_unblocked)
                    return
                value = handle
                continue
            if kind is fx.Now:
                value = engine.now
                continue
            if kind is fx.Trace:
                self.world.trace.add_marker(self.rank, engine.now, effect.kind, effect.info)
                value = None
                continue
            if kind is fx.Recv:
                # Satisfied now, or woken by the deposit that satisfies it.
                mailbox = self.world.transport.mailboxes[self.rank]
                count = effect.count if effect.count > 1 else 1
                if mailbox.peek_count(effect.tag) >= count:
                    value = mailbox.drain(effect.tag)
                    continue
                self._blocked_since = engine.now
                self._blocked_on = effect
                mailbox.set_waiter(self._recv_wake, effect.tag, count)
                if effect.timeout is not None:
                    self._recv_timer = engine.after(effect.timeout, self._recv_timeout)
                return
            if kind is fx.Barrier:
                self._blocked_since = engine.now
                self.world.barrier_arrive(self)
                return
            raise SimulationError(f"{self.name}: unknown effect {effect!r}")

    # ------------------------------------------------------------------
    # effect handlers
    # ------------------------------------------------------------------
    def _compute(self, result: Any, in_wake: bool) -> bool:
        """Charge an iteration's ``flops`` to the host, then resume with it:
        in place (returns True) when the process's own wake would end
        by posting the next event to fire, else through a posted wake."""
        engine = self.world.engine
        duration = self.host.compute_time(result.flops)
        self.busy_time += duration
        start = engine.now
        trace = self.world.trace
        if trace.enabled:
            trace.add_span(self.rank, start, start + duration, "compute", "compute")
        if in_wake and engine.fire_in_place(start + duration):
            return True
        self._wake_value = result
        engine.post_after(duration, self._wake)
        return False

    def _send_unblocked(self, when: float) -> None:
        trace = self.world.trace
        if trace.enabled:
            trace.add_span(self.rank, self._blocked_since, when, "comm", "blocking-send")
        self._advance(self._blocked_on)

    def _recv_wake(self) -> None:
        """Mailbox waiter: the blocked ``Recv``'s count became visible."""
        if self._recv_timer is not None:
            self._recv_timer.cancel()
            self._recv_timer = None
        self._recv_unblocked(self.world.transport.mailboxes[self.rank].drain(self._blocked_on.tag))

    def _recv_timeout(self) -> None:
        self._recv_timer = None
        self.world.transport.mailboxes[self.rank].clear_waiter()
        self._recv_unblocked([])

    def _recv_unblocked(self, messages: list) -> None:
        trace = self.world.trace
        if trace.enabled:
            end = self.world.engine.now
            trace.add_span(self.rank, self._blocked_since, end, "comm", "recv-wait")
        self._advance(messages)

    # Called by the barrier manager.
    def barrier_release(self, release_time: float) -> None:
        trace = self.world.trace
        if trace.enabled:
            trace.add_span(self.rank, self._blocked_since, release_time, "idle", "barrier")
        self.world.engine.post_at(release_time, self._wake)


__all__ = ["Process", "ProcessState"]
