"""Coroutine interpreter: runs algorithm generators on simulated hosts.

A :class:`Process` owns one algorithm coroutine (a generator yielding
:mod:`repro.core.effects` objects) bound to one host and one rank.
The interpreter advances the generator, translating each effect into
engine events, trace spans and transport calls.

Whatever unblocks a process resumes its coroutine *directly*, inside
the event that did it (a compute/sleep/barrier event of its own, the
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
    BLOCKED = "blocked"
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
        #: Virtual seconds this process spent in Compute effects
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
        """Engine event: a compute / sleep / barrier wait is over."""
        value, self._wake_value = self._wake_value, None
        self._advance(value)

    def _advance(self, value: Any) -> None:
        """Send ``value`` into the coroutine and run it until it parks."""
        if self._advancing:
            # Resumed from inside our own effect handling: the running
            # loop below picks the value up when the handler returns.
            self._resume_value = value
            return
        self._advancing = True
        try:
            while True:
                self._advance_inner(value)
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

    def _advance_inner(self, value: Any) -> None:
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
            # callback and return.  The chain is ordered by frequency
            # in the iterative hot loop: drain, compute, send.
            if isinstance(effect, fx.Drain):
                value = self.world.transport.mailboxes[self.rank].drain(effect.tag)
                continue
            if isinstance(effect, fx.Iterate):
                # Host-side numerics now, the simulated cost charged
                # before the coroutine sees the result.
                result = effect.solver.iterate()
                self._compute(result.flops, "compute", result)
                return
            if isinstance(effect, fx.Compute):
                self._compute(effect.flops, effect.label)
                return
            if isinstance(effect, fx.Send):
                handle = self._do_send(effect)
                policy = self.world.policy
                if policy.blocking_send:
                    self._block_until_handle(handle, policy.rendezvous(effect.size))
                    return
                value = handle
                continue
            if isinstance(effect, fx.Now):
                value = engine.now
                continue
            if isinstance(effect, fx.Trace):
                self.world.trace.add_marker(self.rank, engine.now, effect.kind, effect.info)
                value = None
                continue
            if isinstance(effect, fx.Recv):
                if self._try_recv(effect):
                    value = self._recv_value
                    continue
                return
            if isinstance(effect, fx.Sleep):
                self._do_sleep(effect)
                return
            if isinstance(effect, fx.Barrier):
                self.state = ProcessState.BLOCKED
                self._blocked_since = engine.now
                self.world.barrier_arrive(self)
                return
            raise SimulationError(f"{self.name}: unknown effect {effect!r}")

    # ------------------------------------------------------------------
    # effect handlers
    # ------------------------------------------------------------------
    def _compute(self, flops: float, label: str, value: Any = None) -> None:
        """Charge ``flops`` to the host, then resume with ``value``."""
        engine = self.world.engine
        duration = self.host.compute_time(flops)
        self.busy_time += duration
        start = engine.now
        self.world.trace.add_span(self.rank, start, start + duration, "compute", label)
        self._wake_value = value
        engine.post_after(duration, self._wake)

    def _do_sleep(self, effect: fx.Sleep) -> None:
        engine = self.world.engine
        if effect.seconds < 0:
            raise SimulationError("negative sleep")
        self.world.trace.add_span(
            self.rank, engine.now, engine.now + effect.seconds, "idle", effect.label
        )
        engine.post_after(effect.seconds, self._wake)

    def _do_send(self, effect: fx.Send) -> fx.SendHandle:
        handle = fx.SendHandle()
        message = fx.Message(
            src=self.rank,
            dst=effect.dest,
            tag=effect.tag,
            payload=effect.payload,
            size=effect.size,
        )
        if effect.dest == self.rank:
            # Loopback: visible immediately, no transport involvement.
            message.sent_at = self.world.engine.now
            message.delivered_at = self.world.engine.now
            self.world.transport.mailboxes[self.rank].deposit(message)
            handle.complete(self.world.engine.now)
            return handle
        self.world.transport.send(message, handle)
        return handle

    def _block_until_handle(self, handle: fx.SendHandle, rendezvous: bool = False) -> None:
        self.state = ProcessState.BLOCKED
        self._blocked_since = self.world.engine.now
        self._blocked_on = handle
        if rendezvous:
            # Large-message MPI semantics: the send returns only once
            # the receiver has the data.
            handle.on_complete(self._send_unblocked)
        else:
            # Eager/buffered send: resumes when the sender-side
            # transfer is finished (socket buffer drained).
            handle.on_sender_release(self._send_unblocked)

    def _send_unblocked(self, when: float) -> None:
        self.world.trace.add_span(
            self.rank, self._blocked_since, when, "comm", "blocking-send"
        )
        self.state = ProcessState.RUNNING
        self._advance(self._blocked_on)

    def _try_recv(self, effect: fx.Recv) -> bool:
        """Attempt to satisfy a blocking receive immediately.

        Returns True (and stores the messages in ``_recv_value``) when
        enough messages are already visible; otherwise installs a
        mailbox waiter / timeout and returns False.
        """
        mailbox = self.world.transport.mailboxes[self.rank]
        if mailbox.peek_count(effect.tag) >= max(1, effect.count):
            self._recv_value = mailbox.drain(effect.tag)
            return True
        engine = self.world.engine
        self.state = ProcessState.BLOCKED
        self._blocked_since = engine.now
        self._blocked_on = effect
        mailbox.set_waiter(self._recv_wake)
        if effect.timeout is not None:
            self._recv_timer = engine.after(effect.timeout, self._recv_timeout)
        return False

    def _recv_wake(self) -> None:
        """Mailbox waiter: a message became visible while blocked in Recv."""
        effect = self._blocked_on
        mailbox = self.world.transport.mailboxes[self.rank]
        if mailbox.peek_count(effect.tag) < max(1, effect.count):
            mailbox.set_waiter(self._recv_wake)
            return
        if self._recv_timer is not None:
            self._recv_timer.cancel()
            self._recv_timer = None
        self._recv_unblocked(mailbox.drain(effect.tag))

    def _recv_timeout(self) -> None:
        self._recv_timer = None
        self.world.transport.mailboxes[self.rank].clear_waiter()
        self._recv_unblocked([])

    def _recv_unblocked(self, messages: list) -> None:
        self.world.trace.add_span(
            self.rank, self._blocked_since, self.world.engine.now, "comm", "recv-wait"
        )
        self.state = ProcessState.RUNNING
        self._advance(messages)

    # Called by the barrier manager.
    def barrier_release(self, release_time: float) -> None:
        self.world.trace.add_span(
            self.rank, self._blocked_since, release_time, "idle", "barrier"
        )
        self.state = ProcessState.RUNNING
        self.world.engine.post_at(release_time, self._wake)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Process({self.name}, state={self.state.value})"


__all__ = ["Process", "ProcessState"]
