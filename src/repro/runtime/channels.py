"""The mailbox of the two wall-clock backends, and the threaded hub.

:class:`Mailbox` is one rank's receive side: per-tag queues of
:class:`~repro.core.effects.Message` plus a heap of delayed
messages, with no lock and no waiting of its own.  :class:`ChannelHub`
feeds one per rank under the rank's own ``Condition`` (so senders to
different destinations never contend); a process feeds its own from a
``multiprocessing.Queue``
(:class:`repro.runtime.process_hub.ProcessEndpoint`).  :func:`fates` is
the one place a fault decision becomes deliveries.  A delayed message
travels at once with its due time (``time.monotonic()``, system-wide
across processes) and waits at its *receiver*, whose waits are capped
at the next due time.
"""

from __future__ import annotations

import heapq
import math
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.effects import Message, drain_tagged


class ChannelClosed(RuntimeError):
    """The hub was closed (timeout reap) while a worker was using it.

    Raised out of ``post``/``receive`` so a worker thread blocked on a
    channel exits promptly instead of waiting forever on messages that
    can no longer arrive; the executor turns it into the rank's error.
    """


def fates(injector, message: Message) -> Tuple[Tuple[Message, float], ...]:
    """The ``(message, due)`` deliveries ``injector`` makes of ``message``.

    One without an injector; none for a dropped message; two for a
    duplicated one (the copy under a fresh uid).  ``due`` is ``0.0``
    (visible at once) unless the message is delayed.
    """
    if injector is None:
        return ((message, 0.0),)
    decision = injector.on_send(message, injector.now())
    if decision.drop:
        return ()
    due = 0.0
    if decision.extra_delay > 0.0:
        due = time.monotonic() + decision.extra_delay
    if decision.duplicate:
        return ((message, due), (message.clone(), due))
    return ((message, due),)


class Mailbox:
    """One rank's visible per-tag queues plus its delayed-message heap."""

    __slots__ = ("by_tag", "delayed")

    def __init__(self) -> None:
        self.by_tag: Dict[str, List[Message]] = {}
        self.delayed: List[Tuple[float, int, Message]] = []

    def put(self, message: Message, due: float = 0.0) -> None:
        """Deposit ``message``: visible now, or once ``due`` has passed."""
        if due:
            heapq.heappush(self.delayed, (due, message.uid, message))
            return
        message.delivered_at = time.monotonic()
        queue = self.by_tag.get(message.tag)
        if queue is None:
            queue = self.by_tag[message.tag] = []
        queue.append(message)

    def _release(self) -> None:
        """Make every delayed message whose due time has passed visible."""
        delayed = self.delayed
        now = time.monotonic()
        while delayed and delayed[0][0] <= now:
            message = heapq.heappop(delayed)[2]
            message.delivered_at = now
            self.by_tag.setdefault(message.tag, []).append(message)

    def count(self, tag: Optional[str] = None) -> int:
        """Visible message count (optionally of one tag)."""
        if self.delayed:
            self._release()
        if tag is None:
            return sum(len(v) for v in self.by_tag.values())
        return len(self.by_tag.get(tag, ()))

    def take(self, tag: Optional[str] = None) -> List[Message]:
        """Remove and return every visible message (optionally of one tag)."""
        if self.delayed:
            self._release()
        return drain_tagged(self.by_tag, tag)

    def receive(
        self,
        tag: Optional[str],
        count: int,
        timeout: Optional[float],
        wait: Callable[[Optional[float]], None],
    ) -> List[Message]:
        """Take the visible ``tag`` messages once there are ``count``.

        ``wait(seconds)`` blocks the caller until its feed may have put
        more (``seconds=None``: no bound).  Its bound is the time left
        to ``timeout`` or to the next due time, whichever comes first.
        Returns ``[]`` once ``timeout`` elapses.
        """
        deadline = math.inf if timeout is None else time.monotonic() + timeout
        needed = max(1, count)
        while self.count(tag) < needed:
            now = time.monotonic()
            if deadline <= now:
                return []
            until = min(deadline, self.delayed[0][0]) if self.delayed else deadline
            wait(None if until == math.inf else max(0.0, until - now))
        return self.take(tag)


class _RankBox(Mailbox):
    """A threaded rank's mailbox behind the rank's own lock."""

    __slots__ = ("condition", "received", "waiters")

    def __init__(self) -> None:
        super().__init__()
        self.condition = threading.Condition(threading.Lock())
        self.received = 0
        self.waiters = 0


class ChannelHub:
    """Per-rank mailboxes shared by all worker threads of a run.

    ``injector`` is an optional
    :class:`~repro.runtime.faults.ThreadFaultInjector` deciding every
    post's :func:`fates`.
    """

    def __init__(self, size: int, injector=None) -> None:
        if size < 1:
            raise ValueError("size must be >= 1")
        self.size = size
        self.injector = injector
        self._closed = False
        self._boxes = [_RankBox() for _ in range(size)]

    def close(self) -> None:
        """Poison the hub: wake every blocked receive, fail new traffic.

        The timeout-reap path of the executor: threads stuck in
        :meth:`receive` wake up and see :class:`ChannelClosed`, so a
        hung run is torn down instead of leaking blocked threads.
        Idempotent; never called on the happy path.
        """
        self._closed = True
        for box in self._boxes:
            with box.condition:
                box.condition.notify_all()

    @property
    def messages_sent(self) -> int:
        """Total deliveries posted so far (sum over all ranks)."""
        return sum(box.received for box in self._boxes)

    # ------------------------------------------------------------------
    def post(self, message: Message) -> None:
        """Deliver a message to its destination mailbox (thread-safe)."""
        if not 0 <= message.dst < self.size:
            raise KeyError(f"unknown destination rank {message.dst}")
        if self._closed:
            raise ChannelClosed("channel hub closed (run reaped)")
        deliveries = fates(self.injector, message)
        box = self._boxes[message.dst]
        with box.condition:
            for delivered, due in deliveries:
                box.put(delivered, due)
            box.received += len(deliveries)
            # A delayed message wakes a waiter too: its wait bound moves.
            if box.waiters and deliveries:
                box.condition.notify_all()

    def drain(self, rank: int, tag: Optional[str] = None) -> List[Message]:
        """Non-blocking removal of all visible messages for ``rank``."""
        box = self._boxes[rank]
        with box.condition:
            return box.take(tag)

    def receive(
        self,
        rank: int,
        tag: Optional[str] = None,
        count: int = 1,
        timeout: Optional[float] = None,
    ) -> List[Message]:
        """Block until ``count`` messages with ``tag`` are visible.

        Returns all visible matching messages (empty list on timeout).
        """
        box = self._boxes[rank]

        def wait(seconds: Optional[float]) -> None:
            if self._closed:
                raise ChannelClosed("channel hub closed (run reaped)")
            box.waiters += 1
            try:
                box.condition.wait(seconds)
            finally:
                box.waiters -= 1

        with box.condition:
            return box.receive(tag, count, timeout, wait)


__all__ = ["ChannelHub", "ChannelClosed", "Mailbox", "fates"]
