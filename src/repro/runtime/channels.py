"""Thread-safe message channels for the real-thread backend.

One :class:`ChannelHub` serves a whole run: per-rank, per-tag queues of
:class:`~repro.simgrid.message.Message`, with blocking receive
(condition variables) and non-blocking drain -- the thread-backed
equivalents of the simulator's mailbox semantics.

Performance notes (the ``runtime.channel_post_drain_us`` layer metric
of ``benchmarks/perf/``):

* each rank has its *own* lock/condition, so senders to different
  destinations never contend with each other (the old single hub lock
  serialised every post of the whole run);
* drains hand over the queue list itself instead of copy-then-clear,
  and posts notify only when someone is actually waiting, cutting the
  per-message allocation and wakeup overhead.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional

from repro.simgrid.message import Message, drain_tagged


class ChannelClosed(RuntimeError):
    """The hub was closed (timeout reap) while a worker was using it.

    Raised out of ``post``/``receive`` so a worker thread blocked on a
    channel exits promptly instead of waiting forever on messages that
    can no longer arrive; the executor turns it into the rank's error.
    """


class _RankBox:
    """One rank's mailbox: per-tag queues behind the rank's own lock."""

    __slots__ = ("condition", "by_tag", "received", "waiters")

    def __init__(self) -> None:
        self.condition = threading.Condition(threading.Lock())
        self.by_tag: Dict[str, List[Message]] = {}
        self.received = 0
        self.waiters = 0


class ChannelHub:
    """Per-rank mailboxes shared by all worker threads of a run."""

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError("size must be >= 1")
        self.size = size
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
        """Total messages posted so far (sum over all ranks)."""
        return sum(box.received for box in self._boxes)

    # ------------------------------------------------------------------
    def post(self, message: Message) -> None:
        """Deliver a message to its destination mailbox (thread-safe)."""
        if not 0 <= message.dst < self.size:
            raise KeyError(f"unknown destination rank {message.dst}")
        if self._closed:
            raise ChannelClosed("channel hub closed (run reaped)")
        box = self._boxes[message.dst]
        with box.condition:
            message.delivered_at = time.monotonic()
            queue = box.by_tag.get(message.tag)
            if queue is None:
                queue = box.by_tag[message.tag] = []
            queue.append(message)
            box.received += 1
            if box.waiters:
                box.condition.notify_all()

    def drain(self, rank: int, tag: Optional[str] = None) -> List[Message]:
        """Non-blocking removal of all visible messages for ``rank``."""
        box = self._boxes[rank]
        with box.condition:
            return self._drain_locked(box, tag)

    @staticmethod
    def _drain_locked(box: _RankBox, tag: Optional[str]) -> List[Message]:
        return drain_tagged(box.by_tag, tag)

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
        deadline = None if timeout is None else time.monotonic() + timeout
        box = self._boxes[rank]
        needed = max(1, count)
        with box.condition:
            while self._count_locked(box, tag) < needed:
                if self._closed:
                    raise ChannelClosed("channel hub closed (run reaped)")
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return []
                box.waiters += 1
                try:
                    box.condition.wait(remaining)
                finally:
                    box.waiters -= 1
            return self._drain_locked(box, tag)

    @staticmethod
    def _count_locked(box: _RankBox, tag: Optional[str]) -> int:
        if tag is None:
            return sum(len(v) for v in box.by_tag.values())
        return len(box.by_tag.get(tag, ()))

    def pending(self, rank: int, tag: Optional[str] = None) -> int:
        """Visible message count for ``rank`` (optionally one tag)."""
        box = self._boxes[rank]
        with box.condition:
            return self._count_locked(box, tag)


__all__ = ["ChannelHub", "ChannelClosed"]
