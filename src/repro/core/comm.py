"""Asynchronous send scheduling with the paper's skip-send rule.

Section 4.3: "Data are actually sent only if any previous sending of
the same data to the same destination is terminated.  Otherwise, the
sending is not performed at this iteration but is delayed to the next
iteration."  This throttles senders to the throughput of the slowest
path instead of piling an unbounded backlog onto slow links -- an
essential ingredient of AIAC robustness on ADSL-class networks.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Set

from repro.core.effects import SendHandle


class SendScheduler:
    """The skip-send gate of one tag, keyed by destination.

    A destination is *busy* from the send recorded for it until that
    send's handle releases the sender.  "Terminated" is sender-side
    completion (the write drained through the bottleneck link), as in
    the paper's TCP-based implementations; because the transport holds
    the sending thread until the message clears the whole serialisation
    chain, this still bounds the in-flight messages per destination.
    """

    def __init__(self) -> None:
        self._in_flight: Dict[int, SendHandle] = {}
        self._busy: Set[int] = set()
        self.sent = 0
        self.skipped = 0

    def ready(self, outgoing: Mapping[int, Any]) -> List[int]:
        """The destinations of ``outgoing`` whose gate is open, sorted;
        the others are counted as skipped (delayed to a later offer)."""
        if outgoing.keys() <= self._busy:  # every gate closed: no set, no sort
            self.skipped += len(outgoing)
            return []
        ready = sorted(outgoing.keys() - self._busy)
        self.skipped += len(outgoing) - len(ready)
        return ready

    def record(self, dest: int, handle: SendHandle) -> None:
        """Close ``dest``'s gate until ``handle`` releases the sender
        (at once for a handle that is already released)."""
        self._in_flight[dest] = handle
        self._busy.add(dest)
        self.sent += 1
        handle.on_sender_release(lambda _when: self._busy.discard(dest))

    def pending_count(self) -> int:
        """Recorded sends not yet delivered."""
        return sum(1 for h in self._in_flight.values() if not h.done)


__all__ = ["SendScheduler"]
