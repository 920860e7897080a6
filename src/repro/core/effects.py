"""Effect vocabulary yielded by algorithm coroutines, and what it resumes with.

The AIAC and SISC algorithm implementations in :mod:`repro.core` are
written once as generator coroutines that ``yield`` the effect objects
defined here.  The vocabulary is exactly what the workers yield --
``Send``, ``Recv``, ``Drain``, ``Iterate``, ``Now``, ``Barrier`` and
``Trace`` -- and three interpreters execute it:

* the discrete-event simulator (:mod:`repro.simgrid.process`) charges
  virtual time for an ``Iterate``'s flops and routes ``Send`` through
  the environment's communication model;
* the real-thread and real-process runtime (:mod:`repro.runtime`)
  executes them against channels and the wall clock.

This is how the paper's comparison discipline (Section 5: same
computation scheme, same communication scheme, same convergence
detection, same halting procedure in every environment) is enforced
structurally: the algorithm code cannot differ between environments
because there is only one copy of it.

The values effects resume with live here too: the :class:`SendHandle`
of a ``Send`` and the :class:`Message` records a ``Drain`` or ``Recv``
hands over, merged across tags by :func:`drain_tagged` in
:data:`DELIVERY_ORDER` on every backend.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Dict, List, Optional


class Effect:
    """Base class for all yieldable effects."""

    __slots__ = ()


@dataclass(slots=True)
class SendHandle:
    """Completion handle returned by ``Send``.

    Two milestones are tracked:

    * ``sender_done`` -- the message has fully left the sender (the
      sending thread / socket buffer is released).  An *eager* blocking
      send resumes here, and the AIAC skip-send gate
      (:class:`repro.core.comm.SendScheduler`) reopens the destination:
      "terminated" in Section 4.3 is the sender-side transfer, as in the
      paper's TCP-based implementations.
    * ``done`` -- the message reached the destination host (a
      *rendezvous* blocking send resumes here).

    A callback list exists only once a callback is registered on it:
    ``release_callbacks is None`` tells the simulator that nobody
    watches the sender release.
    """

    done: bool = False
    completed_at: float = float("nan")
    sender_done: bool = False
    sender_done_at: float = float("nan")
    _callbacks: Optional[list] = None
    release_callbacks: Optional[list] = None

    def complete(self, when: float) -> None:
        """Mark delivery to the destination host."""
        if not self.sender_done:
            # Delivery implies the sender finished first.
            self.release_sender(when)
        self.done = True
        self.completed_at = when
        callbacks, self._callbacks = self._callbacks, None
        for cb in callbacks or ():
            cb(when)

    def release_sender(self, when: float) -> None:
        """Mark the sender-side transfer as finished."""
        self.sender_done = True
        self.sender_done_at = when
        callbacks, self.release_callbacks = self.release_callbacks, None
        for cb in callbacks or ():
            cb(when)

    def on_complete(self, callback) -> None:
        """Invoke ``callback(when)`` at delivery (or now if delivered)."""
        if self.done:
            callback(self.completed_at)
        else:
            self._callbacks = [*(self._callbacks or ()), callback]

    def on_sender_release(self, callback) -> None:
        """Invoke ``callback(when)`` at sender-side completion."""
        if self.sender_done:
            callback(self.sender_done_at)
        else:
            self.release_callbacks = [*(self.release_callbacks or ()), callback]


@dataclass(slots=True)
class Send(Effect):
    """Asynchronously send ``payload`` to rank ``dest``.

    The effect resumes immediately (asynchronous semantics); the
    returned :class:`SendHandle` tracks completion of the sender-side
    transfer.  ``size`` is the wire size in bytes used by the transport
    model.
    """

    dest: int
    tag: str
    payload: Any
    size: float = 0.0


@dataclass(slots=True)
class Iterate(Effect):
    """Run one local-solver iteration and charge its ``flops``.

    Resumes with the solver's ``LocalIteration`` (anything with a
    ``flops`` attribute) once its flops are charged: virtual time and a
    ``"compute"`` span on the simulator, the closed work segment on the
    wall-clock backends.  Every interpreter calls ``solver.iterate()``
    inline.
    """

    solver: Any


@dataclass(slots=True)
class Drain(Effect):
    """Collect every message currently *visible* to this rank.

    Non-blocking.  Resumes with a list of :class:`Message`
    whose tag matches ``tag`` (or all tags when ``tag`` is ``None``).
    This models the paper's reception threads: received data "are taken
    into account in the computations" as soon as they have been handled
    by a reception thread.
    """

    tag: Optional[str] = None


@dataclass(slots=True)
class Recv(Effect):
    """Block until at least one message with ``tag`` is visible.

    Resumes with the list of all visible matching messages (at least
    one).  ``timeout`` bounds the wait in seconds; on timeout the
    effect resumes with an empty list.  Used by the synchronous (SISC)
    algorithms, where receipts are explicitly localised in the program
    sequence -- exactly the MPI constraint the paper criticises.
    """

    tag: Optional[str] = None
    count: int = 1
    timeout: Optional[float] = None


@dataclass(slots=True)
class Barrier(Effect):
    """Synchronise with all other ranks of the run.

    The simulator charges the environment's barrier cost; the thread
    backend uses a real ``threading.Barrier``.
    """

    label: str = "barrier"


@dataclass(slots=True)
class Now(Effect):
    """Resume immediately with the current (virtual or wall) time."""


@dataclass(slots=True)
class Trace(Effect):
    """Record an application-level trace marker (iteration start...)."""

    kind: str
    info: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# messages: what Drain and Recv resume with
# ----------------------------------------------------------------------
_MESSAGE_IDS = itertools.count()

#: Merge order when draining across tags: visibility time, then uid.
DELIVERY_ORDER = attrgetter("delivered_at", "uid")


@dataclass
class Message:
    """A tagged message between two ranks.

    Attributes
    ----------
    src, dst:
        Sender / receiver ranks.
    tag:
        Application-level tag (``"data"``, ``"state"``, ``"stop"``...).
    payload:
        Arbitrary Python object; for data messages this is typically a
        ``(block_index, numpy array)`` pair.
    size:
        Size in bytes used by the transport model.  For the wall-clock
        backends this is informational only.
    sent_at:
        Virtual (or wall) time at which the send was issued.
    delivered_at:
        Time at which the message became *visible* to the receiver,
        i.e. after network transfer and receive-path handling.  Filled
        by the transport.
    """

    src: int
    dst: int
    tag: str
    payload: Any
    size: float = 0.0
    sent_at: float = 0.0
    delivered_at: float = float("nan")
    uid: int = field(default_factory=_MESSAGE_IDS.__next__)

    def clone(self) -> "Message":
        """A fresh-uid copy (a duplicated delivery must be two messages)."""
        return Message(
            src=self.src, dst=self.dst, tag=self.tag,
            payload=self.payload, size=self.size, sent_at=self.sent_at,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Message(#{self.uid} {self.src}->{self.dst} tag={self.tag!r} "
            f"size={self.size:g} sent={self.sent_at:.6f})"
        )


def drain_tagged(
    by_tag: Dict[str, List[Message]], tag: Optional[str] = None
) -> List[Message]:
    """Remove and return visible messages from a per-tag queue dict.

    The one merge algorithm behind both mailbox flavours (the
    simulator's :class:`repro.simgrid.comm.Mailbox` and the wall-clock
    backends' :class:`repro.runtime.channels.Mailbox`): with a
    ``tag``, hand over that queue in deposit order; without one, merge
    every non-empty queue in :data:`DELIVERY_ORDER` (sorted even for a
    single queue -- deposit order and uid order can differ when
    transports deliver at equal times).  Queues are handed over
    (replaced by fresh lists) rather than copied -- callers own the
    result, and per-message allocation stays minimal.  Not thread-safe;
    callers hold their own locks.
    """
    if tag is None:
        non_empty = [(key, messages) for key, messages in by_tag.items() if messages]
        if not non_empty:
            return []
        if len(non_empty) == 1:
            key, messages = non_empty[0]
            by_tag[key] = []
            # Near-sorted already: timsort makes this ~O(n).
            messages.sort(key=DELIVERY_ORDER)
            return messages
        out: List[Message] = []
        for key, messages in non_empty:
            out.extend(messages)
            by_tag[key] = []
        out.sort(key=DELIVERY_ORDER)
        return out
    messages = by_tag.get(tag)
    if not messages:
        return []
    by_tag[tag] = []
    return messages


__all__ = [
    "Effect",
    "Send",
    "SendHandle",
    "Drain",
    "Iterate",
    "Recv",
    "Barrier",
    "Now",
    "Trace",
    "Message",
    "DELIVERY_ORDER",
    "drain_tagged",
]
