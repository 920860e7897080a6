"""Message transport pipeline: sending threads, links, receive path.

The paper attributes essentially all performance differences between
PM2, MPICH/Madeleine and OmniORB to *the way the threads are managed*
around communications (Sections 5.1 and 6, Table 4).  This module
implements exactly that machinery:

* a :class:`~repro.envs.base.CommPolicy` (built by
  ``Environment.comm_policy``) describes, for one programming
  environment and one problem, how many sending threads exist, whether
  reception uses a dedicated thread pool or threads created on demand,
  the per-message software overheads (packing for PM2, MPI envelope
  for MPI/Mad, ORB marshalling/dispatch for OmniORB), thread spawn
  cost, scheduler fairness, and whether the communications block the
  main thread (classical mono-threaded MPI);
* :class:`ThreadPoolModel` simulates a fixed pool of threads serving a
  job queue in FIFO (fair scheduler, e.g. Marcel) or LIFO (unfair)
  order; :class:`OnDemandPool` simulates thread-per-message creation;
* :class:`Transport` drives a message through: sending-thread occupancy
  (software overhead, then the serialisation of the message along the
  route, as with blocking sockets), *cut-through* traversal of the
  route (each hop's serialisation chains FIFO onto the next link and
  the route's total latency is added once, at delivery), then the
  receive path, after which the message becomes *visible* in the
  destination :class:`Mailbox`.

One message costs at most four engine events -- software done, sender
released, arrival, visible -- all of them methods of the message's
:class:`_Flight` or of the pools, none a per-message closure (see "The
simulator's event path" in ``DESIGN.md``).  It costs three when the
sender release cannot be observed: nothing to hold the thread for, or
a rendezvous sender blocked until arrival with no job queued behind it.
"""

from __future__ import annotations

import itertools
from collections import deque
from heapq import heappop, heappush
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.core.effects import Message, SendHandle, drain_tagged
from repro.envs.base import CommPolicy
from repro.simgrid.engine import Engine
from repro.simgrid.network import Network, Route


# ----------------------------------------------------------------------
# thread pools
# ----------------------------------------------------------------------
class _ServiceThreads:
    """The jobs in service on one pool's threads.

    A job is ``on_done(now)`` plus the time its thread is finished with
    it.  Every job's engine event is the same bound method,
    :meth:`_finish`, which takes the earliest ``(finish time, start
    order)`` off a heap -- the key the engine orders the events by, so
    the job popped is the one whose event is firing.
    """

    _queue: tuple = ()  # jobs waiting for a thread: none in an unbounded pool

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self._running: List[Tuple[float, int, Callable[[float], None]]] = []
        self._order = itertools.count()

    def _occupy(self, finish_time: float, on_done: Callable[[float], None]) -> None:
        heappush(self._running, (finish_time, next(self._order), on_done))
        self.engine.post_at(finish_time, self._finish)

    def _finish(self) -> None:
        heappop(self._running)[2](self.engine.now)

    # A sending thread stays occupied once the software overhead is
    # paid, until the message has cleared the links (blocking-socket
    # behaviour): the link wait is only known at that instant, so it is
    # chained from ``on_done`` via :meth:`hold`.
    def hold(self, delay: float, on_release: Callable[[float], None]) -> None:
        """Keep the calling thread busy for ``delay`` more seconds."""
        self._occupy(self.engine.now + delay, on_release)


class ThreadPoolModel(_ServiceThreads):
    """A fixed-size pool of service threads.

    Jobs are ``(duration, on_done)``.  With a fair scheduler jobs are
    served FIFO; with an unfair one LIFO, which starves old jobs
    exactly as the paper warns in Section 6 ("it is possible to have
    always the same threads working and the same other ones which are
    never activated").
    """

    def __init__(self, engine: Engine, size: int, fair: bool = True) -> None:
        if size < 1:
            raise ValueError("pool size must be >= 1")
        super().__init__(engine)
        self.size = size
        self.fair = fair
        self._queue: Deque[Tuple[float, Callable[[float], None]]] = deque()

    def submit(self, duration: float, on_done: Callable[[float], None]) -> None:
        if self._queue or len(self._running) >= self.size:
            self._queue.append((duration, on_done))  # until a thread is free
        else:
            self._occupy(self.engine.now + duration, on_done)

    def _finish(self) -> None:
        heappop(self._running)[2](self.engine.now)  # as the base class, inline
        queue = self._queue
        while queue and len(self._running) < self.size:
            duration, on_done = queue.popleft() if self.fair else queue.pop()
            self._occupy(self.engine.now + duration, on_done)


class OnDemandPool(_ServiceThreads):
    """Thread-per-message model: unlimited concurrency, spawn cost."""

    def __init__(self, engine: Engine, spawn_cost: float) -> None:
        super().__init__(engine)
        self.spawn_cost = spawn_cost
        self.peak_concurrency = 0

    def submit(self, duration: float, on_done: Callable[[float], None]) -> None:
        # One event per job: the thread is spawned, then serves.
        self._occupy((self.engine.now + self.spawn_cost) + duration, on_done)
        self.peak_concurrency = max(self.peak_concurrency, len(self._running))


# ----------------------------------------------------------------------
# mailbox
# ----------------------------------------------------------------------
class Mailbox:
    """Per-rank store of *visible* messages, grouped by tag."""

    def __init__(self) -> None:
        self._by_tag: Dict[str, List[Message]] = {}
        self._waiter: Optional[Callable[[], None]] = None
        self.total_received = 0

    def deposit(self, message: Message) -> None:
        queue = self._by_tag.get(message.tag)
        if queue is None:
            queue = self._by_tag[message.tag] = []
        queue.append(message)
        self.total_received += 1
        if self._waiter is not None:
            waiter, self._waiter = self._waiter, None
            waiter()

    def drain(self, tag: Optional[str] = None) -> List[Message]:
        """Remove and return visible messages (oldest first); a named
        tag's queue is handed over inline, without the merge helper."""
        messages = self._by_tag.get(tag)
        if messages:
            self._by_tag[tag] = []
            return messages
        return drain_tagged(self._by_tag) if tag is None else []

    def peek_count(self, tag: Optional[str] = None) -> int:
        if tag is None:
            return sum(len(v) for v in self._by_tag.values())
        return len(self._by_tag.get(tag, ()))

    def set_waiter(self, callback: Callable[[], None]) -> None:
        if self._waiter is not None:
            raise RuntimeError("mailbox already has a waiter")
        self._waiter = callback

    def clear_waiter(self) -> None:
        self._waiter = None


# ----------------------------------------------------------------------
# one message in flight
# ----------------------------------------------------------------------
class _Flight:
    """One message on its way through the :class:`Transport`.

    The per-message state lives here once, and the stage callbacks are
    its bound methods: :meth:`software_done` (sending thread paid the
    software overhead) -> ``handle.release_sender`` (thread and links
    cleared) -> :meth:`arrive` (last byte at the destination host) ->
    :meth:`visible` (receive path done).

    The release is an event of its own only when something can observe
    it at that instant.  A rendezvous sender is blocked until arrival,
    which is never earlier than the links clearing; with no release
    callback and no job queued behind it on the sending thread, the
    release is stamped at :meth:`software_done` without an event.
    """

    __slots__ = ("transport", "message", "handle", "route", "decision")

    def __init__(self, transport, message, handle, route, decision) -> None:
        self.transport = transport
        self.message = message
        self.handle = handle
        self.route = route
        self.decision = decision

    def software_done(self, now: float) -> None:
        # Traverse the route cut-through, reserving the links *now*
        # (not at send(): the thread may have queued behind other
        # messages): each hop's serialisation chains FIFO onto the
        # next, and the total propagation latency is added once at the
        # end.  TCP backpressure keeps the sending thread busy until
        # the message has cleared the bottleneck (the whole
        # serialisation chain): with a single sending thread this
        # serialises a processor's outgoing messages head-of-line --
        # the very effect Table 4's thread counts are about.
        message = self.message
        route = self.route
        t = now
        for link in route.links:
            t = link.reserve(t, message.size)[1]
        arrival = t + route.latency
        decision = self.decision
        if decision is not None and decision.extra_delay > 0.0:
            arrival += decision.extra_delay
        transport = self.transport
        handle = self.handle
        pool = transport._send_pools[message.src]
        if t > now and (
            pool._queue or handle.release_observed()
            or not transport.policy.rendezvous(message.size)
        ):
            pool.hold(t - now, handle.release_sender)
        else:
            handle.release_sender(t)
        # Delivery (and hence the skip-send gate) happens when the
        # last byte reaches the destination host.
        transport.engine.post_at(arrival, self.arrive)

    def arrive(self) -> None:
        # The handle always completes -- the skip-send gate must reopen
        # even for a message the fault plan destroys, exactly as a real
        # sender never learns that an unacknowledged datagram died.
        self.handle.complete(self.transport.engine.now)
        decision = self.decision
        if decision is not None and decision.drop:
            return  # lost in the network: no receive path, no mailbox
        self.receive()
        if decision is not None and decision.duplicate:
            _Flight(self.transport, self.message.clone(), None, None, None).receive()

    def receive(self) -> None:
        """Message reached the destination NIC: run the receive path."""
        transport = self.transport
        message = self.message
        transport._recv_pools[message.dst].submit(
            transport.policy.recv_sw_time(message.size), self.visible
        )

    def visible(self, now: float) -> None:
        self.message.delivered_at = now
        self.transport.mailboxes[self.message.dst].deposit(self.message)


# ----------------------------------------------------------------------
# transport
# ----------------------------------------------------------------------
class Transport:
    """Drives messages from sender to receiver through the models above."""

    def __init__(
        self,
        engine: Engine,
        network: Network,
        policy: CommPolicy,
        rank_to_host: Dict[int, str],
    ) -> None:
        self.engine = engine
        self.network = network
        self.policy = policy
        self.rank_to_host = dict(rank_to_host)
        n = len(self.rank_to_host)
        self._send_pools: Dict[int, ThreadPoolModel | OnDemandPool] = {}
        self._recv_pools: Dict[int, ThreadPoolModel | OnDemandPool] = {}
        for rank in self.rank_to_host:
            self._send_pools[rank] = self._make_pool(policy.n_send_threads, n)
            self._recv_pools[rank] = self._make_pool(policy.n_recv_threads, n)
        self.mailboxes: Dict[int, Mailbox] = {r: Mailbox() for r in self.rank_to_host}
        self._routes: Dict[Tuple[int, int], Route] = {}
        self.messages_sent = 0
        self.bytes_sent = 0.0
        # Optional SimFaultInjector (set by World.run when the scenario
        # carries a fault plan); consulted once per message in send().
        self.faults = None

    def _make_pool(self, n_threads: Optional[int], n_ranks: int):
        if n_threads is None:
            return OnDemandPool(self.engine, self.policy.thread_spawn_cost)
        # "N sending threads" in Table 4 means one per peer.
        size = n_threads if n_threads > 0 else max(1, n_ranks - 1)
        return ThreadPoolModel(self.engine, size, fair=self.policy.fair)

    # ------------------------------------------------------------------
    def send(self, message: Message, handle: SendHandle) -> None:
        """Submit a message to the sender-side machinery.

        The sending thread is occupied for the software overhead plus
        the serialisation of the message along the route
        (blocking-socket behaviour).  Once the last byte reaches the
        destination host, the receive path starts; when *that*
        completes the message becomes visible in the mailbox.
        """
        # The Route object is cached per rank pair, never its latency: a
        # fault window changes link latency and bandwidth in place.
        pair = (message.src, message.dst)
        route = self._routes.get(pair)
        if route is None:
            hosts = self.rank_to_host
            if message.dst not in hosts:
                raise KeyError(f"unknown destination rank {message.dst}")
            route = self._routes[pair] = self.network.route(hosts[message.src], hosts[message.dst])
        self.messages_sent += 1
        self.bytes_sent += message.size
        now = self.engine.now
        message.sent_at = now
        decision = self.faults.on_send(message, now) if self.faults is not None else None
        flight = _Flight(self, message, handle, route, decision)
        self._send_pools[message.src].submit(
            self.policy.send_sw_time(message.size), flight.software_done
        )

    # ------------------------------------------------------------------
    def barrier_cost(self, n_ranks: int) -> float:
        """Cost of one global barrier for this policy and topology."""
        if n_ranks <= 1:
            return 0.0
        max_latency = max(
            (link.latency for link in self.network.links), default=0.0
        )
        stages = max(1, (n_ranks - 1).bit_length())
        return self.policy.barrier_beta * stages * max_latency

    def stats(self) -> dict:
        return {
            "messages_sent": self.messages_sent,
            "bytes_sent": self.bytes_sent,
            "mailbox_received": {
                r: mb.total_received for r, mb in self.mailboxes.items()
            },
        }


__all__ = [
    "ThreadPoolModel",
    "OnDemandPool",
    "Mailbox",
    "Transport",
]
