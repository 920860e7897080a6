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
  (software overhead, then the serialisation along the route, as with
  blocking sockets), a *cut-through* traversal of the route (one loop
  chains each hop's serialisation FIFO onto the next link and sums the
  links' live latency, added once at delivery), then the receive path,
  after which the message is *visible* in the destination
  :class:`Mailbox`, whose waiter -- a blocked ``Recv(count=k)`` -- is
  woken once, by the k-th message.

One message costs at most four engine events -- software done, sender
released, arrival, visible -- each a method of the message's
:class:`_Flight` or of a pool (a job is a ``partial`` of the pool's
``_finish``) that does its stage inline, with the policy's costs read
once per transport (see "The simulator's event path" in ``DESIGN.md``).
It costs three when the sender release cannot be observed: nothing to
hold the thread for, or a rendezvous sender blocked until arrival with
no job queued behind it.
"""

from __future__ import annotations

from collections import deque
from functools import partial
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
    it.  Each job is its own engine event, ``partial(_finish, on_done)``;
    the engine's heap orders them, and the pool only counts its busy
    threads.
    """

    _queue: tuple = ()  # jobs waiting for a thread: none in an unbounded pool

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self.busy = 0

    def _finish(self, on_done: Callable[[float], None]) -> None:
        self.busy -= 1
        on_done(self.engine.now)

    # A sending thread stays occupied once the software overhead is
    # paid, until the message has cleared the links (blocking-socket
    # behaviour): the link wait is only known at that instant, so it is
    # chained from ``on_done`` via :meth:`hold`.
    def hold(self, delay: float, on_release: Callable[[float], None]) -> None:
        """Keep the calling thread busy for ``delay`` more seconds."""
        self.busy += 1
        engine = self.engine
        engine.post_at(engine.now + delay, partial(self._finish, on_release))


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
        if self._queue or self.busy >= self.size:
            self._queue.append((duration, on_done))  # until a thread is free
        else:
            self.busy += 1
            engine = self.engine
            engine.post_at(engine.now + duration, partial(self._finish, on_done))

    def _finish(self, on_done: Callable[[float], None]) -> None:
        self.busy -= 1  # as the base class, inline
        engine = self.engine
        on_done(engine.now)
        queue = self._queue
        while queue and self.busy < self.size:
            duration, on_done = queue.popleft() if self.fair else queue.pop()
            self.busy += 1
            engine.post_at(engine.now + duration, partial(self._finish, on_done))


class OnDemandPool(_ServiceThreads):
    """Thread-per-message model: unlimited concurrency, spawn cost."""

    def __init__(self, engine: Engine, spawn_cost: float) -> None:
        super().__init__(engine)
        self.spawn_cost = spawn_cost

    def submit(self, duration: float, on_done: Callable[[float], None]) -> None:
        # One event per job: the thread is spawned, then serves.
        self.busy += 1
        engine = self.engine
        engine.post_at((engine.now + self.spawn_cost) + duration, partial(self._finish, on_done))


# ----------------------------------------------------------------------
# mailbox
# ----------------------------------------------------------------------
class Mailbox:
    """Per-rank store of *visible* messages, grouped by tag."""

    def __init__(self) -> None:
        self._by_tag: Dict[str, List[Message]] = {}
        self._waiter: Optional[Callable[[], None]] = None
        self._wait_tag: Optional[str] = None
        self._wait_count = 1
        self.total_received = 0

    def deposit(self, message: Message) -> None:
        tag = message.tag
        queue = self._by_tag.get(tag)
        if queue is None:
            queue = self._by_tag[tag] = []
        queue.append(message)
        self.total_received += 1
        wait_tag = self._wait_tag
        if self._waiter is not None and (wait_tag == tag or wait_tag is None) and (
            len(queue) if wait_tag == tag else self.peek_count()
        ) >= self._wait_count:
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

    def set_waiter(
        self, callback: Callable[[], None], tag: Optional[str] = None, count: int = 1
    ) -> None:
        """Run ``callback()`` once, at the deposit that makes ``count``
        messages of ``tag`` (any tag: ``None``) visible."""
        if self._waiter is not None:
            raise RuntimeError("mailbox already has a waiter")
        self._waiter = callback
        self._wait_tag = tag
        self._wait_count = count

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
    cleared) -> :meth:`arrive` (last byte at the destination host, the
    receive path submitted) -> :meth:`visible` (receive path done),
    each doing its whole stage inline.

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
        # messages): each hop's serialisation starts FIFO at
        # ``max(t, busy_until)`` and chains onto the next, and the
        # route's latency -- summed live, from 0 in link order, since a
        # fault window changes it in place -- is added once at the end.
        # TCP backpressure keeps the sending thread busy until the
        # message has cleared the bottleneck (the whole serialisation
        # chain): with a single sending thread this serialises a
        # processor's outgoing messages head-of-line -- the very effect
        # Table 4's thread counts are about.
        message = self.message
        size = message.size
        t = now
        latency = 0
        for link in self.route.links:
            busy = link.busy_until
            t = (busy if busy > t else t) + size / link.bandwidth
            link.busy_until = t
            link.bytes_carried += size
            link.transfers += 1
            latency += link.latency
        arrival = t + latency
        decision = self.decision
        if decision is not None and decision.extra_delay > 0.0:
            arrival += decision.extra_delay
        transport = self.transport
        handle = self.handle
        pool = transport._send_pools[message.src]
        if t > now and (
            pool._queue or handle.release_callbacks is not None
            or size < transport.rendezvous_from
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
        transport = self.transport
        self.handle.complete(transport.engine.now)
        decision = self.decision
        if decision is not None and decision.drop:
            return  # lost in the network: no receive path, no mailbox
        # The message reached the destination NIC: run the receive path.
        message = self.message
        pool = transport._recv_pools[message.dst]
        cost = transport._recv_base + transport._recv_per_byte * message.size
        pool.submit(cost, self.visible)
        if decision is not None and decision.duplicate:
            twin = _Flight(transport, message.clone(), None, None, None)
            pool.submit(cost, twin.visible)

    def visible(self, now: float) -> None:
        message = self.message
        message.delivered_at = now
        self.transport.mailboxes[message.dst].deposit(message)


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
        self._send_base = policy.send_base
        self._send_per_byte = policy.send_per_byte
        self._recv_base = policy.recv_base
        self._recv_per_byte = policy.recv_per_byte
        #: Smallest size whose blocking send waits for delivery (MPI
        #: rendezvous); infinite when sends never wait for it.
        self.rendezvous_from = policy.rendezvous_threshold if policy.blocking_send else float("inf")
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
        size = message.size
        if size < 0:
            raise ValueError(f"message size must be >= 0, got {size}")
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
        self.bytes_sent += size
        now = self.engine.now
        message.sent_at = now
        decision = self.faults.on_send(message, now) if self.faults is not None else None
        flight = _Flight(self, message, handle, route, decision)
        self._send_pools[message.src].submit(
            self._send_base + self._send_per_byte * size, flight.software_done
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
        # Rank keys are strings so the stats survive a JSON round trip
        # (run records, trace files) unchanged.
        return {
            "messages_sent": self.messages_sent,
            "bytes_sent": self.bytes_sent,
            "mailbox_received": {
                str(r): mb.total_received for r, mb in self.mailboxes.items()
            },
        }


__all__ = [
    "ThreadPoolModel",
    "OnDemandPool",
    "Mailbox",
    "Transport",
]
