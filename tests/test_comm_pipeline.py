"""Tests for the transport pipeline: pools, mailboxes, delivery."""

import pytest

from repro.clusters import uniform_cluster
from repro.simgrid.comm import (
    CommPolicy,
    Mailbox,
    OnDemandPool,
    ThreadPoolModel,
    Transport,
)
from repro.simgrid.effects import SendHandle
from repro.simgrid.engine import Engine
from repro.simgrid.message import Message


# ----------------------------------------------------------------------
# thread pools
# ----------------------------------------------------------------------
def test_fixed_pool_limits_concurrency():
    engine = Engine()
    done = []
    pool = ThreadPoolModel(engine, size=2)
    for i in range(4):
        pool.submit(1.0, lambda t, i=i: done.append((i, t)))
    engine.run()
    # Two run [0,1], two run [1,2].
    assert [t for _, t in done] == [1.0, 1.0, 2.0, 2.0]


def test_fair_pool_serves_fifo():
    engine = Engine()
    order = []
    pool = ThreadPoolModel(engine, size=1, fair=True)
    for i in range(3):
        pool.submit(1.0, lambda t, i=i: order.append(i))
    engine.run()
    assert order == [0, 1, 2]


def test_unfair_pool_serves_lifo():
    """Section 6: an unfair scheduler starves the oldest jobs."""
    engine = Engine()
    order = []
    pool = ThreadPoolModel(engine, size=1, fair=False)

    def submit_all():
        for i in range(3):
            pool.submit(1.0, lambda t, i=i: order.append(i))

    engine.at(0.0, submit_all)
    engine.run()
    # Job 0 starts immediately (pool idle); then LIFO picks 2 before 1.
    assert order == [0, 2, 1]


def test_pool_hold_keeps_thread_busy():
    engine = Engine()
    done = []
    pool = ThreadPoolModel(engine, size=1)

    def first_done(t):
        pool.hold(2.0, lambda t2: done.append(("hold", t2)))

    pool.submit(1.0, first_done)
    pool.submit(1.0, lambda t: done.append(("second", t)))
    engine.run()
    assert ("hold", 3.0) in done
    # The second job could only start after the hold released the thread.
    assert ("second", 4.0) in done


def test_pool_finish_events_reach_the_right_job():
    """Every job of a pool finishes through the same bound method; a
    short job started after a long one must still get *its* callback."""
    engine = Engine()
    done = []
    pool = ThreadPoolModel(engine, size=3)
    for name, duration in (("long", 5.0), ("short", 1.0), ("mid", 3.0), ("queued", 1.0)):
        pool.submit(duration, lambda t, name=name: done.append((name, t)))
    engine.run()
    # "queued" takes the thread "short" frees at t=1.
    assert done == [("short", 1.0), ("queued", 2.0), ("mid", 3.0), ("long", 5.0)]
    assert engine.events_processed == 4  # one event per job


def test_queued_jobs_keep_their_turn_when_a_callback_submits():
    engine = Engine()
    order = []
    pool = ThreadPoolModel(engine, size=1, fair=True)

    def first(t):
        order.append("first")
        pool.submit(1.0, lambda t: order.append("late"))  # thread is free *now*

    pool.submit(1.0, first)
    pool.submit(1.0, lambda t: order.append("second"))
    engine.run()
    assert order == ["first", "second", "late"]


def test_on_demand_pool_hold_and_one_event_per_job():
    engine = Engine()
    done = []
    pool = OnDemandPool(engine, spawn_cost=0.5)
    pool.submit(1.0, lambda t: pool.hold(2.0, lambda t2: done.append(("hold", t2))))
    pool.submit(0.25, lambda t: done.append(("quick", t)))
    engine.run()
    assert done == [("quick", 0.75), ("hold", 3.5)]
    assert engine.events_processed == 3  # spawn + service is one event


def test_pool_requires_positive_size():
    with pytest.raises(ValueError):
        ThreadPoolModel(Engine(), size=0)


def test_on_demand_pool_unbounded_concurrency():
    engine = Engine()
    done = []
    pool = OnDemandPool(engine, spawn_cost=0.5)
    for i in range(5):
        pool.submit(1.0, lambda t, i=i: done.append(t))
    engine.run()
    assert done == [1.5] * 5
    assert pool.peak_concurrency == 5


def test_on_demand_pool_charges_spawn_cost():
    engine = Engine()
    done = []
    OnDemandPool(engine, spawn_cost=0.25).submit(1.0, lambda t: done.append(t))
    engine.run()
    assert done == [1.25]


# ----------------------------------------------------------------------
# mailbox
# ----------------------------------------------------------------------
def _msg(tag: str, uid_time: float = 0.0) -> Message:
    m = Message(src=0, dst=1, tag=tag, payload=None)
    m.delivered_at = uid_time
    return m


def test_mailbox_drain_by_tag():
    box = Mailbox()
    box.deposit(_msg("a"))
    box.deposit(_msg("b"))
    assert [m.tag for m in box.drain("a")] == ["a"]
    assert box.peek_count("a") == 0
    assert box.peek_count("b") == 1


def test_mailbox_drain_all_sorted_by_delivery():
    box = Mailbox()
    box.deposit(_msg("a", 2.0))
    box.deposit(_msg("b", 1.0))
    drained = box.drain()
    assert [m.tag for m in drained] == ["b", "a"]


def test_mailbox_waiter_fires_once():
    box = Mailbox()
    calls = []
    box.set_waiter(lambda: calls.append(1))
    box.deposit(_msg("a"))
    box.deposit(_msg("a"))
    assert calls == [1]


def test_mailbox_single_waiter_enforced():
    box = Mailbox()
    box.set_waiter(lambda: None)
    with pytest.raises(RuntimeError):
        box.set_waiter(lambda: None)


# ----------------------------------------------------------------------
# transport
# ----------------------------------------------------------------------
def _transport(policy=None, n=3):
    net = uniform_cluster(n_hosts=n, bandwidth=1e6, latency=1e-3)
    engine = Engine()
    policy = policy or CommPolicy(name="t", send_base=1e-4, recv_base=1e-4)
    rank_to_host = {i: f"node{i}" for i in range(n)}
    return engine, Transport(engine, net, policy, rank_to_host)


def test_message_delivery_and_visibility():
    engine, transport = _transport()
    handle = SendHandle()
    msg = Message(src=0, dst=1, tag="data", payload=42, size=1000.0)
    transport.send(msg, handle)
    engine.run()
    assert handle.done and handle.sender_done
    visible = transport.mailboxes[1].drain("data")
    assert len(visible) == 1 and visible[0].payload == 42
    # Delivery respects software + serialisation + latency lower bound.
    assert visible[0].delivered_at >= 1e-4 + 1000.0 / 1e6 + 1e-3


def test_one_message_is_four_engine_events():
    """Software done, sender released, arrival, visible -- and three
    when there is nothing to hold the sending thread for (size 0)."""
    for recv_threads in (1, None):
        policy = CommPolicy(name="t", n_send_threads=1, n_recv_threads=recv_threads)
        engine, transport = _transport(policy)
        transport.send(Message(src=0, dst=1, tag="d", payload=None, size=1000.0), SendHandle())
        engine.run()
        assert engine.events_processed == 4
        transport.send(Message(src=0, dst=2, tag="d", payload=None, size=0.0), SendHandle())
        engine.run()
        assert engine.events_processed == 4 + 3


RENDEZVOUS = CommPolicy(name="t", n_send_threads=1, blocking_send=True,
                        rendezvous_threshold=500.0)


def test_rendezvous_blocked_sender_costs_three_events():
    """The sender of a rendezvous send is blocked until arrival, so
    nothing observes its release: no event, but the release is still
    stamped at the instant the links clear."""
    engine, transport = _transport(RENDEZVOUS)
    handle = SendHandle()
    transport.send(Message(src=0, dst=1, tag="d", payload=None, size=1000.0), handle)
    engine.run()
    assert engine.events_processed == 3
    assert handle.sender_done_at == 1e-4 + 1000.0 / 1e6  # software, then the lan
    assert handle.completed_at == handle.sender_done_at + 1e-3


@pytest.mark.parametrize("case", ["observer", "eager", "queued"])
def test_an_observable_release_keeps_its_event(case):
    """A release callback, an eager blocking send or a job queued behind
    the message on the sending thread each keep the fourth event."""
    engine, transport = _transport(RENDEZVOUS)
    handle = SendHandle()
    size = 100.0 if case == "eager" else 1000.0
    if case == "observer":
        handle.on_sender_release(lambda when: None)
    transport.send(Message(src=0, dst=1, tag="d", payload=None, size=size), handle)
    if case == "queued":
        transport.send(Message(src=0, dst=2, tag="d", payload=None, size=size), SendHandle())
    engine.run()
    # The queued second message is the last on its thread: three events.
    assert engine.events_processed == (4 + 3 if case == "queued" else 4)
    assert handle.sender_done_at == 1e-4 + size / 1e6


def test_route_cache_follows_a_degraded_link():
    """Routes are cached per rank pair, their latency is not: a link
    degraded in place slows the pair's next message by exactly the
    added latency, and the pair recovers when the window closes."""
    from types import SimpleNamespace

    from repro.api.faults import FaultPlan, LinkDegradation
    from repro.simgrid.faults import SimFaultInjector

    engine, transport = _transport()
    handles = {}

    def send_at(when):
        handles[when] = handle = SendHandle()
        engine.post_at(when, lambda: transport.send(
            Message(src=0, dst=1, tag="d", payload=None, size=1000.0), handle))

    send_at(0.0)
    engine.run()  # the pair's route is cached from here on
    plan = FaultPlan(events=(LinkDegradation(start=10.0, end=20.0, latency_add=0.5),))
    SimFaultInjector(plan).install(
        SimpleNamespace(engine=engine, network=transport.network, hosts=[]))
    send_at(12.0)
    send_at(25.0)
    engine.run()
    nominal = handles[0.0].completed_at
    assert handles[12.0].completed_at - 12.0 == pytest.approx(nominal + 0.5, abs=1e-12)
    assert handles[25.0].completed_at - 25.0 == pytest.approx(nominal, abs=1e-12)


def test_links_are_reserved_at_software_done_not_at_send():
    """A message queued behind another on the single sending thread
    books its links when the thread gets to it: the second message's
    transfer starts where the first one's ended."""
    policy = CommPolicy(name="t", n_send_threads=1, send_base=0.5, recv_base=0.0)
    engine, transport = _transport(policy)
    handles = [SendHandle(), SendHandle()]
    for handle in handles:
        transport.send(Message(src=0, dst=1, tag="d", payload=None, size=1e6), handle)
    engine.run()
    # 0.5 s software then 1 s on the link, twice over: the thread is
    # held until 1.5, so the second transfer occupies the link 2.0-3.0
    # (booked at send() it would have been 1.0-2.0).
    assert handles[0].sender_done_at == pytest.approx(1.5)
    assert handles[1].sender_done_at == pytest.approx(3.0)


def test_sender_release_before_delivery():
    engine, transport = _transport()
    handle = SendHandle()
    transport.send(Message(src=0, dst=1, tag="d", payload=None, size=1000.0), handle)
    engine.run()
    assert handle.sender_done_at <= handle.completed_at
    # Latency separates release (occupancy end) from delivery.
    assert handle.completed_at - handle.sender_done_at >= 1e-3 - 1e-12


def test_per_pair_fifo_ordering():
    engine, transport = _transport()
    for i in range(5):
        transport.send(
            Message(src=0, dst=1, tag="d", payload=i, size=500.0), SendHandle()
        )
    engine.run()
    received = transport.mailboxes[1].drain("d")
    assert [m.payload for m in received] == [0, 1, 2, 3, 4]


def test_unknown_destination_rejected():
    engine, transport = _transport()
    with pytest.raises(KeyError):
        transport.send(Message(src=0, dst=99, tag="d", payload=None), SendHandle())


def test_barrier_cost_scales_with_log_ranks():
    engine, transport = _transport()
    c2 = transport.barrier_cost(2)
    c8 = transport.barrier_cost(8)
    assert 0 < c2 < c8
    assert transport.barrier_cost(1) == 0.0


def test_transport_stats_accumulate():
    engine, transport = _transport()
    transport.send(Message(src=0, dst=1, tag="d", payload=None, size=100.0), SendHandle())
    transport.send(Message(src=1, dst=2, tag="d", payload=None, size=200.0), SendHandle())
    engine.run()
    stats = transport.stats()
    assert stats["messages_sent"] == 2
    assert stats["bytes_sent"] == 300.0


def test_single_recv_thread_serialises_handling():
    policy = CommPolicy(name="t", n_recv_threads=1, send_base=0.0, recv_base=1.0)
    engine, transport = _transport(policy)
    for i in range(3):
        transport.send(
            Message(src=0, dst=1, tag="d", payload=i, size=1.0), SendHandle()
        )
    engine.run()
    received = transport.mailboxes[1].drain("d")
    times = [m.delivered_at for m in received]
    # Each message waits for the previous one's 1 s handling.
    assert times[1] - times[0] == pytest.approx(1.0, abs=1e-6)
    assert times[2] - times[1] == pytest.approx(1.0, abs=1e-6)


def test_on_demand_recv_threads_handle_concurrently():
    policy = CommPolicy(
        name="t", n_recv_threads=None, send_base=0.0, recv_base=1.0,
        thread_spawn_cost=0.0,
    )
    engine, transport = _transport(policy)
    for i in range(3):
        transport.send(
            Message(src=0, dst=1, tag="d", payload=i, size=1.0), SendHandle()
        )
    engine.run()
    received = transport.mailboxes[1].drain("d")
    times = [m.delivered_at for m in received]
    # Handled in parallel: visibility spaced only by link serialisation.
    assert times[2] - times[0] < 0.5


def test_policy_with_overrides():
    policy = CommPolicy(name="p", send_base=1.0)
    changed = policy.with_overrides(send_base=2.0)
    assert changed.send_base == 2.0 and policy.send_base == 1.0
    assert changed.name == "p"


def test_policy_cost_helpers():
    policy = CommPolicy(name="p", send_base=1.0, send_per_byte=0.1,
                        recv_base=2.0, recv_per_byte=0.2)
    assert policy.send_sw_time(10.0) == pytest.approx(2.0)
    assert policy.recv_sw_time(10.0) == pytest.approx(4.0)
