"""Integration tests of the coroutine interpreter and World container."""

import sys

import pytest

from repro.clusters import uniform_cluster
from repro.envs import get_environment
from repro.simgrid.effects import (
    Barrier,
    Compute,
    Drain,
    Now,
    Recv,
    Send,
    SendHandle,
    Sleep,
    Trace,
)
from repro.simgrid.engine import SimulationError
from repro.simgrid.comm import CommPolicy
from repro.simgrid.world import ProcessFailure, World

POLICY = CommPolicy(name="test", send_base=1e-4, recv_base=1e-4)


def make_world(n=2, policy=POLICY, **kwargs):
    return World(uniform_cluster(n_hosts=n, speed=1e6, latency=1e-3), policy, **kwargs)


def test_compute_advances_virtual_time():
    world = make_world(1)

    def proc(rank, size):
        yield Compute(2e6)  # 2 seconds at 1e6 flop/s
        return (yield Now())

    world.spawn(proc(0, 1))
    world.run()
    assert world.results[0] == pytest.approx(2.0)


def test_sleep_is_idle_time():
    world = make_world(1)

    def proc(rank, size):
        yield Sleep(1.5)
        return (yield Now())

    world.spawn(proc(0, 1))
    world.run()
    assert world.results[0] == pytest.approx(1.5)
    assert world.trace.spans_for(0, "idle")


def test_send_and_blocking_recv():
    world = make_world(2)

    def sender(rank, size):
        yield Compute(1e6)
        yield Send(1, "data", {"x": 7}, 100.0)
        return "sent"

    def receiver(rank, size):
        msgs = yield Recv("data", count=1)
        return msgs[0].payload

    world.spawn(sender(0, 2))
    world.spawn(receiver(1, 2))
    world.run()
    assert world.results[1] == {"x": 7}


def test_recv_timeout_returns_empty():
    world = make_world(2)

    def receiver(rank, size):
        msgs = yield Recv("never", timeout=0.5)
        return (msgs, (yield Now()))

    def idle(rank, size):
        yield Sleep(1.0)

    world.spawn(receiver(0, 2))
    world.spawn(idle(1, 2))
    world.run()
    msgs, t = world.results[0]
    assert msgs == [] and t == pytest.approx(0.5)


def test_drain_is_nonblocking():
    world = make_world(2)

    def receiver(rank, size):
        first = yield Drain("data")
        yield Sleep(1.0)
        second = yield Drain("data")
        return (len(first), len(second))

    def sender(rank, size):
        yield Send(1, "data", 1, 10.0)

    world.spawn(sender(0, 2))
    world.spawn(receiver(1, 2))
    world.run()
    assert world.results[1] == (0, 1)


def test_send_returns_handle():
    world = make_world(2)

    def sender(rank, size):
        handle = yield Send(1, "d", None, 10.0)
        return isinstance(handle, SendHandle)

    def receiver(rank, size):
        yield Recv("d")

    world.spawn(sender(0, 2))
    world.spawn(receiver(1, 2))
    world.run()
    assert world.results[0] is True


def test_loopback_send_visible_immediately():
    world = make_world(1)

    def proc(rank, size):
        yield Send(0, "self", "hello", 10.0)
        msgs = yield Drain("self")
        return msgs[0].payload

    world.spawn(proc(0, 1))
    world.run()
    assert world.results[0] == "hello"


def test_barrier_synchronises_all_ranks():
    world = make_world(3)

    def proc(rank, size):
        yield Compute((rank + 1) * 1e6)  # 1, 2, 3 seconds
        yield Barrier()
        return (yield Now())

    for r in range(3):
        world.spawn(proc(r, 3))
    world.run()
    times = list(world.results.values())
    assert max(times) - min(times) < 1e-9
    assert min(times) >= 3.0  # everyone waits for the slowest


def test_blocking_send_policy_occupies_process():
    blocking = CommPolicy(
        name="sync", send_base=1e-4, recv_base=1e-4,
        blocking_send=True, blocking_recv=True,
    )
    world = make_world(2, policy=blocking)

    def sender(rank, size):
        yield Send(1, "d", None, 1.25e7)  # 1 second of serialisation at 100 Mb/s
        return (yield Now())

    def receiver(rank, size):
        yield Recv("d")

    world.spawn(sender(0, 2))
    world.spawn(receiver(1, 2))
    world.run()
    assert world.results[0] >= 1.0  # held for the transfer
    assert world.trace.spans_for(0, "comm")


def test_rendezvous_send_waits_for_delivery():
    eager = CommPolicy(name="e", blocking_send=True, rendezvous_threshold=float("inf"),
                       send_base=0.0, recv_base=0.0)
    rendezvous = eager.with_overrides(name="r", rendezvous_threshold=1.0)
    results = {}
    for label, policy in [("eager", eager), ("rendezvous", rendezvous)]:
        world = make_world(2, policy=policy)

        def sender(rank, size):
            yield Send(1, "d", None, 1e5)
            return (yield Now())

        def receiver(rank, size):
            yield Recv("d")

        world.spawn(sender(0, 2))
        world.spawn(receiver(1, 2))
        world.run()
        results[label] = world.results[0]
    # Rendezvous additionally waits for the route latency.
    assert results["rendezvous"] > results["eager"]


BLOCKING = CommPolicy(
    name="blocking", send_base=1e-4, recv_base=1e-4,
    blocking_send=True, blocking_recv=True,
)


def _stack_depth() -> int:
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_loopback_blocking_sends_do_not_grow_the_stack():
    """A blocking send to oneself completes inside its own effect
    handling; the trampoline hands the resume to the running loop
    instead of re-entering the generator (or recursing)."""
    world = make_world(1, policy=BLOCKING)
    count = 10_000
    depths = set()

    def proc(rank, size):
        for i in range(count):
            handle = yield Send(0, "self", i, 8.0)
            assert isinstance(handle, SendHandle) and handle.done
            depths.add(_stack_depth())
        msgs = yield Recv("self", count=count)
        return [m.payload for m in msgs]

    world.spawn(proc(0, 1))
    world.run()
    assert world.results[0] == list(range(count))
    assert len(depths) == 1
    assert world.engine.events_processed == 1  # the start event, nothing else


def test_recv_send_ping_pong_runs_at_constant_stack_depth():
    """Satisfied Recv -> blocking Send -> satisfied Recv ...: each
    wake-up resumes the coroutine directly inside the other rank's
    visible / sender-released event, at a depth that does not depend
    on how many rounds came before."""
    world = make_world(2, policy=BLOCKING)
    rounds = 500
    depths = {0: [], 1: []}

    def player(rank, size):
        other = 1 - rank
        if rank == 0:
            yield Send(other, "ball", 0, 64.0)
        for _ in range(rounds):
            (msg,) = yield Recv("ball")
            depths[rank].append(_stack_depth())
            yield Send(other, "ball", msg.payload + 1, 64.0)
            depths[rank].append(_stack_depth())
        if rank == 1:
            yield Recv("ball")
        return msg.payload

    world.spawn(player(0, 2))
    world.spawn(player(1, 2))
    world.run()
    assert world.results == {0: 2 * rounds - 1, 1: 2 * rounds - 2}
    for rank in (0, 1):
        assert len(set(depths[rank])) <= 2  # woken by a Recv / by a send release
    # One message is four events; nothing bounces through the engine.
    messages = world.transport.messages_sent
    assert messages == 2 * rounds + 1
    assert world.engine.events_processed == 4 * messages + 2


def test_failure_in_a_directly_resumed_receiver_is_the_receivers():
    """The receiver's coroutine runs inside the *sender's* visible
    event; when it raises there, the receiver fails -- not the sender,
    not the transport -- and the engine is halted once."""
    world = make_world(2, policy=BLOCKING)
    halts = []
    halt = world.engine.halt
    world.engine.halt = lambda: (halts.append(world.engine.now), halt())

    def sender(rank, size):
        yield Send(1, "d", None, 100.0)
        yield Sleep(10.0)

    def receiver(rank, size):
        yield Recv("d")
        raise ValueError("boom")

    world.spawn(sender(0, 2))
    proc = world.spawn(receiver(1, 2))
    with pytest.raises(ProcessFailure, match=proc.name) as excinfo:
        world.run()
    assert isinstance(excinfo.value.__cause__, ValueError)
    assert len(halts) == 1 and world.engine.now == halts[0] < 10.0
    assert proc.state.value == "failed"
    assert world.processes[0].state.value != "failed"
    # The message itself was delivered before the receiver blew up.
    assert world.transport.mailboxes[1].total_received == 1


def test_process_failure_propagates():
    world = make_world(1)

    def bad(rank, size):
        yield Compute(1.0)
        raise ValueError("boom")

    world.spawn(bad(0, 1))
    with pytest.raises(ProcessFailure):
        world.run()


def test_deadlock_detected():
    world = make_world(2)

    def waits_forever(rank, size):
        yield Recv("never-sent")

    def finishes(rank, size):
        yield Compute(1.0)

    world.spawn(waits_forever(0, 2))
    world.spawn(finishes(1, 2))
    with pytest.raises(SimulationError, match="deadlock"):
        world.run()


def test_trace_markers_recorded():
    world = make_world(1)

    def proc(rank, size):
        yield Trace("checkpoint", {"k": 1})
        yield Compute(1.0)

    world.spawn(proc(0, 1))
    world.run()
    markers = [m for m in world.trace.markers if m.kind == "checkpoint"]
    assert len(markers) == 1 and markers[0].info == {"k": 1}


def test_spawn_after_run_rejected():
    world = make_world(1)

    def proc(rank, size):
        yield Compute(1.0)

    world.spawn(proc(0, 1))
    world.run()
    with pytest.raises(SimulationError):
        world.spawn(proc(0, 1))


def test_duplicate_rank_rejected():
    world = make_world(2)

    def proc(rank, size):
        yield Compute(1.0)

    world.spawn(proc(0, 2), rank=0)
    with pytest.raises(ValueError):
        world.spawn(proc(0, 2), rank=0)


def test_world_requires_processes():
    with pytest.raises(SimulationError):
        make_world(1).run()


def test_environment_policies_run_end_to_end():
    # Every registered environment's policies must drive a simple
    # ping-pong without error.
    for env_name in ("sync_mpi", "pm2", "mpimad", "omniorb"):
        env = get_environment(env_name)
        for problem in ("sparse_linear", "chemical"):
            policy = env.comm_policy(problem, 2)
            world = make_world(2, policy=policy)

            def ping(rank, size):
                yield Send(1, "ping", rank, 64.0)
                msgs = yield Recv("pong", count=1)
                return msgs[0].payload

            def pong(rank, size):
                msgs = yield Recv("ping", count=1)
                yield Send(0, "pong", msgs[0].payload + 1, 64.0)

            world.spawn(ping(0, 2))
            world.spawn(pong(1, 2))
            world.run()
            assert world.results[0] == 1
