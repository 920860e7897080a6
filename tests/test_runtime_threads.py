"""Tests of the real-thread backend (channels + executor)."""

import time

import numpy as np
import pytest

from repro.core.aiac import AIACOptions, aiac_stepped_worker, aiac_worker
from repro.core.sisc import sisc_worker
from repro.problems.chemical import ChemicalConfig, ChemicalProblem
from repro.problems.sparse_linear import SparseLinearConfig, SparseLinearProblem
from repro.runtime import ChannelHub, run_threads
from repro.runtime.channels import Mailbox
from repro.runtime.executor import ThreadWorkerError
from repro.simgrid.effects import Barrier, Compute, Drain, Now, Recv, Send
from repro.simgrid.message import Message


# ----------------------------------------------------------------------
# channels
# ----------------------------------------------------------------------
def test_hub_post_and_drain():
    hub = ChannelHub(2)
    hub.post(Message(src=0, dst=1, tag="a", payload=7))
    assert [m.payload for m in hub.drain(1, "a")] == [7]
    assert hub.drain(1, "a") == []


def test_hub_drain_all_tags():
    hub = ChannelHub(2)
    hub.post(Message(src=0, dst=1, tag="a", payload=1))
    hub.post(Message(src=0, dst=1, tag="b", payload=2))
    assert len(hub.drain(1)) == 2


def test_hub_blocking_receive_with_timeout():
    hub = ChannelHub(2)
    assert hub.receive(1, "never", timeout=0.05) == []


def test_hub_receive_count():
    hub = ChannelHub(2)
    hub.post(Message(src=0, dst=1, tag="a", payload=1))
    hub.post(Message(src=0, dst=1, tag="a", payload=2))
    msgs = hub.receive(1, "a", count=2, timeout=1.0)
    assert len(msgs) == 2


def test_hub_validation():
    with pytest.raises(ValueError):
        ChannelHub(0)
    hub = ChannelHub(1)
    with pytest.raises(KeyError):
        hub.post(Message(src=0, dst=5, tag="a", payload=None))


def test_mailbox_take_orders_a_released_delayed_message_by_visibility():
    mailbox = Mailbox()
    posted = time.monotonic()
    late = Message(src=0, dst=1, tag="data", payload="late")
    mailbox.put(late, due=posted + 0.1)
    early = Message(src=0, dst=1, tag="state", payload="early")
    mailbox.put(early)
    assert mailbox.count() == 1  # the delayed one is not visible yet
    time.sleep(0.12)
    # ``late`` was posted first (lower uid) but became visible second.
    assert [m.payload for m in mailbox.take()] == ["early", "late"]
    assert early.delivered_at < posted + 0.1 <= late.delivered_at
    assert mailbox.take() == [] and mailbox.delayed == []


# ----------------------------------------------------------------------
# executor basics
# ----------------------------------------------------------------------
def test_executor_runs_simple_exchange():
    def worker(rank, size):
        if rank == 0:
            yield Send(1, "ping", "hello", 8.0)
            msgs = yield Recv("pong", count=1)
            return msgs[0].payload
        msgs = yield Recv("ping", count=1)
        yield Send(0, "pong", msgs[0].payload + " back", 8.0)
        return "done"

    reports, _, messages_sent, _, _ = run_threads(worker, 2)
    assert reports[0] == "hello back"
    assert messages_sent == 2


def test_executor_barrier_and_effects():
    def worker(rank, size):
        yield Compute(1e6)
        yield Barrier()
        t = yield Now()
        drained = yield Drain("nothing")
        return (t >= 0.0, drained)

    reports = run_threads(worker, 3)[0]
    assert all(ok for ok, _ in reports.values())


def test_executor_propagates_worker_exception():
    def bad(rank, size):
        yield Compute(1.0)
        raise RuntimeError("kaboom")

    with pytest.raises(ThreadWorkerError):
        run_threads(bad, 2)


def test_executor_validation():
    with pytest.raises(ValueError):
        run_threads(lambda r, s: iter(()), 0)


# ----------------------------------------------------------------------
# full AIAC / SISC runs on threads
# ----------------------------------------------------------------------
LINEAR = SparseLinearProblem(
    SparseLinearConfig(n=200, dominance=0.7, eps=1e-8, sign_structure="random")
)


def test_threads_sisc_linear_matches_sequential():
    seq = LINEAR.solve_sequential(eps=1e-8)
    opts = AIACOptions(eps=1e-8, stability_count=3, max_iterations=5000)
    reports = run_threads(
        lambda r, s: sisc_worker(r, s, LINEAR.make_local(r, s), opts), 3
    )[0]
    counts = {rep.iterations for rep in reports.values()}
    assert counts == {seq.iterations}
    solution = np.concatenate([reports[r].solution for r in sorted(reports)])
    assert LINEAR.solution_error(solution) < 1e-5


def test_threads_aiac_linear_converges():
    # Real threads are at the mercy of the OS scheduler: a long
    # starvation burst can push a run to its iteration cap.  The
    # correctness claim is that a successful detection is always a
    # *correct* detection, so allow a couple of scheduling retries.
    opts = AIACOptions(
        eps=1e-8, stability_count=40, max_iterations=60_000, freshness_window=40,
    )
    last_error = None
    for _ in range(3):
        reports = run_threads(
            lambda r, s: aiac_worker(r, s, LINEAR.make_local(r, s), opts), 3
        )[0]
        solution = np.concatenate([reports[r].solution for r in sorted(reports)])
        last_error = LINEAR.solution_error(solution)
        if all(rep.converged for rep in reports.values()):
            assert last_error < 1e-5
            return
    pytest.fail(f"no attempt converged; last solution error {last_error:.2e}")


def test_threads_aiac_chemical_matches_sequential():
    problem = ChemicalProblem(ChemicalConfig(nx=8, nz=9, t_end=360.0))
    reference, _ = problem.solve_sequential()
    opts = AIACOptions(
        eps=problem.config.inner_eps, stability_count=5, max_iterations=10_000,
    )
    reports = run_threads(
        lambda r, s: aiac_stepped_worker(r, s, problem.make_local(r, s), opts), 3
    )[0]
    solution = np.concatenate(
        [reports[r].solution.reshape(2, -1, 8) for r in sorted(reports)], axis=1,
    )
    rel = np.max(np.abs(solution - reference) / (np.abs(reference) + 1.0))
    assert rel < 1e-4
