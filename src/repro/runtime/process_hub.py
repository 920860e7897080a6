"""Process-per-rank execution: the same coroutines on real OS processes.

The third interpreter of the algorithm coroutines.  Where the threaded
backend shares one address space (and one GIL), this module gives every
rank its own Python process and moves every message over picklable
``multiprocessing`` queues -- true multi-core execution, real race
windows, real wall-clock speedups for compute-bound scenarios.

Architecture
------------
* one :class:`multiprocessing.Queue` **inbox per rank**; a send from
  rank *r* to rank *d* pickles the :class:`~repro.simgrid.message.Message`
  (numpy payloads included) straight into *d*'s inbox;
* each child runs :class:`ProcessEndpoint`, a process-local mailbox
  that mirrors :class:`~repro.runtime.channels.ChannelHub` semantics
  (per-tag queues, blocking tag/count receive, non-blocking drain) on
  top of its inbox, and feeds the *same* effect interpreter the
  threaded backend uses (:func:`repro.runtime.executor._interpret`);
* the message-level fault subset is honoured exactly as on threads,
  except decisions are made sender-side by one
  :class:`~repro.runtime.faults.ThreadFaultInjector` per rank
  (decorrelated seed streams; every rank anchors its clock at a shared
  post-bootstrap barrier, and ``CLOCK_MONOTONIC`` is system-wide, so
  the plan's windows open and close together without charging child
  start-up time against them), and counters are summed in the parent;
* the parent enforces one wall-clock deadline for the whole run and
  **reaps** (terminates) every child on timeout or on a child error,
  so a hung scenario can never leak worker processes.

Spawn safety
------------
Registries (problems, workers, clusters, backends, balancers) are
populated by import side effects, which a ``spawn``-start child does
not inherit.  :func:`_child_main` therefore begins with an explicit
``import repro.api`` -- the one import whose dependency closure
re-registers everything -- before rebuilding the scenario, so the
backend works identically under ``fork``, ``forkserver`` and ``spawn``.

Exit protocol
-------------
``multiprocessing.Queue`` flushes through a feeder thread into a pipe
of bounded OS capacity.  A rank that converges and exits early must
not let its inbox pipe fill up (a sender's feeder would block, and the
sender would then hang in its own exit flush), so children keep
draining their inbox until the parent signals that every rank has
reported, then drop whatever is still queued toward them.
"""

from __future__ import annotations

import heapq
import multiprocessing
import queue as queue_mod
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

from repro.runtime.executor import BackendTimeoutError, ThreadRunResult
from repro.runtime.faults import _RECEIVE_SLICE, apply_fault_decision
from repro.simgrid.message import drain_tagged

#: Poll slice of the parent's result collection loop.
_COLLECT_SLICE = 0.25

#: Poll slice of a finished child waiting for the all-done signal.
_DRAIN_SLICE = 0.05

#: How long the parent waits, once every rank has reported, for the
#: ranks to leave on their own before reaping them.  Fixed, not the run
#: deadline: the result is complete by then, and a rank stuck in its
#: exit drain (reading a half-written message from a peer that already
#: exited) must not hold a correct run back until ``timeout``.
_EXIT_GRACE = 2.0


class ProcessWorkerError(RuntimeError):
    """A worker process failed; raised in the parent with rank context."""


class ProcessTimeoutError(ProcessWorkerError, BackendTimeoutError):
    """The process run blew its timeout; every child was terminated."""


class ProcessEndpoint:
    """One rank's process-local mailbox over the shared inbox queues.

    Duck-types the hub surface :func:`repro.runtime.executor._interpret`
    uses (``post``/``drain``/``receive``), so the effect interpreter is
    byte-for-byte shared with the threaded backend.  ``injector`` is an
    optional per-rank :class:`~repro.runtime.faults.ThreadFaultInjector`;
    its decisions are applied sender-side (a dropped message is never
    pickled, a duplicated one is posted twice, a delayed one waits in a
    local heap until its wall-clock due time).
    """

    def __init__(
        self,
        rank: int,
        size: int,
        inboxes: List[Any],
        injector: Optional[Any] = None,
    ) -> None:
        self.rank = rank
        self.size = size
        self._inboxes = inboxes
        self._inbox = inboxes[rank]
        self._by_tag: Dict[str, List[Any]] = {}
        self.injector = injector
        self._delayed: List[Tuple[float, int, Any]] = []
        self.messages_sent = 0

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def post(self, message) -> None:
        if not 0 <= message.dst < self.size:
            raise KeyError(f"unknown destination rank {message.dst}")
        self._flush_due()
        if self.injector is None:
            self._send(message)
            return
        decision = self.injector.on_send(message, self.injector.now())
        apply_fault_decision(decision, message, self._send, self._stash_delayed)

    def _send(self, message) -> None:
        self._inboxes[message.dst].put(message)
        self.messages_sent += 1

    def _stash_delayed(self, due: float, message) -> None:
        heapq.heappush(self._delayed, (due, message.uid, message))

    def _flush_due(self) -> None:
        if not self._delayed:
            return
        now = time.monotonic()
        while self._delayed and self._delayed[0][0] <= now:
            self._send(heapq.heappop(self._delayed)[2])

    def _next_due_wait(self) -> Optional[float]:
        if not self._delayed:
            return None
        return max(0.0, self._delayed[0][0] - time.monotonic())

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------
    def _stash(self, message) -> None:
        message.delivered_at = time.monotonic()
        self._by_tag.setdefault(message.tag, []).append(message)

    def _pull_ready(self) -> None:
        while True:
            try:
                message = self._inbox.get_nowait()
            except queue_mod.Empty:
                return
            self._stash(message)

    def _count(self, tag: Optional[str]) -> int:
        if tag is None:
            return sum(len(v) for v in self._by_tag.values())
        return len(self._by_tag.get(tag, ()))

    def drain(self, rank: int, tag: Optional[str] = None) -> List[Any]:
        self._flush_due()
        self._pull_ready()
        return drain_tagged(self._by_tag, tag)

    def pending(self, rank: int, tag: Optional[str] = None) -> int:
        self._flush_due()
        self._pull_ready()
        return self._count(tag)

    def receive(
        self,
        rank: int,
        tag: Optional[str] = None,
        count: int = 1,
        timeout: Optional[float] = None,
    ) -> List[Any]:
        deadline = None if timeout is None else time.monotonic() + timeout
        needed = max(1, count)
        while True:
            self._flush_due()
            self._pull_ready()
            if self._count(tag) >= needed:
                return drain_tagged(self._by_tag, tag)
            slice_timeout: Optional[float] = None
            next_due = self._next_due_wait()
            if next_due is not None:
                slice_timeout = min(_RECEIVE_SLICE, max(1e-4, next_due))
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return []
                slice_timeout = (
                    remaining if slice_timeout is None
                    else min(slice_timeout, remaining)
                )
            try:
                # No deadline and nothing delayed: block on the inbox
                # outright (the parent's reaper is the safety net).
                message = self._inbox.get(timeout=slice_timeout)
            except queue_mod.Empty:
                continue
            self._stash(message)

    # ------------------------------------------------------------------
    def flush_delayed(self) -> None:
        """Deliver every still-pending delayed message, due or not.

        Called when this rank's worker has finished: on the threaded
        backend any *peer's* hub interaction would eventually flush the
        shared delay heap, but this heap is per-rank and dies with the
        process -- and the messages in it were already counted as
        ``messages_delayed``.  Delivering them (a few milliseconds
        early at worst; reorder delays are that small) keeps the
        counters honest and the peers fed.
        """
        while self._delayed:
            self._send(heapq.heappop(self._delayed)[2])

    def discard_inbox(self) -> None:
        """Throw away whatever is queued toward this rank (exit drain)."""
        while True:
            try:
                self._inbox.get_nowait()
            except queue_mod.Empty:
                return


class _TimeoutBarrier:
    """A ``multiprocessing.Barrier`` with the run deadline baked in.

    The effect interpreter calls bare ``barrier.wait()``; wrapping the
    timeout here means a rank whose peer died pre-barrier fails fast
    (``BrokenBarrierError``) instead of waiting for the parent reaper.
    """

    def __init__(self, barrier, timeout: float) -> None:
        self._barrier = barrier
        self._timeout = timeout

    def wait(self) -> None:
        self._barrier.wait(self._timeout)


def _child_main(
    rank: int,
    n_ranks: int,
    scenario_dict: Dict[str, Any],
    inboxes: List[Any],
    results: Any,
    barrier: Any,
    done: Any,
    timeout: float,
    trace: bool = False,
) -> None:
    """Entry point of one worker process (top-level: spawn pickles it)."""
    # Spawn-safety bootstrap: a spawned child starts with empty
    # registries; this import's dependency closure re-registers every
    # problem/worker/cluster/environment/backend/balancer before the
    # scenario dict is interpreted.
    import repro.api  # noqa: F401

    try:
        from repro.api.backends import (
            scenario_coroutine_factory,
            scenario_message_fault_injector,
        )
        from repro.api.scenario import Scenario
        from repro.runtime.executor import _interpret

        scenario = Scenario.from_dict(scenario_dict)
        make_coroutine = scenario_coroutine_factory(scenario)
        injector = scenario_message_fault_injector(scenario, stream=rank)
        endpoint = ProcessEndpoint(rank, n_ranks, inboxes, injector)
        # Anchor the fault-plan clock only once every rank is through
        # its bootstrap (interpreter start, imports, problem build --
        # seconds under spawn): windows must measure the *run*, not the
        # start-up, or a short window could elapse before the first
        # message while still being counted as having happened.  The
        # barrier releases all ranks within scheduler jitter of each
        # other, so per-rank anchors stay effectively shared.
        barrier.wait(timeout)
        t0 = time.monotonic()
        if injector is not None:
            injector.start(t0)
        tracer = None
        if trace:
            from repro.obs.trace import WallTracer

            # Anchor at the shared post-bootstrap barrier: every rank's
            # spans then live on one common axis (CLOCK_MONOTONIC is
            # system-wide), the same axis the fault plan uses.
            tracer = WallTracer(anchor=t0)
        reports: Dict[int, Any] = {}
        errors: Dict[int, BaseException] = {}
        _interpret(
            rank,
            make_coroutine(rank, n_ranks),
            endpoint,
            _TimeoutBarrier(barrier, timeout),
            reports,
            errors,
            tracer,
        )
        if rank in errors:
            exc = errors[rank]
            detail = "".join(
                traceback.format_exception(type(exc), exc, exc.__traceback__)
            )
            results.put(("error", rank, f"{type(exc).__name__}: {exc}", detail))
            return
        endpoint.flush_delayed()
        counters = {} if injector is None else dict(injector.counters)
        # Spans ship home as plain tuples (picklable, numpy-free) in the
        # exit report; the parent merges them into one GanttTrace.
        payload = None if tracer is None else tracer.payload()
        results.put(
            ("ok", rank, reports[rank], counters, endpoint.messages_sent, t0,
             payload)
        )
    except BaseException as exc:  # noqa: BLE001 - must reach the parent
        results.put(
            ("error", rank, f"{type(exc).__name__}: {exc}",
             traceback.format_exc())
        )
        return
    # Exit protocol: keep the inbox pipe drained until every rank has
    # reported (a full pipe would block a peer's queue feeder thread and
    # turn that peer's clean exit into a hang), then abandon the peer
    # queues' flush -- nothing still queued can matter once the run is
    # globally over.
    while not done.wait(_DRAIN_SLICE):
        endpoint.discard_inbox()
    endpoint.discard_inbox()
    for inbox in inboxes:
        inbox.cancel_join_thread()


def _reap(processes: List[Any]) -> None:
    """Terminate every child that is still alive (escalating to kill).

    Skips children that were never started (``ident is None``) -- the
    start loop itself can fail partway through on process limits, and
    joining an unstarted ``Process`` raises.
    """
    started = [p for p in processes if p.ident is not None]
    for process in started:
        if process.is_alive():
            process.terminate()
    deadline = time.monotonic() + 2.0
    for process in started:
        process.join(max(0.0, deadline - time.monotonic()))
    for process in started:
        if process.is_alive():  # pragma: no cover - terminate() sufficed so far
            process.kill()
            process.join(1.0)


def _window_counters(scenario, t0: float) -> Dict[str, int]:
    """Crash-window accounting, done once in the parent.

    Each child injector only counts per-message decisions; counting the
    plan's crash/recovery windows per rank would multiply them by
    ``n_ranks``.  The parent accounts the windows exactly once, on the
    ``t0`` axis the children reported (their shared barrier anchor).
    """
    if scenario.faults is None or not scenario.faults.message_events():
        return {}
    from repro.api.backends import scenario_message_fault_injector

    accountant = scenario_message_fault_injector(scenario)
    accountant.start(t0)
    accountant.finish()
    return dict(accountant.counters)


def run_processes(
    scenario,
    timeout: float = 120.0,
    start_method: Optional[str] = None,
    trace: bool = False,
) -> ThreadRunResult:
    """Execute a scenario with one OS process per rank.

    The internal entry point used by
    :class:`repro.api.backends.ProcessBackend`.  Returns the same
    :class:`~repro.runtime.executor.ThreadRunResult` shape as the
    threaded executor (per-rank reports, elapsed wall time, message and
    fault counters), so the backend assembles an identical
    :class:`~repro.api.result.RunResult`.

    Parameters
    ----------
    timeout:
        One shared wall-clock deadline for the whole run; on expiry
        every child is terminated and :class:`ProcessTimeoutError`
        raises.
    start_method:
        ``multiprocessing`` start method (``"fork"``, ``"spawn"``,
        ``"forkserver"``) or ``None`` for the platform default.  The
        backend is spawn-safe by construction (see module docstring).
    trace:
        Record wall-clock compute/idle/comm spans in every child; the
        per-rank payloads ride home on the exit reports and are merged
        into one ``GanttTrace`` on :attr:`ThreadRunResult.trace`.
        Every rank anchors at the shared post-bootstrap barrier, so
        the merged spans share one time axis.
    """
    n_ranks = scenario.n_ranks
    if n_ranks < 1:
        raise ValueError("n_ranks must be >= 1")
    ctx = multiprocessing.get_context(start_method)
    inboxes = [ctx.Queue() for _ in range(n_ranks)]
    results: Any = ctx.Queue()
    barrier = ctx.Barrier(n_ranks)
    done = ctx.Event()
    scenario_dict = scenario.to_dict()
    processes = [
        ctx.Process(
            target=_child_main,
            args=(rank, n_ranks, scenario_dict, inboxes, results, barrier,
                  done, timeout, trace),
            name=f"aiac-rank-{rank}",
            daemon=True,
        )
        for rank in range(n_ranks)
    ]
    start = time.monotonic()
    deadline = start + timeout
    reports: Dict[int, Any] = {}
    counters_per_rank: Dict[int, Dict[str, int]] = {}
    anchors: List[float] = []
    trace_payloads: List[Any] = []
    messages_sent = 0
    try:
        # Starting is inside the reaping scope: if spawning rank k
        # fails (fd/process limits), ranks 0..k-1 are already parked on
        # the barrier and must be torn down, not left to ride out the
        # full deadline.
        for process in processes:
            process.start()
        while len(reports) < n_ranks:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ProcessTimeoutError(
                    f"{n_ranks - len(reports)} of {n_ranks} rank(s) did not "
                    f"finish within {timeout}s (children terminated)"
                )
            try:
                outcome = results.get(timeout=min(_COLLECT_SLICE, remaining))
            except queue_mod.Empty:
                for process in processes:
                    if not process.is_alive() and process.exitcode not in (0, None):
                        rank = int(process.name.rsplit("-", 1)[-1])
                        if rank not in reports:
                            raise ProcessWorkerError(
                                f"rank {rank} died with exit code "
                                f"{process.exitcode} before reporting"
                            )
                continue
            if outcome[0] == "error":
                _, rank, summary, detail = outcome
                raise ProcessWorkerError(
                    f"rank {rank} failed: {summary}\n--- child traceback ---\n"
                    f"{detail}"
                )
            _, rank, report, counters, sent, child_t0, span_payload = outcome
            reports[rank] = report
            counters_per_rank[rank] = counters
            messages_sent += sent
            anchors.append(child_t0)
            if span_payload is not None:
                trace_payloads.append(span_payload)
    except BaseException:
        done.set()
        _reap(processes)
        raise
    elapsed = time.monotonic() - start
    done.set()
    grace_ends = time.monotonic() + _EXIT_GRACE
    for process in processes:
        process.join(max(0.0, grace_ends - time.monotonic()))
    _reap(processes)  # no-op on the happy path; a rank stuck in its drain otherwise
    # Window accounting on the same axis the children used: the
    # earliest post-bootstrap anchor any rank reported.
    fault_counters: Dict[str, int] = _window_counters(scenario, min(anchors))
    for counters in counters_per_rank.values():
        for key, value in counters.items():
            fault_counters[key] = fault_counters.get(key, 0) + int(value)
    merged_trace = None
    if trace_payloads:
        from repro.obs.trace import WallTracer

        merged_trace = WallTracer.merge_payloads(trace_payloads)
    return ThreadRunResult(
        results=reports,
        elapsed=elapsed,
        messages_sent=messages_sent,
        faults=fault_counters,
        trace=merged_trace,
    )


__all__ = [
    "run_processes",
    "ProcessEndpoint",
    "ProcessWorkerError",
    "ProcessTimeoutError",
]
