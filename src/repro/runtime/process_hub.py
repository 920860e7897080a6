"""Process-per-rank execution: the same coroutines on real OS processes.

The third interpreter of the algorithm coroutines.  Where the threaded
backend shares one address space (and one GIL), this module gives every
rank its own Python process and moves every message over picklable
``multiprocessing`` queues -- true multi-core execution, real race
windows, real wall-clock speedups for compute-bound scenarios.

Architecture
------------
* one :class:`multiprocessing.Queue` **inbox per rank**; a send from
  rank *r* to rank *d* pickles the :class:`~repro.core.effects.Message`
  (numpy payloads included) straight into *d*'s inbox;
* each child runs :class:`ProcessEndpoint`, which feeds the rank's
  :class:`~repro.runtime.channels.Mailbox` -- the receive side the
  threaded backend uses too (per-tag queues, blocking tag/count
  receive, non-blocking drain) -- from its inbox, and serves the *same*
  effect interpreter the threaded backend uses
  (:func:`repro.runtime.executor._interpret`);
* the message-level fault subset is honoured exactly as on threads
  (:func:`~repro.runtime.channels.fates`), except decisions are made by
  one :class:`~repro.runtime.faults.ThreadFaultInjector` per sending
  rank (decorrelated seed streams; every rank anchors its clock at a
  shared post-bootstrap barrier, and ``CLOCK_MONOTONIC`` is
  system-wide, so the plan's windows open and close together without
  charging child start-up time against them).  A delayed message
  travels at once with its due time and waits in the receiver's
  mailbox; counters are summed in the parent;
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
of bounded OS capacity.  A rank that converges early keeps draining
its inbox, so its peers' feeders do not stall on a full pipe, until
the parent signals that every rank has reported.  By then the result
is complete, so the parent reaps every rank still alive at once: a
rank blocked in its drain on a half-written message from a peer that
already exited is terminated, not awaited.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_mod
import time
import traceback
from typing import Any, Dict, List, Optional

from repro.core.trace import Timeline
from repro.runtime.channels import Mailbox, fates
from repro.runtime.executor import BackendTimeoutError, RunOutcome

#: Poll slice of the parent's result collection loop.
_COLLECT_SLICE = 0.25

#: Poll slice of a finished child waiting for the all-done signal.
_DRAIN_SLICE = 0.05


class ProcessWorkerError(RuntimeError):
    """A worker process failed; raised in the parent with rank context."""


class ProcessTimeoutError(ProcessWorkerError, BackendTimeoutError):
    """The process run blew its timeout; every child was terminated."""


class ProcessEndpoint:
    """One rank's side of the process channels.

    Duck-types the hub surface :func:`repro.runtime.executor._interpret`
    uses (``post``/``drain``/``receive``), so the effect interpreter is
    byte-for-byte shared with the threaded backend.  A post puts each
    of the message's :func:`~repro.runtime.channels.fates` -- decided by
    the optional per-rank ``injector`` -- on the destination's inbox as
    a ``(message, due)`` pair; the receiving endpoint feeds its
    :class:`~repro.runtime.channels.Mailbox` from its own inbox.
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
        self.injector = injector
        self.mailbox = Mailbox()
        self.messages_sent = 0

    def post(self, message) -> None:
        if not 0 <= message.dst < self.size:
            raise KeyError(f"unknown destination rank {message.dst}")
        deliveries = fates(self.injector, message)
        inbox = self._inboxes[message.dst]
        for delivery in deliveries:
            inbox.put(delivery)
        self.messages_sent += len(deliveries)

    def _feed(self, seconds: Optional[float] = 0.0) -> None:
        """Move the inbox into the mailbox, waiting ``seconds`` for a message.

        ``None`` blocks on the inbox outright (the parent's reaper is
        the safety net).
        """
        try:
            delivery = self._inbox.get(timeout=seconds)
            while True:
                self.mailbox.put(*delivery)
                delivery = self._inbox.get_nowait()
        except queue_mod.Empty:
            return

    def drain(self, rank: int, tag: Optional[str] = None) -> List[Any]:
        self._feed()
        return self.mailbox.take(tag)

    def pending(self, rank: int, tag: Optional[str] = None) -> int:
        self._feed()
        return self.mailbox.count(tag)

    def receive(
        self,
        rank: int,
        tag: Optional[str] = None,
        count: int = 1,
        timeout: Optional[float] = None,
    ) -> List[Any]:
        self._feed()
        return self.mailbox.receive(tag, count, timeout, self._feed)

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
        from repro.runtime.executor import WallTracer, _interpret

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
        # Anchor at the shared post-bootstrap barrier: every rank's
        # spans then live on one common axis (CLOCK_MONOTONIC is
        # system-wide), the same axis the fault plan uses.
        tracer = WallTracer(anchor=t0) if trace else None
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
        counters = {} if injector is None else dict(injector.counters)
        # Spans ship home as timeline rows (picklable, numpy-free) in
        # the exit report; the parent concatenates every rank's rows.
        rows = None if tracer is None else tracer.timeline.to_dict()
        results.put(
            ("ok", rank, reports[rank], counters, endpoint.messages_sent, t0,
             rows)
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
) -> RunOutcome:
    """Execute a scenario with one OS process per rank.

    The interpreter behind :class:`repro.api.backends.ProcessBackend`.
    Returns the same :data:`~repro.runtime.executor.RunOutcome` as the
    threaded executor (per-rank reports, elapsed wall time, message and
    fault counters, trace), so the backend assembles an identical
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
        per-rank rows ride home on the exit reports and are joined
        into one ``Timeline``, the outcome's last item.
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
    spans: List[list] = []
    markers: List[list] = []
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
            _, rank, report, counters, sent, child_t0, rows = outcome
            reports[rank] = report
            counters_per_rank[rank] = counters
            messages_sent += sent
            anchors.append(child_t0)
            if rows is not None:
                spans += rows["spans"]
                markers += rows["markers"]
    except BaseException:
        done.set()
        _reap(processes)
        raise
    elapsed = time.monotonic() - start
    # Every report is in, so the result is complete and nothing a rank
    # still does can change it: reap at once.  A rank stuck in its exit
    # drain (reading a half-written message from a peer that already
    # exited) is terminated, not awaited.
    done.set()
    _reap(processes)
    # Window accounting on the same axis the children used: the
    # earliest post-bootstrap anchor any rank reported.
    fault_counters: Dict[str, int] = _window_counters(scenario, min(anchors))
    for counters in counters_per_rank.values():
        for key, value in counters.items():
            fault_counters[key] = fault_counters.get(key, 0) + int(value)
    timeline = None
    if trace:
        timeline = Timeline.from_dict({"spans": spans, "markers": markers})
    return reports, elapsed, messages_sent, fault_counters, timeline


__all__ = [
    "run_processes",
    "ProcessEndpoint",
    "ProcessWorkerError",
    "ProcessTimeoutError",
]
