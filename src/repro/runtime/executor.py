"""Thread-per-rank interpreter for the algorithm coroutines.

The same effect vocabulary as the simulator, interpreted against real
threads:

* ``Iterate`` -- runs the solver inline, closes the rank's work
  segment as busy time and yields the GIL before resuming;
* ``Send`` -- posts to the :class:`~repro.runtime.channels.ChannelHub`
  immediately (an in-process channel never blocks), so the
  :class:`~repro.core.effects.SendHandle` completes at once;
* ``Drain``/``Recv`` -- non-blocking / blocking channel reads;
* ``Barrier`` -- a real ``threading.Barrier``.

This is the paper's "multi-threaded environment" in miniature: receipts
can happen at any time, computations never wait for communications.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, Generator, Optional, Tuple

from repro.core import effects as fx
from repro.core.trace import Timeline


class BackendTimeoutError(RuntimeError):
    """A backend run exceeded its wall-clock timeout and was reaped.

    Base class shared by the threaded and process backends so callers
    (the conformance driver's ``--timeout`` handling in particular) can
    distinguish "the run hung and was torn down" from an ordinary
    worker error without knowing which backend ran.
    """


class ThreadWorkerError(RuntimeError):
    """A worker thread raised; re-raised on join with rank context."""


class ThreadTimeoutError(ThreadWorkerError, BackendTimeoutError):
    """The threaded run blew its timeout; the hub was closed to reap it."""


#: What a real-concurrency run returns (threads here, processes in
#: :mod:`repro.runtime.process_hub`): per-rank coroutine return values,
#: wall seconds, messages posted, fault counters (empty without a plan)
#: and the wall-clock ``Timeline`` of a traced run (else ``None``).
#: :class:`repro.api.ThreadedBackend` / ``ProcessBackend`` turn it into
#: the unified :class:`repro.api.RunResult`.
RunOutcome = Tuple[Dict[int, Any], float, int, Dict[str, int], Optional[Timeline]]


class WallTracer:
    """A wall-clock :class:`~repro.core.trace.Timeline` recorder.

    ``anchor`` is the monotonic instant that becomes ``t = 0`` -- the
    threaded run's start, or (on the process backend) each child's
    post-barrier anchor, the same instant the fault-plan clock uses, so
    per-rank axes line up across processes.  Recording is two float
    subtractions and a list append; list appends are atomic under the
    GIL, so one tracer may be shared by every thread of a threaded run.
    """

    def __init__(self, anchor: Optional[float] = None) -> None:
        self.anchor = time.monotonic() if anchor is None else anchor
        self.timeline = Timeline(clock="wall")

    def span(self, rank: int, start: float, end: float, kind: str, label: str = "") -> None:
        """Record one span; ``start``/``end`` are raw monotonic readings."""
        anchor = self.anchor
        self.timeline.add_span(rank, start - anchor, end - anchor, kind, label)

    def marker(self, rank: int, at: float, kind: str, info: Optional[dict] = None) -> None:
        self.timeline.add_marker(rank, at - self.anchor, kind, info)


def _interpret(
    rank: int,
    coroutine: Generator,
    hub,
    barrier: threading.Barrier,
    results: Dict[int, Any],
    errors: Dict[int, BaseException],
    tracer: Optional[WallTracer] = None,
) -> None:
    """Drive one rank's coroutine against real channels/barriers.

    ``tracer`` is an optional :class:`WallTracer`; when
    present the interpreter records compute/idle/comm spans around the
    effect boundaries (and ``Trace`` effects as markers) on the same
    vocabulary the simulator uses.  With ``tracer=None`` the hot path
    pays one ``is None`` test per effect.
    """
    value: Any = None
    start = time.monotonic()
    busy = 0.0
    # Start of the open work segment: everything since the last
    # blocking effect (or the run start).  Inline effect handling --
    # sends, drains, the solver call -- counts as work; Iterate closes
    # the segment as busy, blocked waits (Recv/Barrier) not.
    segment = start
    try:
        while True:
            try:
                effect = coroutine.send(value)
            except StopIteration as stop:
                if hasattr(stop.value, "busy_time"):
                    stop.value.busy_time = busy
                results[rank] = stop.value
                return
            if isinstance(effect, fx.Now):
                value = time.monotonic() - start
            elif isinstance(effect, fx.Iterate):
                # The flops run inline, in the open segment, which
                # closes as the rank's busy time.
                value = effect.solver.iterate()
                now = time.monotonic()
                busy += now - segment
                if tracer is not None:
                    tracer.span(rank, segment, now, "compute", "compute")
                # Yield the GIL at every iteration boundary: with
                # vectorised kernels an iteration is far shorter than
                # the interpreter's switch interval, and without an
                # explicit yield one rank can spin through its whole
                # freshness window while its peers (and their sends)
                # never get scheduled.
                time.sleep(0)
                segment = time.monotonic()
            elif isinstance(effect, fx.Trace):
                if tracer is not None:
                    tracer.marker(rank, time.monotonic(), effect.kind, effect.info)
                value = None
            elif isinstance(effect, fx.Send):
                handle = fx.SendHandle()
                message = fx.Message(
                    src=rank, dst=effect.dest, tag=effect.tag,
                    payload=effect.payload, size=effect.size,
                    sent_at=time.monotonic(),
                )
                hub.post(message)
                now = time.monotonic()
                handle.release_sender(now)
                handle.complete(now)
                value = handle
            elif isinstance(effect, fx.Drain):
                value = hub.drain(rank, effect.tag)
            elif isinstance(effect, fx.Recv):
                waited = time.monotonic()
                value = hub.receive(
                    rank, effect.tag, count=effect.count, timeout=effect.timeout
                )
                segment = time.monotonic()
                if tracer is not None:
                    tracer.span(rank, waited, segment, "comm", "recv-wait")
            elif isinstance(effect, fx.Barrier):
                waited = time.monotonic()
                barrier.wait()
                segment = time.monotonic()
                if tracer is not None:
                    tracer.span(rank, waited, segment, "idle", "barrier")
                value = None
            else:
                raise ThreadWorkerError(f"rank {rank}: unknown effect {effect!r}")
    except BaseException as exc:  # noqa: BLE001 - propagate to the join
        errors[rank] = exc


def run_threads(
    make_coroutine: Callable[[int, int], Generator],
    n_ranks: int,
    timeout: float = 120.0,
    faults: Optional[Any] = None,
    trace: bool = False,
) -> RunOutcome:
    """Execute ``n_ranks`` worker coroutines on real threads.

    The interpreter behind :class:`repro.api.ThreadedBackend`; returns
    a :data:`RunOutcome`.

    Parameters
    ----------
    make_coroutine:
        ``(rank, size) -> generator`` -- typically a lambda wrapping
        :func:`repro.core.aiac.aiac_worker` with a problem's local
        solver.
    timeout:
        Join timeout per thread; a hang raises instead of deadlocking
        the test suite.
    faults:
        Optional :class:`repro.runtime.faults.ThreadFaultInjector`; the
        run's channels then honour the plan's loss/duplication/reorder/
        crash subset.
    trace:
        Record wall-clock compute/idle/comm spans per rank (one shared
        :class:`WallTracer`, anchored at the run start); its
        ``Timeline`` is the outcome's last item.
    """
    from repro.runtime.channels import ChannelHub

    if n_ranks < 1:
        raise ValueError("n_ranks must be >= 1")
    if faults is not None:
        faults.start()
    hub = ChannelHub(n_ranks, faults)
    tracer = WallTracer() if trace else None  # anchored now: spans measure the run
    barrier = threading.Barrier(n_ranks)
    results: Dict[int, Any] = {}
    errors: Dict[int, BaseException] = {}
    threads = [
        threading.Thread(
            target=_interpret,
            args=(rank, make_coroutine(rank, n_ranks), hub, barrier, results,
                  errors, tracer),
            name=f"aiac-rank-{rank}",
            daemon=True,
        )
        for rank in range(n_ranks)
    ]
    start = time.monotonic()
    deadline = start + timeout
    for thread in threads:
        thread.start()
    hung = None
    for thread in threads:
        # One shared deadline for the whole run (not per thread): a run
        # of n ranks can never stall the caller for n * timeout.
        thread.join(max(0.0, deadline - time.monotonic()))
        if thread.is_alive():
            hung = thread
            break
    if hung is not None:
        # Reap, don't leak: poison the hub so receives blocked without a
        # timeout wake up and fail, break the barrier for anyone parked
        # on it, then give the threads a moment to unwind.
        hub.close()
        barrier.abort()
        for thread in threads:
            thread.join(1.0)
        raise ThreadTimeoutError(
            f"{hung.name} did not finish within {timeout}s (run reaped)"
        )
    elapsed = time.monotonic() - start
    if errors:
        rank, exc = sorted(errors.items())[0]
        raise ThreadWorkerError(f"rank {rank} failed: {exc!r}") from exc
    fault_counters: Dict[str, int] = {}
    if faults is not None:
        faults.finish()
        fault_counters = dict(faults.counters)
    return (
        results, elapsed, hub.messages_sent, fault_counters,
        None if tracer is None else tracer.timeline,
    )


__all__ = [
    "run_threads",
    "RunOutcome",
    "ThreadWorkerError",
    "ThreadTimeoutError",
    "BackendTimeoutError",
]
