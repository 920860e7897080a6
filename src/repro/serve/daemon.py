"""The scheduler daemon: the work queue's socket-facing shell.

:class:`Scheduler` puts a lock, wire frames, the id-keyed journal and
the metrics registry around the shared
:class:`~repro.serve.queue.WorkQueue` (which owns the job table, the
priority queue and every admit / dispatch / settle / replay decision)
and implements every protocol verb as a thread-safe method returning a
wire frame.  It is deliberately separable from the socket layer -- the
protocol tests drive it directly (with a stub pool), and the TCP server
is a thin shell around it.

Lifecycle of a submission::

    submit ──► cache hit? ──────────────► born-terminal done (cached)
       │            no
       ├──► identical job in flight? ──► coalesce onto it (same id)
       │            no
       └──► journal + queue ──► dispatch to an idle worker ──► done
                                   │ deadline passed               │
                                   ▼                               ▼
                       kill worker, retry (bounded) ──► failed   cache.put

Timeouts reuse the repo-wide :class:`~repro.runtime.executor.
BackendTimeoutError` vocabulary: an attempt the pool cut off at its
deadline is retried until ``max_attempts`` is exhausted, then the job
fails with a ``BackendTimeoutError:``-prefixed error -- and a backend
that raised its own timeout subclass inside the worker is treated
identically.

:class:`ServeDaemon` listens on a TCP socket, speaks the
newline-delimited-JSON protocol (:mod:`repro.serve.protocol`), and
runs one dispatcher thread that loops over :meth:`Scheduler.tick`.
The path from "a job is ready" to "its submitter has the record"
waits on no clock: the dispatcher sleeps in ``pool.poll()`` until a
worker posts an event, a per-job deadline arrives, or something that
made work dispatchable calls ``pool.wake()`` (a submission, a cancel
that freed a worker, a retry re-queue, ``stop``); ``result``/``status``
requests carrying ``wait_s`` sleep on a condition that every terminal
transition notifies.  An idle daemon's dispatcher does not run at all.
``SIGTERM``/``SIGINT`` and the ``shutdown`` verb all funnel into
:meth:`ServeDaemon.stop`; unfinished jobs survive in the journal and
are requeued by the next daemon pointed at the same state dir.
"""

from __future__ import annotations

import shutil
import socketserver
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.api.scenario import Scenario
from repro.obs.metrics import MetricsRegistry
from repro.serve.cache import ResultCache
from repro.serve.protocol import (
    DONE,
    FAILED,
    MAX_WAIT_S,
    RUNNING,
    ProtocolError,
    encode_frame,
    error_frame,
    ok_frame,
    parse_request,
)
from repro.serve.queue import Job, Journal, WorkQueue
from repro.serve.workers import WorkerPool


class Scheduler:
    """Thread-safe protocol shell over the work queue, cache, journal, pool.

    ``pool`` may be any executor (see :mod:`repro.serve.queue`) that
    also has ``wake``, ``kill`` and ``stats`` -- the tests substitute a
    stub.  The backend name its ``stats()`` reports, if any, is what a
    cached record must have been produced by to answer a submission.

    ``pool.wake()`` is always called *after* the scheduler lock is
    released: the woken dispatcher's first act is to take that lock,
    and waking it from inside would park it straight away while the
    waker still has the ack to write.
    """

    def __init__(
        self,
        pool: Any,
        cache: ResultCache,
        state_dir: Optional[Union[str, Path]] = None,
        max_attempts: int = 2,
    ) -> None:
        self.pool = pool
        self.cache = cache
        self._lock = threading.RLock()
        #: Notified whenever a job turns terminal (and on close); what
        #: ``wait_s`` requests sleep on.
        self._settled = threading.Condition(self._lock)
        self._closed = False
        #: The work-queue core: job table, priority queue, every admit /
        #: dispatch / settle / replay decision (touch it under the lock).
        self.work = WorkQueue(
            cache,
            journal=self._log,
            max_attempts=max_attempts,
            backend=pool.stats().get("backend"),
        )
        self.counters = self.work.counters
        self._started = time.monotonic()
        #: Observability registry: queue/run latency histograms, queue
        #: depth, worker utilization.  Served by the ``metrics`` verb
        #: and folded into ``stats()``.
        self.metrics = MetricsRegistry()
        #: Times the dispatcher came out of ``pool.poll``: stays 0 on an
        #: idle daemon, grows by a handful per job under load.
        self.metrics.counter("dispatcher_wakeups")
        self._journal: Optional[Journal] = None
        if state_dir is not None:
            state_dir = Path(state_dir)
            state_dir.mkdir(parents=True, exist_ok=True)
            journal_path = state_dir / "journal.ndjson"
            # Queue latency for a replayed job measures from *here*:
            # monotonic readings never cross a process boundary, and
            # the dead daemon's queueing time is unknowable anyway.
            for job in self.work.restore(Journal.load(journal_path)):
                job.submitted_mono = time.monotonic()
            self._journal = Journal(journal_path)

    def _log(self, event: str, job: Job) -> None:
        """Journal one transition in the id-keyed ``journal.ndjson`` form."""
        if self._journal is None:
            return
        entry: Dict[str, Any] = {"event": event, "id": job.id}
        if event == "submit":
            entry.update(key=job.key, priority=job.priority, seq=job.seq,
                         scenario=job.scenario)
        elif event == DONE and job.cached:
            entry["cached"] = True
        elif event == FAILED:
            entry["error"] = job.error
        # Every journal event carries when it happened: wall clock
        # for operators reading the NDJSON, monotonic for latency
        # math across events of one daemon process.  Replay ignores
        # unknown keys, so journals written before these stamps (and
        # journals written after them, read by older builds) both
        # keep replaying.
        entry["ts"] = time.time()
        entry["mono"] = round(time.monotonic(), 6)
        self._journal.append(entry)

    # ------------------------------------------------------------------
    # verbs
    # ------------------------------------------------------------------
    def submit(self, scenario_dict: Dict[str, Any], priority: int = 0) -> Dict[str, Any]:
        try:
            scenario = Scenario.from_dict(scenario_dict)
        except Exception as exc:  # noqa: BLE001 - registry/shape errors
            raise ProtocolError(
                f"scenario rejected: {exc}", code="bad-scenario"
            ) from exc
        key = ResultCache.key_for(scenario)
        canonical = scenario.to_dict()
        with self._lock:
            job, coalesced, record = self.work.admit(key, canonical, priority)
            ack = ok_frame(
                id=job.id, state=job.state, key=key,
                cached=record is not None, coalesced=coalesced,
            )
            if record is not None:
                # A cache hit never waited: it still counts into the
                # queue-latency distribution (as ~0) so the histogram
                # reflects what submitters actually experienced.
                self.metrics.histogram("queue_latency_s").observe(0.0)
            if record is not None or coalesced:
                return ack  # nothing became dispatchable
            job.submitted_mono = time.monotonic()
            self.metrics.gauge("queue_depth").set(len(self.work.queue))
        self.pool.wake()
        return ack

    def _get_job(self, job_id: str) -> Job:
        job = self.work.jobs.get(job_id)
        if job is None:
            raise ProtocolError(f"unknown job id {job_id!r}", code="unknown-job")
        return job

    def _await_terminal(self, job_id: str, wait_s: float) -> Job:
        """The job, after holding (lock held on entry and exit, released
        while asleep) until it is terminal, ``wait_s`` -- capped at
        ``MAX_WAIT_S`` -- has passed, or the scheduler closed."""
        job = self._get_job(job_id)
        deadline = time.monotonic() + min(wait_s, MAX_WAIT_S)
        while not job.terminal and not self._closed:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            self._settled.wait(remaining)
        return job

    def status(self, job_id: str, wait_s: float = 0.0) -> Dict[str, Any]:
        with self._lock:
            return ok_frame(**self._await_terminal(job_id, wait_s).public_status())

    def result(self, job_id: str, wait_s: float = 0.0) -> Dict[str, Any]:
        with self._lock:
            job = self._await_terminal(job_id, wait_s)
            frame = ok_frame(**job.public_status())
            if job.state == DONE:
                frame["record"] = self.cache.get(job.key)
            return frame

    def cancel(self, job_id: str) -> Dict[str, Any]:
        with self._lock:
            job = self._get_job(job_id)
            if job.terminal:
                return ok_frame(**job.public_status(), changed=False)
            was_running = job.state == RUNNING
            if was_running:
                self.pool.kill(job.id)
            self.work.cancel(job)
            self._settled.notify_all()
            frame = ok_frame(**job.public_status(), changed=True)
        if was_running:
            # The kill freed (replaced) a worker: queued work can start,
            # and the dispatcher must re-read the pool's pipes.
            self.pool.wake()
        return frame

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            states: Dict[str, int] = {}
            for job in self.work.jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
            return ok_frame(
                uptime_s=round(time.monotonic() - self._started, 3),
                jobs=states,
                queued=len(self.work.queue),
                counters=dict(self.counters),
                cache=self.cache.stats(),
                pool=self.pool.stats(),
                metrics=self._metrics_payload(),
            )

    def _metrics_payload(self) -> Dict[str, Any]:
        """The registry snapshot plus the derived operational ratios."""
        snapshot = self.metrics.snapshot()
        submitted = self.counters["submitted"]
        snapshot["derived"] = {
            "cache_hit_rate": (
                self.counters["cache_hits"] / submitted if submitted else 0.0
            ),
            "worker_utilization": _pool_utilization(self.pool.stats()),
        }
        # The lifecycle counters are metrics too; expose them under one
        # namespace so scrapers need only this verb.
        for name, value in self.counters.items():
            snapshot["counters"][f"jobs.{name}"] = value
        return snapshot

    def metrics_frame(self) -> Dict[str, Any]:
        """The ``metrics`` verb: just the registry snapshot."""
        with self._lock:
            return ok_frame(metrics=self._metrics_payload())

    # ------------------------------------------------------------------
    # dispatcher
    # ------------------------------------------------------------------
    def tick(self, poll_timeout: Optional[float] = None) -> None:
        """One dispatcher turn: dispatch, wait for something to happen,
        store, settle.

        Called in a loop by the daemon's dispatcher thread; also
        callable directly (the tests and any embedded single-thread
        use drive it manually).  The wait in the middle is
        ``pool.poll``: it ends at a worker event, a ``pool.wake()`` or
        the nearest per-job deadline, and ``poll_timeout`` is only a
        ceiling on it (``None``: none; ``0``: do not block).
        """
        with self._lock:
            for job in self.work.dispatch(self.pool, time.monotonic()):
                if job.submitted_mono:
                    # Fresh jobs measure from submission, replayed jobs
                    # from replay (see __init__); a job without a stamp
                    # is skipped rather than charged a bogus wait.
                    self.metrics.histogram("queue_latency_s").observe(
                        job.started_mono - job.submitted_mono
                    )
            self.metrics.gauge("queue_depth").set(len(self.work.queue))
        events = self.pool.poll(timeout=poll_timeout)
        self.metrics.counter("dispatcher_wakeups").inc()
        # Records reach the cache *before* the lock is taken: the write
        # is file I/O every concurrent submit/result would otherwise
        # queue behind, and put -> lock -> mark DONE keeps "a DONE job
        # always has its record".
        for event in events:
            self.work.store(*event)
        with self._lock:
            retries_before = self.counters["retries"]
            for event in events:
                job = self.work.settle(*event)
                if job is None:
                    continue
                if job.state == DONE:
                    self.metrics.histogram("run_latency_s").observe(
                        time.monotonic() - job.started_mono
                    )
                self._settled.notify_all()
            requeued = self.counters["retries"] > retries_before
        if requeued:
            self.pool.wake()

    # ------------------------------------------------------------------
    # request routing
    # ------------------------------------------------------------------
    def handle(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """Dispatch one *validated* request frame to its verb method."""
        verb = frame["verb"]
        if verb == "submit":
            return self.submit(dict(frame["scenario"]), frame.get("priority", 0))
        if verb == "status":
            return self.status(frame["id"], frame.get("wait_s", 0.0))
        if verb == "result":
            return self.result(frame["id"], frame.get("wait_s", 0.0))
        if verb == "cancel":
            return self.cancel(frame["id"])
        if verb == "stats":
            return self.stats()
        if verb == "metrics":
            return self.metrics_frame()
        if verb == "ping":
            return ok_frame(pong=True)
        raise ProtocolError(f"verb {verb!r} is not routable here")

    def close(self) -> None:
        """Release every ``wait_s`` holder, then close the journal."""
        with self._lock:
            self._closed = True
            self._settled.notify_all()
        if self._journal is not None:
            self._journal.close()


class _RequestHandler(socketserver.StreamRequestHandler):
    """One connection: read request lines, write one response frame each."""

    def handle(self) -> None:
        daemon: "ServeDaemon" = self.server.daemon  # type: ignore[attr-defined]
        while True:
            try:
                line = self.rfile.readline()
            except OSError:
                return
            if not line:
                return  # client closed the connection
            if not line.strip():
                continue
            try:
                frame = parse_request(line)
            except ProtocolError as exc:
                self._reply(error_frame(str(exc), exc.code))
                continue
            if frame["verb"] == "shutdown":
                self._reply(ok_frame(stopping=True))
                threading.Thread(target=daemon.stop, daemon=True).start()
                return
            try:
                self._reply(daemon.scheduler.handle(frame))
            except ProtocolError as exc:
                self._reply(error_frame(str(exc), exc.code))
            except Exception as exc:  # noqa: BLE001 - never kill the daemon
                self._reply(
                    error_frame(f"{type(exc).__name__}: {exc}", "internal-error")
                )

    def _reply(self, payload: Dict[str, Any]) -> None:
        try:
            self.wfile.write(encode_frame(payload))
            self.wfile.flush()
        except OSError:
            pass  # client went away mid-reply


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    block_on_close = False
    #: Listen backlog.  ``socketserver``'s 5 makes a burst of connects
    #: (a sweep's submitters, a load harness) wait out a 1 s SYN retry.
    request_queue_size = 128


class ServeDaemon:
    """The long-running front door: TCP server + dispatcher thread.

    ::

        daemon = ServeDaemon(backend="simulated", workers=2,
                             state_dir=".repro-serve", port=0)
        daemon.start()           # background threads; daemon.port is bound
        ...
        daemon.stop()            # or client.shutdown(), or SIGTERM

    ``serve_forever()`` is the blocking foreground form the CLI uses.
    ``port=0`` binds an ephemeral port (tests, harnesses); the chosen
    port is in :attr:`port` after construction.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        backend: str = "simulated",
        workers: int = 2,
        job_timeout: float = 60.0,
        max_attempts: int = 2,
        state_dir: Optional[Union[str, Path]] = None,
        scheduler: Optional[Scheduler] = None,
    ) -> None:
        # Bind first: a taken port fails before any worker process (which
        # would keep the interpreter from exiting) or cache dir exists.
        self._server = _Server((host, port), _RequestHandler)
        self._server.daemon = self  # type: ignore[attr-defined]
        self.host, self.port = self._server.server_address[:2]
        #: The cache dir of a stateless daemon, removed when it stops.
        self._throwaway_dir: Optional[str] = None
        if scheduler is None:
            pool = WorkerPool(
                backend=backend,
                size=workers,
                job_timeout=job_timeout,
            )
            if state_dir is None:
                self._throwaway_dir = tempfile.mkdtemp(prefix="repro-serve-cache-")
            try:
                cache = ResultCache(Path(self._throwaway_dir or Path(state_dir) / "cache"))
                scheduler = Scheduler(pool, cache, state_dir=state_dir, max_attempts=max_attempts)
            except BaseException:
                # A journal the replay refuses: the non-daemonic workers
                # would keep the interpreter alive after the error.
                pool.shutdown()
                self._server.server_close()
                if self._throwaway_dir is not None:
                    shutil.rmtree(self._throwaway_dir, ignore_errors=True)
                raise
        self.scheduler = scheduler
        self._stop_event = threading.Event()
        self._stopped = threading.Event()
        self._shutdown_lock = threading.Lock()
        self._dispatcher: Optional[threading.Thread] = None
        self._server_thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while not self._stop_event.is_set():
            self.scheduler.tick()

    def start(self) -> None:
        """Run server + dispatcher on background threads (returns at once)."""
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-serve-dispatcher", daemon=True
        )
        self._dispatcher.start()
        self._server_thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-serve-accept",
            daemon=True,
        )
        self._server_thread.start()

    def serve_forever(self) -> None:
        """Blocking form: serve until :meth:`stop` (CLI / signal driven)."""
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-serve-dispatcher", daemon=True
        )
        self._dispatcher.start()
        try:
            self._server.serve_forever(poll_interval=0.1)
        finally:
            self._shutdown_components()

    def stop(self) -> None:
        """Stop accepting, stop dispatching, kill workers, close journal.

        Idempotent; safe to call from signal handlers and handler
        threads.  Queued/running jobs stay journaled for the next
        daemon on the same state dir.
        """
        if self._stop_event.is_set():
            self._stopped.wait(timeout=10.0)
            return
        self._stop_event.set()
        self._server.shutdown()
        if self._server_thread is not None:
            self._server_thread.join(timeout=5.0)
        self._shutdown_components()

    def _shutdown_components(self) -> None:
        # Reached concurrently by stop() callers (signal thread, the
        # shutdown-verb handler thread) and by serve_forever's exit
        # path; the lock makes teardown run exactly once.
        with self._shutdown_lock:
            if self._stopped.is_set():
                return
            self._stop_event.set()
            self.scheduler.pool.wake()
            if self._dispatcher is not None:
                self._dispatcher.join(timeout=5.0)
            try:
                self._server.server_close()
            except OSError:
                pass
            self.scheduler.close()
            self.scheduler.pool.shutdown()
            if self._throwaway_dir is not None:
                shutil.rmtree(self._throwaway_dir, ignore_errors=True)
            self._stopped.set()


def _pool_utilization(pool_stats: Dict[str, Any]) -> float:
    """Busy fraction of the worker pool, tolerant of stub pools."""
    try:
        workers = float(pool_stats.get("workers", 0))
        busy = float(pool_stats.get("busy", 0))
    except (TypeError, ValueError):
        return 0.0
    return busy / workers if workers else 0.0


__all__ = ["Scheduler", "ServeDaemon"]
