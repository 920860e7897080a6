"""The backend worker pool: one job at a time per worker process.

Each worker is an OS process with its *own* one-way task pipe -- the
parent decides placement, so it always knows which process holds
which job and can terminate exactly that worker when the job's
deadline passes or the job is cancelled (then respawn a fresh one).
Completions flow back over a *per-worker* event pipe, never a shared
queue.  The distinction is load-bearing: a shared
``multiprocessing.Queue`` serialises writers through one cross-process
lock taken by each worker's background feeder thread, and a worker
that dies abruptly (``os._exit``, OOM kill, segfault) can die with
that lock held -- after which every surviving worker's completion
post blocks forever and the pool wedges.  With one pipe per worker
there is a single writer per channel, no shared lock to orphan, and
a killed worker's half-written frame is discarded along with its
pipe when the worker is replaced.  Tasks travel the same way in the
other direction: written from the calling thread (no feeder thread to
wake, no queue lock), so a hand-off to a worker that already died
raises ``BrokenPipeError`` *here* and becomes a ``crashed`` event
instead of vanishing in a background buffer.

Nothing in the pool waits on a clock.  :meth:`WorkerPool.poll` blocks
on every worker's event pipe plus a *wake pipe* until a worker posts,
someone calls :meth:`WorkerPool.wake` (work was queued, a worker was
replaced, the owner is stopping) or the nearest per-job deadline
arrives; an idle pool sleeps until woken.

The worker body is deliberately thin: rebuild the scenario from its
dict, run it on the configured backend, post the
:meth:`~repro.api.RunResult.to_record` record.  Registries are
repopulated by importing :mod:`repro.api` inside the child, so the
pool works under any ``multiprocessing`` start method -- the same
spawn-safety rule as :mod:`repro.runtime.process_hub`.  Workers are
*not* daemonic: the ``process`` backend spawns one child per rank,
which daemonic processes may not do.

The pool speaks the executor protocol of :mod:`repro.serve.queue`
natively (``capacity`` / ``submit`` / ``poll`` / ``shutdown``, plus
``wake`` / ``kill`` / ``stats``), so the serve scheduler and the sweep's
``pool`` placement drive it through the same work queue.  Timeout
*policy* lives in that queue (retry vs. fail); this module only
enforces deadlines mechanically -- ``poll`` kills and replaces a worker
whose attempt outlived ``job_timeout`` and reports a ``timeout`` event
-- and exports :func:`is_timeout_error`, with which the queue
recognises a :class:`~repro.runtime.executor.BackendTimeoutError`
family error that crossed a process boundary as a string.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import threading
import time
from typing import Any, Dict, List, Optional, Tuple, Union

#: Error-string prefixes that mean "the attempt timed out" (the
#: BackendTimeoutError family, flattened to ``f"{type}: {message}"``
#: by whatever process boundary the error crossed) and deserve a
#: retry rather than a permanent failure.
TIMEOUT_ERROR_PREFIXES = (
    "BackendTimeoutError",
    "ThreadTimeoutError",
    "ProcessTimeoutError",
)


def is_timeout_error(error: str) -> bool:
    """True when a stringified per-job error is a backend timeout.

    The work queue's retry rule rests on it: timeouts (and worker
    crashes) are transient and retried with a bounded budget; every
    other error is deterministic and fails the job immediately.
    """
    return str(error).startswith(TIMEOUT_ERROR_PREFIXES)


def _worker_main(
    tasks: Any,
    events: Any,
    parent_ends: Tuple[Any, Any],
    backend: Union[str, Any],
    backend_kwargs: Dict[str, Any],
    include_solution: bool = False,
) -> None:
    """Run jobs forever: ``(job_id, scenario_dict)`` in, events out.

    ``tasks`` and ``events`` are this worker's private pipe ends; sends
    happen in the main thread (no feeder thread), so a job that kills
    the process can never strand a half-posted event in a background
    buffer.  ``parent_ends`` are this process's copies of the *other*
    two ends, closed at once: while the worker held a writer of its own
    task pipe, a parent that died (SIGKILL) never read as EOF and the
    orphan blocked in ``recv`` forever.  EOF on ``tasks`` now means the
    parent is gone: exit.
    """
    for conn in parent_ends:
        conn.close()
    import repro.api  # noqa: F401 - repopulates registries under spawn
    from repro.api.backends import get_backend
    from repro.api.scenario import Scenario

    if isinstance(backend, str):
        backend = get_backend(backend, **backend_kwargs)
    while True:
        try:
            item = tasks.recv()
        except (EOFError, OSError):
            break
        if item is None:
            break
        job_id, scenario_dict = item
        try:
            result = backend.run(Scenario.from_dict(scenario_dict))
            record = result.to_record(include_solution=include_solution)
            events.send((job_id, "done", record))
        except BaseException as exc:  # noqa: BLE001 - reported per job
            try:
                events.send((job_id, "failed", f"{type(exc).__name__}: {exc}"))
            except Exception:  # noqa: BLE001 - parent is gone; nothing to do
                break


class _Worker:
    """One live worker process plus its current assignment."""

    def __init__(
        self, worker_id: int, ctx, backend, backend_kwargs,
        include_solution: bool = False,
    ):
        self.id = worker_id
        tasks_recv, self.tasks = ctx.Pipe(duplex=False)
        self.events, events_send = ctx.Pipe(duplex=False)
        self.process = ctx.Process(
            target=_worker_main,
            args=(tasks_recv, events_send, (self.tasks, self.events),
                  backend, backend_kwargs, include_solution),
            name=f"repro-serve-worker-{worker_id}",
            daemon=False,
        )
        self.process.start()
        # The parent keeps one end of each pipe; the child's copies are
        # the sole task reader and the sole event writer, so worker
        # death reads as EOF on ``events`` and as BrokenPipeError on the
        # next ``tasks.send``.
        tasks_recv.close()
        events_send.close()
        self.job_id: Optional[str] = None
        self.deadline: Optional[float] = None

    @property
    def busy(self) -> bool:
        return self.job_id is not None

    def assign(
        self, job_id: str, scenario: Dict[str, Any], timeout: Optional[float]
    ) -> None:
        self.job_id = job_id
        self.deadline = None if timeout is None else time.monotonic() + timeout
        self.tasks.send((job_id, scenario))

    def release(self) -> None:
        self.job_id = None
        self.deadline = None

    def destroy(self) -> None:
        """Terminate the process and abandon its pipes."""
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=2.0)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(timeout=2.0)
        try:
            self.process.close()
        except ValueError:
            pass  # unkillable (uninterruptible sleep); reaped by the OS later
        for conn in (self.tasks, self.events):
            try:
                conn.close()
            except OSError:
                pass


class WorkerPool:
    """A fixed-size pool of backend worker processes.

    ::

        pool = WorkerPool(backend="simulated", size=2, job_timeout=60.0)
        if pool.capacity:
            pool.submit("j000001", scenario.to_dict())
        for job_id, kind, payload in pool.poll():
            ...          # kind: "done" | "failed" | "timeout" | "crashed"
        pool.shutdown()

    ``poll`` also notices a worker that died *without* posting an
    event (segfault, OOM kill) and surfaces its job as ``crashed``,
    and a job that outlived ``job_timeout`` as ``timeout`` (its worker
    killed); either way the worker is replaced, so the pool never
    shrinks.

    One thread drives ``submit``/``poll``; any thread may call
    :meth:`wake`, :meth:`kill` and :meth:`stats` (the worker table is
    lock-guarded, and the lock is never held while ``poll`` blocks).
    """

    def __init__(
        self,
        backend: Union[str, Any] = "simulated",
        size: int = 2,
        job_timeout: Optional[float] = 60.0,
        backend_kwargs: Optional[Dict[str, Any]] = None,
        start_method: Optional[str] = None,
        include_solution: bool = False,
    ) -> None:
        if size < 1:
            raise ValueError(f"worker pool size must be >= 1, got {size}")
        if job_timeout is not None and job_timeout <= 0:
            raise ValueError(f"job_timeout must be > 0 or None, got {job_timeout}")
        # A registered backend name, or any picklable Backend instance
        # (the sweep executor ships ad-hoc instances into the pool).
        self.backend = backend
        self.size = size
        self.job_timeout = job_timeout
        self.include_solution = include_solution
        self._backend_kwargs = dict(backend_kwargs or {})
        self._ctx = multiprocessing.get_context(start_method)
        self._next_worker_id = 0
        self._lock = threading.Lock()  # guards _workers and _undelivered
        self._workers: Dict[int, _Worker] = {}
        #: Events born outside ``poll`` (a hand-off that hit a dead
        #: worker), delivered by the next ``poll``.
        self._undelivered: List[Tuple[str, str, Any]] = []
        self._respawns = 0
        self._closed = False
        # The wake channel: at most one unread byte, so N wake() calls
        # between two polls cost one write and one read.
        self._wake_recv, self._wake_send = self._ctx.Pipe(duplex=False)
        self._wake_lock = threading.Lock()
        self._wake_pending = False
        for _ in range(size):
            self._spawn()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _spawn(self) -> _Worker:
        worker = _Worker(
            self._next_worker_id,
            self._ctx,
            self.backend,
            self._backend_kwargs,
            self.include_solution,
        )
        self._workers[worker.id] = worker
        self._next_worker_id += 1
        return worker

    def _replace(self, worker: _Worker) -> None:
        """Kill a worker (timeout/cancel/crash) and restore pool size."""
        del self._workers[worker.id]
        worker.destroy()
        self._respawns += 1
        self._spawn()

    def shutdown(self) -> None:
        """Stop every worker; idle ones exit cleanly, busy ones are killed."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for worker in self._workers.values():
                if worker.busy:
                    continue
                try:
                    worker.tasks.send(None)
                except OSError:
                    pass  # already dead
            deadline = time.monotonic() + 2.0
            for worker in self._workers.values():
                if not worker.busy:
                    worker.process.join(
                        timeout=max(0.0, deadline - time.monotonic())
                    )
            for worker in self._workers.values():
                worker.destroy()
            self._workers.clear()
        with self._wake_lock:
            self._wake_pending = True  # a late wake() finds nothing to write to
            self._wake_send.close()
            self._wake_recv.close()

    # ------------------------------------------------------------------
    # submission / completion
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Idle workers: how many more jobs :meth:`submit` takes now."""
        with self._lock:
            return sum(1 for worker in self._workers.values() if not worker.busy)

    def submit(self, job_id: str, scenario: Dict[str, Any]) -> None:
        """Hand a job to an idle worker (``capacity`` says there is one).

        A hand-off that finds the idle worker dead (its task pipe is
        broken) still takes the job: the worker is replaced and the job
        comes back from the next :meth:`poll` as ``crashed``, exactly
        as if the worker had died a moment later.
        """
        with self._lock:
            for worker in self._workers.values():
                if worker.busy:
                    continue
                try:
                    worker.assign(job_id, scenario, self.job_timeout)
                except OSError:
                    self._replace(worker)
                    self._undelivered.append(
                        (job_id, "crashed", "worker process died while idle")
                    )
                return
        raise RuntimeError(f"no idle worker for {job_id!r}: submit past capacity")

    def wake(self) -> None:
        """Make a blocked (or the next) :meth:`poll` return at once.

        Callable from any thread.  Calls coalesce: until ``poll`` has
        consumed the wake, further calls do nothing.
        """
        with self._wake_lock:
            if self._wake_pending:
                return
            self._wake_pending = True
            self._wake_send.send_bytes(b"\0")

    def poll(self, timeout: Optional[float] = None) -> List[Tuple[str, str, Any]]:
        """Job events since the last poll: ``(job_id, kind, payload)``.

        Blocks until a worker pipe is ready, :meth:`wake` is called or
        the nearest per-job deadline arrives -- and no longer than
        ``timeout`` when one is given.  Then reads one event from every
        pipe with data.  A worker posts at most one unread event (it
        only gets its next job after the event is consumed), so one
        ``recv`` per ready pipe drains everything.  Events for a job
        the worker no longer owns (it was cancelled or timed out and
        the worker reaped) cannot arrive at all: the reaped worker's
        pipe died with it.  Last, every worker still busy past its
        deadline is killed and respawned and its job reported as a
        ``timeout`` event.
        """
        with self._lock:
            events, self._undelivered = self._undelivered, []
            by_conn = {worker.events: worker for worker in self._workers.values()}
            deadlines = [
                worker.deadline for worker in self._workers.values()
                if worker.busy and worker.deadline is not None
            ]
        if events:
            timeout = 0.0
        elif deadlines:
            until = max(0.0, min(deadlines) - time.monotonic())
            timeout = until if timeout is None else min(timeout, until)
        try:
            ready = multiprocessing.connection.wait(
                [*by_conn, self._wake_recv], timeout=timeout
            )
        except (OSError, ValueError):
            ready = []  # a pipe was closed under us (kill, shutdown)
        with self._lock:
            for conn in ready:
                if conn is self._wake_recv:
                    with self._wake_lock:
                        conn.recv_bytes()
                        self._wake_pending = False
                    continue
                worker = by_conn[conn]
                if self._workers.get(worker.id) is not worker:
                    continue  # replaced (kill) while we were waiting
                try:
                    job_id, kind, payload = conn.recv()
                except (EOFError, OSError):
                    # EOF: the only writer is gone.  Settle it now --
                    # a dead pipe left in the wait set stays "ready".
                    job_id = worker.job_id
                    self._replace(worker)
                    if job_id is not None:
                        events.append(
                            (job_id, "crashed", "worker process died mid-job")
                        )
                    continue
                if worker.job_id != job_id:
                    continue  # stale: the job was re-settled while in flight
                worker.release()
                events.append((job_id, kind, payload))
            for worker in list(self._workers.values()):
                if worker.busy and not worker.process.is_alive():
                    job_id = worker.job_id
                    self._replace(worker)
                    events.append(
                        (job_id, "crashed", "worker process died mid-job")
                    )
            now = time.monotonic()
            for worker in list(self._workers.values()):
                if worker.busy and worker.deadline is not None and now > worker.deadline:
                    events.append((
                        worker.job_id, "timeout",
                        "BackendTimeoutError: job exceeded the "
                        f"{self.job_timeout}s per-attempt deadline",
                    ))
                    self._replace(worker)
        return events

    def kill(self, job_id: str) -> bool:
        """Terminate the worker running ``job_id`` (cancel support).

        From a thread other than the polling one, follow with
        :meth:`wake` so the blocked ``poll`` picks up the replacement
        worker's pipe.
        """
        with self._lock:
            for worker in list(self._workers.values()):
                if worker.job_id == job_id:
                    self._replace(worker)
                    return True
        return False

    def stats(self) -> Dict[str, Any]:
        backend = self.backend
        if not isinstance(backend, str):
            backend = getattr(backend, "name", type(backend).__name__)
        with self._lock:
            workers = len(self._workers)
            busy = sum(1 for worker in self._workers.values() if worker.busy)
        return {
            "workers": workers,
            "busy": busy,
            "respawns": self._respawns,
            "backend": backend,
            "job_timeout": self.job_timeout,
        }


__all__ = ["WorkerPool", "TIMEOUT_ERROR_PREFIXES", "is_timeout_error"]
