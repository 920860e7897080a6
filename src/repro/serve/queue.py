"""Job bookkeeping: priority queue, append-only journal, and the one
work-queue state machine both front ends drive.

A :class:`Job` is one accepted submission (scenario dict, cache key,
integer priority, state machine per :mod:`repro.serve.protocol`).
:class:`JobQueue` orders queued jobs by descending priority with FIFO
ties (a submission sequence number breaks them), using lazy deletion
so cancelling a queued job is O(1).

:class:`WorkQueue` owns the decisions ``repro serve``'s
:class:`~repro.serve.daemon.Scheduler` and
:func:`repro.sweep.run_sweep` share -- admit, dispatch, settle, replay
validation -- over any *executor*, the one protocol every place work
can run speaks (:class:`~repro.serve.workers.WorkerPool`, the sweep
placements, the tests' stubs):

* ``capacity`` -- how many more jobs ``submit`` would take right now;
* ``submit(job_id, scenario_dict)`` -- take one job;
* ``poll(timeout=None)`` -- block until something settled (or a
  deadline, a ``wake()``, the ``timeout`` ceiling), then return
  ``(job_id, kind, payload)`` rows: ``done`` carries the run record;
  ``failed`` an in-job error (string, or ``{"error", "traceback"}``);
  ``timeout`` an attempt the executor cut off at its deadline;
  ``crashed`` an attempt whose process died.  Only an executor that
  owns processes may emit ``crashed``, only one that enforces
  deadlines ``timeout``;
* ``shutdown()`` -- release resources, abandoning jobs in flight;
* where the daemon needs them: ``wake()`` (end a blocked ``poll``
  from another thread), ``kill(job_id)`` (cancel support) and
  ``stats()``.

:class:`Journal` is what makes the queue survive a daemon kill: every
accepted submission and every terminal transition is one JSON line,
appended and flushed before the client sees the ack.  Replaying the
journal (:meth:`WorkQueue.restore`) rebuilds the job table; jobs with
no terminal event -- queued or mid-run at the kill -- come back
``queued`` and are re-dispatched.  A torn final line (the kill raced
an append) is ignored, so replay always succeeds on a journal the
daemon itself wrote.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.serve.cache import ResultCache
from repro.serve.protocol import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
)
from repro.serve.workers import is_timeout_error


@dataclass
class Job:
    """One accepted scenario submission and its lifecycle state."""

    id: str
    scenario: Dict[str, Any]
    key: str
    priority: int = 0
    seq: int = 0
    state: str = QUEUED
    attempts: int = 0
    error: Optional[str] = None
    #: The result came straight from the on-disk cache (born terminal).
    cached: bool = False
    #: How many duplicate submissions were coalesced onto this job.
    coalesced: int = 0
    #: Monotonic instants stamped by the scheduler (0.0 = not yet
    #: stamped): acceptance (or replay -- monotonic readings never
    #: cross a process boundary) and latest dispatch.  They feed the
    #: queue/run latency histograms and are deliberately not part of
    #: the wire status.
    submitted_mono: float = 0.0
    started_mono: float = 0.0

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def public_status(self) -> Dict[str, Any]:
        """The wire form of this job's status (``status`` verb)."""
        status: Dict[str, Any] = {
            "id": self.id,
            "state": self.state,
            "key": self.key,
            "priority": self.priority,
            "attempts": self.attempts,
            "cached": self.cached,
            "coalesced": self.coalesced,
        }
        if self.error is not None:
            status["error"] = self.error
        return status


class JobQueue:
    """Max-priority queue of queued jobs with FIFO ties and lazy deletion.

    ``push`` stores a heap entry; ``pop`` returns the next job that is
    *still* in the ``queued`` state, silently discarding entries whose
    job was cancelled (or re-pushed -- a stale entry for a requeued
    job is recognised by its generation counter and skipped).
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, int, Job]] = []
        self._generation: Dict[str, int] = {}

    def push(self, job: Job) -> None:
        generation = self._generation.get(job.id, 0) + 1
        self._generation[job.id] = generation
        heapq.heappush(self._heap, (-job.priority, job.seq, generation, job))

    def pop(self) -> Optional[Job]:
        while self._heap:
            _, _, generation, job = heapq.heappop(self._heap)
            if job.state == QUEUED and self._generation.get(job.id) == generation:
                return job
        return None

    def __len__(self) -> int:
        """Live queued entries (stale heap entries excluded)."""
        return sum(
            1
            for _, _, generation, job in self._heap
            if job.state == QUEUED and self._generation.get(job.id) == generation
        )


class Journal:
    """Append-only NDJSON event log; one flush per accepted event.

    Events: ``{"event": "submit", "id", "key", "priority", "seq",
    "scenario"}`` on acceptance, then at most one of ``done`` (record
    key in the cache), ``failed`` (error string) or ``cancelled``.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("a", encoding="utf-8")

    def append(self, event: Dict[str, Any]) -> None:
        self._handle.write(json.dumps(event, separators=(",", ":")) + "\n")
        self._handle.flush()

    def close(self) -> None:
        try:
            self._handle.close()
        except OSError:
            pass

    @staticmethod
    def load(path: Union[str, Path]) -> List[Dict[str, Any]]:
        """Every intact event in the journal, oldest first.

        A torn final line -- the daemon was killed mid-append -- is
        dropped; a torn line anywhere *else* means outside tampering
        and raises ``ValueError`` so the operator sees it.
        """
        path = Path(path)
        if not path.exists():
            return []
        events: List[Dict[str, Any]] = []
        torn_at: Optional[int] = None
        with path.open("r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    event = json.loads(line)
                    if not isinstance(event, dict):
                        raise ValueError("journal event is not an object")
                except ValueError:
                    torn_at = lineno
                    continue
                if torn_at is not None:
                    raise ValueError(
                        f"journal {path} is corrupt at line {torn_at} "
                        "(not the final line; refusing to replay)"
                    )
                events.append(event)
        return events


class WorkQueue:
    """The durable work-queue state machine: admit, dispatch, settle.

    Single-threaded by contract (the scheduler calls it under its
    lock, the sweep is one loop) and clock-free.  One turn of either
    front end is::

        queue.dispatch(executor, now)            # fill capacity
        for event in executor.poll():
            queue.store(*event)                  # record -> cache
            job = queue.settle(*event)           # -> journal
            if job is not None: ...              # report

    which is the crash-consistency order: a record is stored, *then*
    journaled ``done``, *then* reported, so a kill between any two
    steps re-executes at most the jobs that were in flight.

    ``journal(event, job)`` is the front end's "write this transition
    down" callable (``event``: ``submit`` on acceptance, then the
    terminal state).  ``cache`` is optional: without one nothing is
    born terminal and ``store`` is a no-op.  ``backend`` and
    ``require_solution`` are what a cached record must satisfy
    (:meth:`~repro.serve.cache.ResultCache.get_checked`).  Records pass
    through and are never retained here.

    The retry rule: a ``timeout`` or ``crashed`` event, or a ``failed``
    one whose error is of the ``BackendTimeoutError`` family, is
    transient and re-queues the job until it has been dispatched
    ``max_attempts`` times; any other failure is terminal at once.
    """

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        journal: Optional[Callable[[str, Job], None]] = None,
        max_attempts: int = 2,
        backend: Optional[str] = None,
        require_solution: bool = False,
    ) -> None:
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.cache = cache
        self.max_attempts = max_attempts
        self.jobs: Dict[str, Job] = {}
        self.queue = JobQueue()
        #: ``submitted`` counts every :meth:`admit`; the jobs this life
        #: took on, ``submitted - coalesced + replayed``, always equal
        #: ``completed + failed + cancelled`` + those still open.
        self.counters: Dict[str, int] = dict.fromkeys(
            ("submitted", "completed", "failed", "cancelled",
             "cache_hits", "coalesced", "retries", "replayed"), 0
        )
        self._journal = journal or (lambda event, job: None)
        self._backend = backend
        self._require_solution = require_solution
        self._by_key: Dict[str, str] = {}  # in-flight (queued/running) job per key
        #: Replayed jobs waiting on their key's in-flight job instead of
        #: running themselves (see :meth:`restore`).
        self._riders: Dict[str, List[Job]] = {}
        self._next_id = 1
        self._next_seq = 0

    @property
    def in_flight(self) -> int:
        """Keys with a queued or running job: 0 means nothing is left
        to run."""
        return len(self._by_key)

    def _usable_record(self, key: str) -> Optional[Dict[str, Any]]:
        if self.cache is None:
            return None
        return self.cache.get_checked(
            key, require_solution=self._require_solution, backend=self._backend
        )

    def _enqueue(self, job: Job) -> None:
        job.state = QUEUED
        self.queue.push(job)
        self._by_key[job.key] = job.id

    def _leave(self, job: Job) -> None:
        """``job`` just turned terminal: give up its seat as a rider, or
        free its key -- ``done`` settles the key's riders on the record
        it stored, anything else hands the key to the first of them."""
        riders = self._riders.get(job.key)
        if riders and job in riders:
            riders.remove(job)
            return
        self._by_key.pop(job.key, None)
        if not riders:
            return
        if job.state == DONE:
            for rider in self._riders.pop(job.key):
                rider.state = DONE
                self.counters["completed"] += 1
                self._journal(DONE, rider)
        else:
            self._enqueue(riders.pop(0))

    def admit(
        self, key: str, scenario: Dict[str, Any], priority: int = 0
    ) -> Tuple[Job, bool, Optional[Dict[str, Any]]]:
        """Take one submission: ``(job, coalesced, record)``.

        In order: a usable cached record makes a job born terminal
        (``record`` handed back, ``job.cached`` set); an in-flight job
        with the same key takes the submission as a rider
        (``coalesced``; its priority rises to the rider's); otherwise a
        fresh job is journaled and queued.
        """
        self.counters["submitted"] += 1
        record = self._usable_record(key)
        twin = self.jobs.get(self._by_key.get(key, ""))
        if record is None and twin is not None:
            twin.coalesced += 1
            twin.priority = max(twin.priority, priority)
            self.counters["coalesced"] += 1
            return twin, True, None
        job = Job(
            id=f"j{self._next_id:06d}", scenario=scenario, key=key,
            priority=priority, seq=self._next_seq,
        )
        self._next_id += 1
        self._next_seq += 1
        self.jobs[job.id] = job
        self._journal("submit", job)
        if record is None:
            self._enqueue(job)
        else:
            job.state, job.cached = DONE, True
            self._journal(DONE, job)
            self.counters["cache_hits"] += 1
            self.counters["completed"] += 1
        return job, False, record

    def restore(self, events: Iterable[Dict[str, Any]]) -> List[Job]:
        """Rebuild the job table from a previous life's journal events
        (``submit`` carrying the scenario, then at most one terminal
        event per id); returns the jobs that came back queued.

        That is every job without a terminal event -- queued or running
        at the kill, its worker died with the daemon -- plus every
        ``done`` one whose record no longer reads back usable (cache
        wiped, entry torn or written by another backend): terminal on
        paper, but the work is lost.  One job per key is queued: a
        later one of the same key (two ``done`` jobs shared the rotted
        record) comes back ``queued`` too but rides the earlier one, as
        a duplicate submission would, and turns ``done`` with it.
        Unknown event types and events for unknown ids are ignored
        (forward compatibility).
        """
        for event in events:
            kind, job_id = event.get("event"), event.get("id")
            if kind == "submit":
                if not isinstance(job_id, str) or not isinstance(
                    event.get("scenario"), dict
                ):
                    continue
                seq = int(event.get("seq", self._next_seq))
                self.jobs[job_id] = Job(
                    id=job_id,
                    scenario=event["scenario"],
                    key=str(event.get("key", "")),
                    priority=int(event.get("priority", 0)),
                    seq=seq,
                )
                self._next_seq = max(self._next_seq, seq + 1)
            elif kind in (DONE, FAILED, CANCELLED) and job_id in self.jobs:
                job = self.jobs[job_id]
                job.state = kind
                if kind == FAILED:
                    job.error = str(event.get("error", "unknown failure"))
                job.cached = kind == DONE and bool(event.get("cached", False))
        requeued = []
        for job in self.jobs.values():
            if job.state == QUEUED or (
                job.state == DONE and self._usable_record(job.key) is None
            ):
                job.cached = False
                if job.key in self._by_key:
                    job.state = QUEUED
                    self._riders.setdefault(job.key, []).append(job)
                else:
                    self._enqueue(job)
                requeued.append(job)
        self.counters["replayed"] += len(requeued)
        numeric = [int(job_id[1:]) for job_id in self.jobs if job_id[1:].isdigit()]
        self._next_id = max(numeric, default=0) + 1
        return requeued

    def dispatch(self, executor: Any, now: float) -> List[Job]:
        """Hand queued jobs (priority, then FIFO) to ``executor`` while
        it has capacity; returns them.  ``now``, the caller's monotonic
        reading, becomes each job's ``started_mono`` *before* the
        hand-off: a synchronous executor runs the job inside ``submit``.
        """
        started = []
        while executor.capacity > 0:
            job = self.queue.pop()
            if job is None:
                break
            job.state = RUNNING
            job.attempts += 1
            job.started_mono = now
            executor.submit(job.id, job.scenario)
            started.append(job)
        return started

    def store(self, job_id: str, kind: str, payload: Any) -> None:
        """Put a ``done`` event's record in the cache (no cache: no-op).

        Apart from :meth:`settle` so a threaded front end can do the
        file write outside its lock; the state peek only saves a write
        -- a record stored for a job cancelled in between is a correct
        entry for its key, and ``settle`` still ignores the event.
        """
        job = self.jobs.get(job_id)
        if (self.cache is not None and kind == DONE
                and job is not None and job.state == RUNNING):
            self.cache.put(job.key, payload if isinstance(payload, dict) else {})

    def settle(self, job_id: str, kind: str, payload: Any) -> Optional[Job]:
        """Apply one executor event; returns the job if that made it
        terminal (``done``, its record already stored, or ``failed``
        with ``job.error`` set), journaled.  ``None`` for a transient
        failure that re-queued the job and for a late event (the job
        was cancelled or settled while the executor ran)."""
        job = self.jobs.get(job_id)
        if job is None or job.state != RUNNING:
            return None
        if kind == DONE:
            job.state = DONE
            self.counters["completed"] += 1
        else:
            error = payload.get("error", "unknown failure") if isinstance(
                payload, Mapping) else payload
            error = f"worker crashed: {error}" if kind == "crashed" else str(error)
            transient = kind in ("timeout", "crashed") or is_timeout_error(error)
            if transient and job.attempts < self.max_attempts:
                self._enqueue(job)
                self.counters["retries"] += 1
                return None
            job.state, job.error = FAILED, error
            self.counters["failed"] += 1
        self._journal(job.state, job)
        self._leave(job)
        return job

    def cancel(self, job: Job) -> None:
        """Make a non-terminal job ``cancelled`` (killing its attempt
        is the caller's business); its key is submittable again."""
        job.state = CANCELLED
        self._journal(CANCELLED, job)
        self.counters["cancelled"] += 1
        self._leave(job)


__all__ = ["Job", "JobQueue", "Journal", "WorkQueue"]
