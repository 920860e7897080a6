"""Durable sweep progress: plan fingerprint, journal, result cache.

A sweep's identity is its *plan fingerprint* -- SHA-256 over the
ordered list of unit keys (``content_hash + seed`` per distinct grid
item).  The fingerprint names the journal file, so every distinct grid
gets its own journal under the shared state dir while all grids share
one :class:`~repro.serve.cache.ResultCache`:

::

    <state_dir>/
        cache/<content_hash>-s<seed>.json      shared result cache
        sweep-<fingerprint12>.ndjson           one journal per grid

The journal reuses the serve layer's append-only NDJSON
:class:`~repro.serve.queue.Journal` (flush per event, torn-final-line
tolerance).  Events:

* ``{"event": "plan", "fingerprint", "items", "distinct"}`` -- written
  once when a journal is created;
* ``{"event": "done", "key"}`` -- the unit's record is in the cache;
* ``{"event": "failed", "key", "error"}`` -- the unit failed
  terminally (retries exhausted or a deterministic error).

Resume (:meth:`SweepState.load`-time) replays the journal: ``done``
keys whose cache entry still reads back are settled for free, ``done``
keys whose entry was evicted or corrupted fall back to execution (a
bad cache file can never poison a resume), ``failed`` keys keep their
journaled error.  A killed sweep therefore loses at most the units
that were in flight at the kill.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

from repro.serve.cache import ResultCache
from repro.serve.protocol import DONE, FAILED
from repro.serve.queue import Job, Journal


class SweepStateError(RuntimeError):
    """The on-disk sweep state cannot be used (corrupt or mismatched)."""


def plan_fingerprint(keys: Iterable[str]) -> str:
    """Stable hex digest identifying a sweep plan.

    The digest covers the *ordered* distinct unit keys, so two sweeps
    of the same grid (same scenarios, same order) share a fingerprint
    -- and therefore a journal -- while any edit to the grid gets a
    fresh journal against the same cache (incremental re-run).
    """
    canonical = json.dumps(list(keys), separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class SweepState:
    """One sweep's durable half: journal + shared cache under a dir.

    ::

        state = SweepState(state_dir, fingerprint, items=n,
                           distinct=m, resume=True)
        state.done          # keys settled "done" by a previous run
        state.failed        # key -> journaled error string
        state.record_done(key); state.record_failed(key, error)
        WorkQueue(cache=state.cache, journal=state.journal, ...)
        state.close()

    Without ``resume``, an existing journal for this fingerprint is
    rotated aside to ``*.prev`` (kept as an artifact) and the sweep
    starts from a clean journal -- though the cache still serves every
    previously completed unit for free.
    """

    def __init__(
        self,
        state_dir: Union[str, Path],
        fingerprint: str,
        items: int,
        distinct: int,
        resume: bool = False,
    ) -> None:
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.fingerprint = fingerprint
        self.cache = ResultCache(self.state_dir / "cache")
        self.journal_path = self.state_dir / f"sweep-{fingerprint[:12]}.ndjson"
        self.done: List[str] = []
        self.failed: Dict[str, str] = {}
        self.resumed = False

        if self.journal_path.exists() and not resume:
            os.replace(self.journal_path, self.journal_path.with_suffix(".prev"))
        events = Journal.load(self.journal_path) if resume else []
        plan: Optional[Dict] = None
        self._journaled_done = set()
        for event in events:
            kind = event.get("event")
            if kind == "plan":
                plan = event
            elif kind == "done":
                key = str(event.get("key", ""))
                if key and key not in self._journaled_done:
                    self._journaled_done.add(key)
                    self.done.append(key)
                self.failed.pop(key, None)
            elif kind == "failed":
                key = str(event.get("key", ""))
                if key:
                    self.failed[key] = str(event.get("error", "unknown failure"))
        if plan is not None:
            if plan.get("fingerprint") != fingerprint:
                raise SweepStateError(
                    f"journal {self.journal_path} belongs to a different sweep "
                    f"plan (journaled fingerprint {plan.get('fingerprint')!r}, "
                    f"this grid is {fingerprint!r}); use a fresh state dir"
                )
            self.resumed = True
        self._journal = Journal(self.journal_path)
        if plan is None:
            # Fresh journal (first run, rotated, or resume of nothing).
            self._journal.append(
                {
                    "event": "plan",
                    "fingerprint": fingerprint,
                    "items": items,
                    "distinct": distinct,
                }
            )

    # ------------------------------------------------------------------
    # terminal transitions
    # ------------------------------------------------------------------
    def record_done(self, key: str) -> None:
        """Journal a unit as done (its record is already in the cache)."""
        self._journal.append({"event": "done", "key": key})

    def record_failed(self, key: str, error: str) -> None:
        """Journal a unit's terminal failure with its error string."""
        self._journal.append({"event": "failed", "key": key, "error": error})

    def journal(self, event: str, job: Job) -> None:
        """The work queue's journal callable, in this journal's
        key-keyed form: acceptance is not an event here (the plan is),
        and a completion born from the cache is written only if the
        journal being resumed does not hold it already."""
        if event == DONE and not (job.cached and job.key in self._journaled_done):
            self.record_done(job.key)
        elif event == FAILED:
            self.record_failed(job.key, job.error)

    def close(self) -> None:
        self._journal.close()


__all__ = ["SweepState", "SweepStateError", "plan_fingerprint"]
