"""Tests for the scenario submission service (``repro.serve``).

Three altitudes:

* pure protocol/queue/cache units (no daemon, no processes);
* the :class:`~repro.serve.daemon.Scheduler` state machine driven
  directly with a deterministic stub worker pool -- malformed frames,
  cancel-after-start, duplicate coalescing, timeout retry/failure and
  resume-after-kill journal replay, all without sockets;
* one end-to-end daemon smoke over a real TCP socket with real worker
  processes (kept small: this is the integration seam, the load story
  lives in ``benchmarks/serve_load.py``);
* the event-driven path: every place that makes work dispatchable
  wakes the dispatcher (outside the scheduler lock), the real pool's
  wake/pipe mechanics, and ``wait_s`` long polls.

Plus the two satellite regressions at the API layer:
``Scenario.content_hash`` / record join keys, and ``sweep`` surviving
a grid point that kills its pool worker.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time

import pytest

from repro.api import Scenario, run_scenario
from repro.api.result import RunResult
from repro.serve import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    Job,
    JobQueue,
    Journal,
    ProtocolError,
    ResultCache,
    Scheduler,
    ServeClient,
    ServeDaemon,
    ServeError,
)
from repro.serve import daemon as daemon_module
from repro.serve.protocol import (
    decode_frame,
    encode_frame,
    error_frame,
    ok_frame,
    parse_request,
)
from repro.sweep import run_sweep


# ---------------------------------------------------------------------------
# satellite: content hash + record join key
# ---------------------------------------------------------------------------

class TestContentHash:
    def test_label_excluded(self):
        a = Scenario(problem="sparse_linear", seed=7, name="first")
        b = Scenario(problem="sparse_linear", seed=7, name="second")
        assert a.content_hash() == b.content_hash()

    def test_content_fields_included(self):
        base = Scenario(problem="sparse_linear", seed=7)
        assert base.content_hash() != base.derive(seed=8).content_hash()
        assert base.content_hash() != base.derive(n_ranks=6).content_hash()
        assert (
            base.content_hash()
            != base.derive(problem_params__n=999).content_hash()
        )
        faulty = base.derive(
            faults={"seed": 1, "events": [
                {"kind": "message_loss", "probability": 0.1}]}
        )
        assert base.content_hash() != faulty.content_hash()

    def test_stable_across_json_round_trip(self):
        scenario = Scenario(
            problem="sparse_linear",
            problem_params={"n": 600, "dominance": 0.9},
            cluster_params={"speed_scale": 0.003},
            seed=3,
        )
        rebuilt = Scenario.from_dict(
            json.loads(json.dumps(scenario.to_dict()))
        )
        assert rebuilt.content_hash() == scenario.content_hash()

    def test_record_carries_join_key(self):
        scenario = Scenario(
            problem="sparse_linear", problem_params={"n": 60}, seed=1
        )
        record = run_scenario(scenario).to_record()
        assert record["scenario_hash"] == scenario.content_hash()
        rebuilt = RunResult.from_record(record)
        assert rebuilt.to_record()["scenario_hash"] == scenario.content_hash()

    def test_scenarioless_record_has_null_key(self):
        result = run_scenario(
            Scenario(problem="sparse_linear", problem_params={"n": 60}, seed=1)
        )
        result.scenario = None
        assert result.to_record()["scenario_hash"] is None


# ---------------------------------------------------------------------------
# satellite: sweep survives a worker-killing grid point
# ---------------------------------------------------------------------------

class _ExplodingBackend:
    """Kills its own pool worker for one grid point, errors for another."""

    name = "_exploding"

    def run(self, scenario):
        n = scenario.problem_params.get("n")
        if n == 66:
            os._exit(3)
        if n == 70:
            raise ValueError("deliberate failure")
        from repro.api.backends import SimulatedBackend

        return SimulatedBackend().run(scenario)


class TestSweepPerItemErrors:
    def test_worker_death_is_one_error_record(self):
        base = Scenario(problem="sparse_linear", seed=3)
        grid = [base.derive(problem_params__n=n) for n in (60, 66, 70, 80)]
        records = run_sweep(grid, backend=_ExplodingBackend(), placement="pool",
                            processes=2).records
        assert [r["index"] for r in records] == [0, 1, 2, 3]
        assert "error" not in records[0] and records[0]["converged"]
        # The pool-placement vocabulary for a worker that died mid-unit
        # (retried once by the executor's transient budget, then failed).
        assert "crashed" in records[1]["error"]
        assert "deliberate failure" in records[2]["error"]
        assert "error" not in records[3] and records[3]["converged"]

    def test_in_process_sweep_unchanged(self):
        base = Scenario(problem="sparse_linear", seed=3)
        grid = [base.derive(problem_params__n=n) for n in (60, 70)]
        records = run_sweep(grid, backend=_ExplodingBackend(), placement="local",
                            processes=1).records
        assert "error" not in records[0]
        assert "deliberate failure" in records[1]["error"]


# ---------------------------------------------------------------------------
# protocol frames
# ---------------------------------------------------------------------------

class TestProtocol:
    @pytest.mark.parametrize(
        "line",
        [b"not json\n", b"[1, 2]\n", b'"bare string"\n', b"\xff\xfe\n"],
    )
    def test_malformed_frames_rejected(self, line):
        with pytest.raises(ProtocolError) as info:
            parse_request(line)
        assert info.value.code == "bad-frame"

    def test_missing_and_unknown_verbs(self):
        with pytest.raises(ProtocolError) as info:
            parse_request({"scenario": {}})
        assert info.value.code == "bad-frame"
        with pytest.raises(ProtocolError) as info:
            parse_request({"verb": "launch"})
        assert info.value.code == "unknown-verb"

    def test_submit_validation(self):
        with pytest.raises(ProtocolError) as info:
            parse_request({"verb": "submit"})
        assert info.value.code == "bad-submit"
        with pytest.raises(ProtocolError) as info:
            parse_request(
                {"verb": "submit", "scenario": {}, "priority": "high"}
            )
        assert info.value.code == "bad-submit"
        frame = parse_request({"verb": "submit", "scenario": {"problem": "x"}})
        assert frame["priority"] == 0

    def test_job_verbs_require_id(self):
        for verb in ("status", "result", "cancel"):
            with pytest.raises(ProtocolError):
                parse_request({"verb": verb})

    def test_frame_round_trip(self):
        frame = ok_frame(id="j000001", state=QUEUED)
        assert decode_frame(encode_frame(frame)) == frame
        refusal = error_frame("nope", "unknown-job")
        assert decode_frame(encode_frame(refusal))["code"] == "unknown-job"


# ---------------------------------------------------------------------------
# queue + cache units
# ---------------------------------------------------------------------------

class TestJobQueue:
    @staticmethod
    def job(job_id, priority, seq):
        return Job(id=job_id, scenario={}, key=job_id, priority=priority, seq=seq)

    def test_priority_then_fifo(self):
        queue = JobQueue()
        jobs = [
            self.job("a", 0, 0), self.job("b", 5, 1),
            self.job("c", 5, 2), self.job("d", 9, 3),
        ]
        for job in jobs:
            queue.push(job)
        assert [queue.pop().id for _ in range(4)] == ["d", "b", "c", "a"]
        assert queue.pop() is None

    def test_lazy_cancel_and_requeue_generation(self):
        queue = JobQueue()
        first, second = self.job("a", 1, 0), self.job("b", 0, 1)
        queue.push(first)
        queue.push(second)
        first.state = CANCELLED
        assert queue.pop().id == "b"
        # requeue: the stale generation entry must not resurface
        second.state = QUEUED
        queue.push(second)
        assert queue.pop().id == "b"
        assert queue.pop() is None


class TestResultCache:
    def test_round_trip_and_counters(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        scenario = Scenario(problem="sparse_linear", seed=4)
        key = ResultCache.key_for(scenario)
        assert key.endswith("-s4")
        assert cache.get(key) is None
        cache.put(key, {"makespan": 1.0})
        assert cache.get(key) == {"makespan": 1.0}
        assert key in cache and len(cache) == 1
        assert cache.stats() == {
            "entries": 1, "hits": 1, "misses": 1, "corrupt": 0,
        }

    def test_corrupt_entry_is_a_miss_and_deleted(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k", {"x": 1})
        cache.path_for("k").write_text("{torn", encoding="utf-8")
        assert cache.get("k") is None
        assert not cache.path_for("k").exists()
        assert cache.stats()["corrupt"] == 1

    def test_entry_bytes_are_the_compact_json_encoding(self, tmp_path):
        record = run_scenario(
            Scenario(problem="sparse_linear", problem_params={"n": 40}, seed=1)
        ).to_record(include_solution=True)
        record["label"] = "é ☃ \n\"quoted\""  # escaped, so still ASCII
        data = ResultCache(tmp_path).put("k", record).read_bytes()
        assert data == json.dumps(record, separators=(",", ":")).encode("utf-8")
        # json.dump's streaming (pure-Python) encoder writes the same
        # bytes: entries written before and after stay interchangeable.
        streamed = json.JSONEncoder(separators=(",", ":")).iterencode(record)
        assert data == "".join(streamed).encode("utf-8")

    def test_a_failed_put_leaves_no_temp_file(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        with pytest.raises(TypeError):
            cache.put("k", {"x": object()})  # cannot be encoded
        assert list(tmp_path.iterdir()) == []

        def no_rename(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", no_rename)
        with pytest.raises(OSError):
            cache.put("k", {"x": 1})
        assert list(tmp_path.iterdir()) == []

    def test_a_megabyte_record_round_trips(self, tmp_path):
        scenario = Scenario(
            problem="sparse_linear",
            problem_params={"n": 60_000, "n_diagonals": 4, "dominance": 0.3,
                            "sign_structure": "random", "eps": 1e-3},
            seed=2,
        )
        record = run_scenario(scenario).to_record(include_solution=True)
        cache = ResultCache(tmp_path)
        assert cache.put("k", record).stat().st_size >= 1 << 20
        assert cache.get("k") == json.loads(json.dumps(record))


# ---------------------------------------------------------------------------
# scheduler state machine (stub pool -- no processes, fully deterministic)
# ---------------------------------------------------------------------------

class StubPool:
    """A hand-cranked worker pool: the test decides when jobs finish."""

    def __init__(self, size=2, job_timeout=60.0, backend=None):
        self.size = size
        self.job_timeout = job_timeout
        self.backend = backend  # reported by stats() when set, like the real pool
        self.running = {}
        self.killed = []
        self.events = []
        #: One entry per wake(): did the caller hold the scheduler lock?
        self.wakes = []
        self.scheduler = None  # set by make_scheduler
        #: Set: poll() blocks until wake(), like the real pool (for
        #: tests that run the daemon's own dispatcher thread).
        self.blocking = False
        self._woken = threading.Event()

    @property
    def capacity(self):
        return self.size - len(self.running)

    def submit(self, job_id, scenario):
        self.running[job_id] = scenario

    def wake(self):
        self.wakes.append(self.scheduler._lock._is_owned())
        self._woken.set()

    def poll(self, timeout=None):
        if self.blocking:
            self._woken.wait(timeout)
            self._woken.clear()
        events, self.events = self.events, []
        for job_id, _, _ in events:
            self.running.pop(job_id, None)
        return events

    def kill(self, job_id):
        self.killed.append(job_id)
        return self.running.pop(job_id, None) is not None

    def finish(self, job_id, record=None):
        self.events.append((job_id, "done", record or {"makespan": 1.0}))

    def fail(self, job_id, error="RuntimeError: boom"):
        self.events.append((job_id, "failed", error))

    def expire(self, job_id):
        self.events.append((
            job_id, "timeout",
            f"BackendTimeoutError: job exceeded the {self.job_timeout}s "
            "per-attempt deadline",
        ))

    def stats(self):
        stats = {"workers": self.size, "busy": len(self.running)}
        if self.backend is not None:
            stats["backend"] = self.backend
        return stats

    def shutdown(self):
        pass


SCENARIO = Scenario(problem="sparse_linear", problem_params={"n": 60}, seed=1)
OTHER = Scenario(problem="sparse_linear", problem_params={"n": 70}, seed=2)


def make_scheduler(tmp_path, state=True, **kwargs):
    pool = StubPool(**{k: v for k, v in kwargs.items() if k in ("size", "job_timeout")})
    scheduler = Scheduler(
        pool,
        ResultCache(tmp_path / "cache"),
        state_dir=(tmp_path / "state") if state else None,
        max_attempts=kwargs.get("max_attempts", 2),
    )
    pool.scheduler = scheduler
    return scheduler, pool


class TestSchedulerStateMachine:
    def test_submit_dispatch_complete(self, tmp_path):
        scheduler, pool = make_scheduler(tmp_path)
        ack = scheduler.submit(SCENARIO.to_dict(), priority=3)
        assert ack["state"] == QUEUED and not ack["cached"]
        scheduler.tick()
        assert scheduler.status(ack["id"])["state"] == RUNNING
        pool.finish(ack["id"], {"makespan": 2.5, "converged": True})
        scheduler.tick()
        frame = scheduler.result(ack["id"])
        assert frame["state"] == DONE
        assert frame["record"]["makespan"] == 2.5

    def test_bad_scenario_refused(self, tmp_path):
        scheduler, _ = make_scheduler(tmp_path)
        with pytest.raises(ProtocolError) as info:
            scheduler.submit({"problem": "sparse_linear", "bogus_field": 1})
        assert info.value.code == "bad-scenario"
        with pytest.raises(ProtocolError) as info:
            scheduler.submit(
                {"problem": "sparse_linear", "algorithm": "no_such_worker"}
            )
        assert info.value.code == "bad-scenario"

    def test_unknown_job(self, tmp_path):
        scheduler, _ = make_scheduler(tmp_path)
        with pytest.raises(ProtocolError) as info:
            scheduler.status("j999999")
        assert info.value.code == "unknown-job"

    def test_duplicate_coalesces_while_queued_and_running(self, tmp_path):
        scheduler, pool = make_scheduler(tmp_path)
        first = scheduler.submit(SCENARIO.to_dict(), priority=1)
        queued_twin = scheduler.submit(SCENARIO.derive(name="twin").to_dict())
        assert queued_twin["coalesced"] and queued_twin["id"] == first["id"]
        scheduler.tick()  # now running
        running_twin = scheduler.submit(SCENARIO.to_dict())
        assert running_twin["coalesced"] and running_twin["id"] == first["id"]
        assert scheduler.counters["coalesced"] == 2
        # one execution satisfies all three submissions
        pool.finish(first["id"])
        scheduler.tick()
        assert scheduler.status(first["id"])["state"] == DONE
        assert scheduler.status(first["id"])["coalesced"] == 2

    def test_duplicate_after_done_hits_cache(self, tmp_path):
        scheduler, pool = make_scheduler(tmp_path)
        first = scheduler.submit(SCENARIO.to_dict())
        scheduler.tick()
        pool.finish(first["id"], {"makespan": 9.0})
        scheduler.tick()
        again = scheduler.submit(SCENARIO.derive(name="later").to_dict())
        assert again["cached"] and again["state"] == DONE
        assert again["id"] != first["id"]  # a fresh, born-terminal job
        assert scheduler.result(again["id"])["record"]["makespan"] == 9.0
        assert scheduler.counters["cache_hits"] == 1
        assert len(pool.running) == 0  # nothing re-executed

    def test_priority_order_and_coalesce_priority_bump(self, tmp_path):
        scheduler, pool = make_scheduler(tmp_path, size=1)
        low = scheduler.submit(SCENARIO.to_dict(), priority=1)
        high = scheduler.submit(OTHER.to_dict(), priority=8)
        scheduler.tick()  # single worker: high must run first
        assert scheduler.status(high["id"])["state"] == RUNNING
        assert scheduler.status(low["id"])["state"] == QUEUED
        # a duplicate with a higher priority bumps the queued twin
        bump = scheduler.submit(SCENARIO.to_dict(), priority=9)
        assert bump["id"] == low["id"]
        assert scheduler.status(low["id"])["priority"] == 9

    def test_cancel_queued(self, tmp_path):
        scheduler, pool = make_scheduler(tmp_path, size=1)
        running = scheduler.submit(SCENARIO.to_dict())
        scheduler.tick()
        queued = scheduler.submit(OTHER.to_dict())
        frame = scheduler.cancel(queued["id"])
        assert frame["state"] == CANCELLED and frame["changed"]
        assert pool.killed == []  # never started, nothing to kill
        pool.finish(running["id"])
        scheduler.tick()
        assert scheduler.status(queued["id"])["state"] == CANCELLED

    def test_cancel_after_start_kills_worker_and_ignores_late_event(self, tmp_path):
        scheduler, pool = make_scheduler(tmp_path)
        ack = scheduler.submit(SCENARIO.to_dict())
        scheduler.tick()
        assert scheduler.status(ack["id"])["state"] == RUNNING
        frame = scheduler.cancel(ack["id"])
        assert frame["state"] == CANCELLED
        assert pool.killed == [ack["id"]]
        # a completion that raced the kill must not resurrect the job
        pool.finish(ack["id"])
        scheduler.tick()
        assert scheduler.status(ack["id"])["state"] == CANCELLED
        # and the scenario is submittable again (not stuck on the dead twin)
        fresh = scheduler.submit(SCENARIO.to_dict())
        assert not fresh["coalesced"] and fresh["id"] != ack["id"]

    def test_cancel_terminal_is_noop(self, tmp_path):
        scheduler, pool = make_scheduler(tmp_path)
        ack = scheduler.submit(SCENARIO.to_dict())
        scheduler.tick()
        pool.finish(ack["id"])
        scheduler.tick()
        frame = scheduler.cancel(ack["id"])
        assert frame["state"] == DONE and not frame["changed"]

    def test_timeout_retries_then_fails_with_backend_timeout(self, tmp_path):
        scheduler, pool = make_scheduler(tmp_path, max_attempts=2)
        ack = scheduler.submit(SCENARIO.to_dict())
        scheduler.tick()
        pool.expire(ack["id"])
        scheduler.tick()  # attempt 1 reaped -> requeued
        status = scheduler.status(ack["id"])
        assert status["attempts"] == 1
        assert scheduler.counters["retries"] == 1
        scheduler.tick()  # redispatched
        assert scheduler.status(ack["id"])["state"] == RUNNING
        pool.expire(ack["id"])
        scheduler.tick()  # attempt 2 reaped -> out of attempts
        status = scheduler.status(ack["id"])
        assert status["state"] == FAILED
        assert status["error"].startswith("BackendTimeoutError")

    def test_worker_crash_retries(self, tmp_path):
        scheduler, pool = make_scheduler(tmp_path)
        ack = scheduler.submit(SCENARIO.to_dict())
        scheduler.tick()
        pool.events.append((ack["id"], "crashed", "worker process died"))
        scheduler.tick()
        assert scheduler.status(ack["id"])["state"] in (QUEUED, RUNNING)
        assert scheduler.counters["retries"] == 1

    def test_deterministic_error_fails_immediately(self, tmp_path):
        scheduler, pool = make_scheduler(tmp_path)
        ack = scheduler.submit(SCENARIO.to_dict())
        scheduler.tick()
        pool.fail(ack["id"], "ValueError: singular matrix")
        scheduler.tick()
        status = scheduler.status(ack["id"])
        assert status["state"] == FAILED and "singular" in status["error"]
        assert scheduler.counters["retries"] == 0
        # a failed key is submittable again
        fresh = scheduler.submit(SCENARIO.to_dict())
        assert not fresh["coalesced"] and not fresh["cached"]

    def test_record_written_by_another_backend_is_not_served(self, tmp_path):
        # Regression: the daemon admitted through a bare cache.get(), so a
        # threaded daemon on a state dir a simulated sweep had filled (the
        # shared layout docs/sweeping.md describes) answered cached: true
        # with the simulated record.
        from repro.sweep import run_sweep

        state_dir = tmp_path / "state"
        outcome = run_sweep([TINY], state_dir=state_dir)
        assert outcome.records[0]["backend"] == "simulated"
        key = ResultCache.key_for(TINY)

        def daemon_on(backend):
            pool = StubPool(backend=backend)
            scheduler = Scheduler(
                pool, ResultCache(state_dir / "cache"), state_dir=state_dir
            )
            pool.scheduler = scheduler
            return scheduler, pool

        scheduler, pool = daemon_on("threaded")
        ack = scheduler.submit(TINY.to_dict())
        assert not ack["cached"] and ack["state"] == QUEUED
        scheduler.tick()
        assert ack["id"] in pool.running  # dispatched, not answered
        # The mismatching entry stays put until the new record lands.
        assert scheduler.cache.get(key)["backend"] == "simulated"
        pool.finish(ack["id"], {"backend": "threaded", "makespan": 2.0})
        scheduler.tick()
        assert scheduler.result(ack["id"])["record"]["backend"] == "threaded"
        scheduler.close()
        # ... which a daemon on that backend is served from the cache.
        again, _ = daemon_on("threaded")
        assert again.submit(TINY.to_dict())["cached"]
        again.close()

    def test_stats_shape(self, tmp_path):
        scheduler, pool = make_scheduler(tmp_path)
        scheduler.submit(SCENARIO.to_dict())
        stats = scheduler.stats()
        assert stats["jobs"] == {QUEUED: 1}
        assert stats["queued"] == 1
        assert set(stats["counters"]) >= {
            "submitted", "completed", "failed", "cancelled",
            "cache_hits", "coalesced", "retries", "replayed",
        }
        assert "entries" in stats["cache"] and "workers" in stats["pool"]


class TestJournalReplay:
    def test_torn_final_line_is_dropped(self, tmp_path):
        path = tmp_path / "journal.ndjson"
        journal = Journal(path)
        journal.append({"event": "submit", "id": "j1", "seq": 0,
                        "key": "k", "priority": 0, "scenario": {"problem": "x"}})
        journal.close()
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"event": "done", "id": "j1"')  # torn mid-append
        events = Journal.load(path)
        assert [e["event"] for e in events] == ["submit"]

    def test_torn_middle_line_refuses(self, tmp_path):
        path = tmp_path / "journal.ndjson"
        path.write_text('{"event": "submit"\n{"event": "done", "id": "j1"}\n')
        with pytest.raises(ValueError, match="corrupt"):
            Journal.load(path)

    def test_resume_after_kill(self, tmp_path):
        scheduler, pool = make_scheduler(tmp_path)
        done = scheduler.submit(SCENARIO.to_dict(), priority=2)
        lost = scheduler.submit(OTHER.to_dict(), priority=5)
        third = Scenario(problem="sparse_linear", problem_params={"n": 90}, seed=9)
        queued = scheduler.submit(third.to_dict(), priority=1)
        scheduler.tick()  # done + lost running (2 workers), queued waits
        pool.finish(done["id"], {"makespan": 4.0})
        scheduler.tick()
        # kill: no clean shutdown, just abandon the scheduler object
        del scheduler

        revived, pool2 = make_scheduler(tmp_path)
        assert revived.counters["replayed"] == 2
        # the finished job survived as terminal, record intact
        assert revived.result(done["id"])["state"] == DONE
        assert revived.result(done["id"])["record"]["makespan"] == 4.0
        # unfinished jobs are queued again under their original ids
        assert revived.status(lost["id"])["state"] == QUEUED
        assert revived.status(queued["id"])["state"] == QUEUED
        # priority survives replay: the priority-5 job dispatches first
        pool2.size = 1
        revived.tick()
        assert revived.status(lost["id"])["state"] == RUNNING
        # duplicates of replayed jobs coalesce rather than re-execute
        twin = revived.submit(OTHER.to_dict())
        assert twin["coalesced"] and twin["id"] == lost["id"]
        # id counter continues past the dead daemon's ids
        fresh = revived.submit(
            Scenario(problem="sparse_linear", problem_params={"n": 95}).to_dict()
        )
        assert fresh["id"] > queued["id"]

    def test_resume_requeues_done_job_whose_cache_entry_vanished(self, tmp_path):
        scheduler, pool = make_scheduler(tmp_path)
        ack = scheduler.submit(SCENARIO.to_dict())
        scheduler.tick()
        pool.finish(ack["id"])
        scheduler.tick()
        key = scheduler.status(ack["id"])["key"]
        del scheduler
        os.unlink(tmp_path / "cache" / f"{key}.json")

        revived, _ = make_scheduler(tmp_path)
        assert revived.status(ack["id"])["state"] == QUEUED
        assert revived.counters["replayed"] == 1

    def test_resume_requeues_done_job_whose_cache_entry_is_torn(self, tmp_path):
        # Regression: replay only asked whether the cache *file* existed,
        # so a torn entry left the job done with ``record: None`` for the
        # daemon's lifetime; the sweep's resume re-executed (``repaired``).
        scheduler, pool = make_scheduler(tmp_path)
        ack = scheduler.submit(SCENARIO.to_dict())
        scheduler.tick()
        pool.finish(ack["id"], {"makespan": 4.0, "converged": True, "reports": []})
        scheduler.tick()
        key = scheduler.status(ack["id"])["key"]
        del scheduler
        with (tmp_path / "cache" / f"{key}.json").open("r+") as handle:
            handle.truncate(40)

        revived, pool2 = make_scheduler(tmp_path)
        assert revived.status(ack["id"])["state"] == QUEUED
        assert revived.counters["replayed"] == 1
        revived.tick()
        assert ack["id"] in pool2.running
        pool2.finish(ack["id"], {"makespan": 7.0})
        revived.tick()
        assert revived.result(ack["id"])["record"]["makespan"] == 7.0

    def test_stateless_scheduler_has_no_journal(self, tmp_path):
        scheduler, pool = make_scheduler(tmp_path, state=False)
        ack = scheduler.submit(SCENARIO.to_dict())
        assert ack["state"] == QUEUED
        assert not (tmp_path / "state").exists()

    def test_journal_events_carry_timestamps(self, tmp_path):
        scheduler, pool = make_scheduler(tmp_path)
        ack = scheduler.submit(SCENARIO.to_dict())
        scheduler.tick()
        pool.finish(ack["id"])
        scheduler.tick()
        events = Journal.load(tmp_path / "state" / "journal.ndjson")
        assert events, "journal is empty"
        for event in events:
            assert event["ts"] > 1e9  # wall clock, epoch seconds
            assert event["mono"] >= 0.0
        monos = [e["mono"] for e in events]
        assert monos == sorted(monos)

    def test_stamped_journal_replays(self, tmp_path):
        scheduler, pool = make_scheduler(tmp_path)
        ack = scheduler.submit(SCENARIO.to_dict())
        del scheduler
        revived, _ = make_scheduler(tmp_path)
        assert revived.status(ack["id"])["state"] == QUEUED

    def test_unstamped_journal_from_older_daemon_replays(self, tmp_path):
        # Journals written before the ts/mono stamps existed must keep
        # replaying: the replay path ignores unknown keys and never
        # requires the stamps.
        state = tmp_path / "state"
        state.mkdir(parents=True)
        journal = Journal(state / "journal.ndjson")
        journal.append({"event": "submit", "id": "j1", "seq": 0, "priority": 0,
                        "key": SCENARIO.content_hash(),
                        "scenario": SCENARIO.to_dict()})
        journal.close()
        revived, _ = make_scheduler(tmp_path)
        assert revived.counters["replayed"] == 1
        assert revived.status("j1")["state"] == QUEUED


# ---------------------------------------------------------------------------
# scheduler metrics: the ``metrics`` verb (tentpole, serve leg)
# ---------------------------------------------------------------------------

class TestSchedulerMetrics:
    def test_latency_histograms_fill(self, tmp_path):
        scheduler, pool = make_scheduler(tmp_path)
        ack = scheduler.submit(SCENARIO.to_dict(), priority=1)
        scheduler.tick()  # dispatch: queue latency observed
        pool.finish(ack["id"])
        scheduler.tick()  # completion: run latency observed
        metrics = scheduler.handle({"verb": "metrics"})["metrics"]
        assert metrics["histograms"]["queue_latency_s"]["count"] == 1
        assert metrics["histograms"]["run_latency_s"]["count"] == 1
        assert metrics["gauges"]["queue_depth"] == 0
        assert metrics["counters"]["jobs.submitted"] == 1
        assert metrics["counters"]["jobs.completed"] == 1

    def test_cache_hit_counts_as_zero_wait(self, tmp_path):
        scheduler, pool = make_scheduler(tmp_path)
        ack = scheduler.submit(SCENARIO.to_dict())
        scheduler.tick()
        pool.finish(ack["id"])
        scheduler.tick()
        again = scheduler.submit(SCENARIO.to_dict())
        assert again["cached"]
        metrics = scheduler.handle({"verb": "metrics"})["metrics"]
        assert metrics["histograms"]["queue_latency_s"]["count"] == 2
        assert metrics["derived"]["cache_hit_rate"] == pytest.approx(0.5)

    def test_queue_depth_tracks_backlog(self, tmp_path):
        scheduler, pool = make_scheduler(tmp_path, size=1)
        first = scheduler.submit(SCENARIO.to_dict())
        scheduler.submit(OTHER.to_dict())
        scheduler.tick()  # one worker: first runs, second waits
        metrics = scheduler.handle({"verb": "metrics"})["metrics"]
        assert metrics["gauges"]["queue_depth"] == 1
        assert metrics["derived"]["worker_utilization"] == pytest.approx(1.0)
        pool.finish(first["id"])
        scheduler.tick()  # completion lands; slot frees after poll
        scheduler.tick()  # freed slot picks up the waiting job
        metrics = scheduler.handle({"verb": "metrics"})["metrics"]
        assert metrics["gauges"]["queue_depth"] == 0
        assert metrics["histograms"]["queue_latency_s"]["count"] == 2

    def test_replayed_jobs_measure_wait_from_replay(self, tmp_path):
        scheduler, pool = make_scheduler(tmp_path)
        scheduler.submit(SCENARIO.to_dict())
        del scheduler
        revived, pool2 = make_scheduler(tmp_path)
        revived.tick()
        metrics = revived.handle({"verb": "metrics"})["metrics"]
        # The replayed job's queue wait is measured from replay, not
        # across the daemon restart: observed, but restart-gap-free
        # (here: microseconds between the replay and the first tick).
        hist = metrics["histograms"]["queue_latency_s"]
        assert hist["count"] == 1
        assert hist["max"] < 30.0

    def test_metrics_folded_into_stats(self, tmp_path):
        scheduler, _ = make_scheduler(tmp_path)
        stats = scheduler.stats()
        assert "metrics" in stats
        assert "derived" in stats["metrics"]


# ---------------------------------------------------------------------------
# event-driven dispatch: who wakes the dispatcher, and from where
# ---------------------------------------------------------------------------

class TestDispatcherWake:
    """Everything that makes work dispatchable calls ``pool.wake()``,
    and does so after releasing the scheduler lock (the woken
    dispatcher's first act is to take it)."""

    def test_fresh_submit_wakes_outside_the_lock(self, tmp_path):
        scheduler, pool = make_scheduler(tmp_path)
        scheduler.submit(SCENARIO.to_dict())
        assert pool.wakes == [False]
        # Nothing became dispatchable: a rider and a cache hit stay quiet.
        scheduler.submit(SCENARIO.derive(name="twin").to_dict())
        assert pool.wakes == [False]

    def test_cancel_of_running_wakes_cancel_of_queued_does_not(self, tmp_path):
        scheduler, pool = make_scheduler(tmp_path, size=1)
        running = scheduler.submit(SCENARIO.to_dict())
        scheduler.tick()
        queued = scheduler.submit(OTHER.to_dict())
        del pool.wakes[:]
        scheduler.cancel(queued["id"])
        assert pool.wakes == []
        scheduler.cancel(running["id"])
        assert pool.wakes == [False]  # the kill freed a worker

    def test_retry_requeue_wakes_outside_the_lock(self, tmp_path):
        scheduler, pool = make_scheduler(tmp_path, max_attempts=2)
        ack = scheduler.submit(SCENARIO.to_dict())
        scheduler.tick()
        del pool.wakes[:]
        pool.expire(ack["id"])
        scheduler.tick()  # reaped -> requeued
        assert scheduler.status(ack["id"])["state"] == QUEUED
        assert pool.wakes == [False]
        scheduler.tick()
        pool.expire(ack["id"])
        scheduler.tick()  # out of attempts: failed, nothing to dispatch
        assert scheduler.status(ack["id"])["state"] == FAILED
        assert pool.wakes == [False]

    def test_stop_wakes_a_blocked_dispatcher(self, tmp_path):
        scheduler, pool = make_scheduler(tmp_path)
        pool.blocking = True
        daemon = ServeDaemon(port=0, scheduler=scheduler)
        daemon.start()
        daemon.stop()
        # Without the wake the dispatcher would sit in poll() forever
        # and outlive stop()'s bounded join.
        assert pool.wakes and pool.wakes[-1] is False
        assert not daemon._dispatcher.is_alive()

    def test_idle_scheduler_makes_no_dispatcher_wakeups(self, tmp_path):
        scheduler, pool = make_scheduler(tmp_path)
        pool.blocking = True
        daemon = ServeDaemon(port=0, scheduler=scheduler)
        daemon.start()
        try:
            time.sleep(0.3)
            counters = scheduler.metrics_frame()["metrics"]["counters"]
            assert counters["dispatcher_wakeups"] == 0
        finally:
            daemon.stop()


# ---------------------------------------------------------------------------
# the real pool: wake channel, pipe hand-off, dead idle workers
# ---------------------------------------------------------------------------

TINY = Scenario(
    problem="sparse_linear", problem_params={"n": 40, "dominance": 1.2},
    environment="pm2", n_ranks=2, seed=3,
)


class _BlockingBackend:
    """Blocks on grid point ``n == 66`` until its worker is killed."""

    name = "_blocking"

    def run(self, scenario):
        if scenario.problem_params.get("n") == 66:
            time.sleep(600)
        from repro.api.backends import SimulatedBackend

        return SimulatedBackend().run(scenario)


def poll_until_event(pool, budget=60.0):
    deadline = time.monotonic() + budget
    while time.monotonic() < deadline:
        events = pool.poll(timeout=max(0.0, deadline - time.monotonic()))
        if events:
            return events
    raise AssertionError(f"no pool event within {budget}s")


class TestEventDrivenPool:
    def test_wakes_coalesce_into_one_byte(self, tmp_path):
        from repro.serve import WorkerPool

        pool = WorkerPool(size=1)
        try:
            scheduler = Scheduler(pool, ResultCache(tmp_path / "cache"))
            for n in (40, 44, 48, 52):  # N submissions, no poll between
                scheduler.submit(TINY.derive(problem_params__n=n).to_dict())
            assert pool._wake_recv.poll()
            assert pool.poll(timeout=0) == []  # consumes the wake
            assert not pool._wake_recv.poll()  # ... which was one byte
            pool.wake()  # and the channel re-arms
            assert pool._wake_recv.poll()
        finally:
            pool.shutdown()
        pool.wake()  # after shutdown: a no-op, not an error

    def test_dispatcher_with_a_30s_ceiling_answers_at_once(self, tmp_path):
        from repro.serve import WorkerPool

        pool = WorkerPool(size=1)
        scheduler = Scheduler(pool, ResultCache(tmp_path / "cache"))
        stop = threading.Event()

        def dispatcher():
            while not stop.is_set():
                scheduler.tick(poll_timeout=30.0)

        thread = threading.Thread(target=dispatcher, daemon=True)
        thread.start()
        try:
            time.sleep(0.3)  # let the dispatcher park in poll()
            started = time.monotonic()
            ack = scheduler.submit(TINY.to_dict())
            frame = scheduler.result(ack["id"], wait_s=25.0)
            elapsed = time.monotonic() - started
            assert frame["state"] == DONE and frame["record"]["converged"]
            # A dispatcher that only looked every 30 s would not be here yet.
            assert elapsed < 5.0
        finally:
            stop.set()
            pool.wake()
            thread.join(timeout=10.0)
            pool.shutdown()
        assert not thread.is_alive()

    def test_no_wake_is_lost_under_concurrent_submitters(self, tmp_path):
        # More submitting threads than cores, a short switch interval,
        # and a dispatcher with no poll ceiling: one lost wake-up would
        # leave its job queued for good.
        import sys

        from repro.serve import WorkerPool

        pool = WorkerPool(size=2)
        scheduler = Scheduler(pool, ResultCache(tmp_path / "cache"))
        stop = threading.Event()

        def dispatcher():
            while not stop.is_set():
                scheduler.tick()

        thread = threading.Thread(target=dispatcher, daemon=True)
        states = {}

        def submitter(lane):
            for i in range(6):
                scenario = TINY.derive(seed=100 * lane + i).to_dict()
                ack = scheduler.submit(scenario, priority=i % 3)
                frame = scheduler.result(ack["id"], wait_s=25.0)
                states[lane, i] = frame["state"]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            thread.start()
            lanes = [threading.Thread(target=submitter, args=(lane,), daemon=True)
                     for lane in range(6)]
            for lane in lanes:
                lane.start()
            for lane in lanes:
                lane.join(timeout=60.0)
            assert not any(lane.is_alive() for lane in lanes)
        finally:
            sys.setswitchinterval(interval)
            stop.set()
            pool.wake()
            thread.join(timeout=10.0)
            pool.shutdown()
        assert not thread.is_alive()
        assert len(states) == 36 and set(states.values()) == {DONE}

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_pipe_hand_off(self, start_method):
        from repro.serve import WorkerPool

        pool = WorkerPool(size=1, start_method=start_method)
        try:
            for job_id in ("a", "b"):  # the pipe is reused job after job
                assert pool.capacity == 1
                pool.submit(job_id, TINY.to_dict())
                assert pool.capacity == 0
                with pytest.raises(RuntimeError, match="capacity"):
                    pool.submit("overflow", TINY.to_dict())
                [(got, kind, record)] = poll_until_event(pool)
                assert (got, kind) == (job_id, "done")
                assert record["converged"]
        finally:
            pool.shutdown()

    def test_hand_off_to_a_dead_idle_worker_is_a_crash_event(self):
        from repro.serve import WorkerPool

        pool = WorkerPool(size=1)
        try:
            [worker] = pool._workers.values()
            victim = worker.process
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10.0)
            assert not victim.is_alive()
            pool.submit("j1", TINY.to_dict())  # BrokenPipeError inside
            assert pool.poll(timeout=0) == [
                ("j1", "crashed", "worker process died while idle")
            ]
            assert pool.stats()["respawns"] == 1 and pool.capacity == 1
            pool.submit("j2", TINY.to_dict())
            [(got, kind, _)] = poll_until_event(pool)
            assert (got, kind) == ("j2", "done")
        finally:
            pool.shutdown()

    def test_kill_replaces_the_worker_running_the_job(self):
        """The cancel path of a running job on a real pool: the worker
        is terminated, a fresh one takes its place and runs the next
        job."""
        from repro.serve import WorkerPool

        pool = WorkerPool(backend=_BlockingBackend(), size=1)
        try:
            pool.submit("stuck", TINY.derive(problem_params__n=66).to_dict())
            [victim] = pool._workers.values()
            pid = victim.process.pid
            respawns = pool.stats()["respawns"]
            assert pool.kill("stuck")
            assert pool.stats()["respawns"] == respawns + 1
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)  # terminated and reaped
            assert not pool.kill("nope")
            assert pool.capacity == 1
            pool.submit("next", TINY.to_dict())
            [(got, kind, _)] = poll_until_event(pool)
            assert (got, kind) == ("next", "done")
            [replacement] = pool._workers.values()
            assert replacement.id != victim.id
        finally:
            pool.shutdown()

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_workers_of_a_killed_owner_exit(self, start_method):
        # EOF on the task pipe is how a worker learns its owner is gone;
        # it only arrives if the worker holds no writer of that pipe.
        import subprocess
        import sys

        owner = subprocess.Popen(
            [sys.executable, "-c",
             "import time\n"
             "from repro.serve import WorkerPool\n"
             f"pool = WorkerPool(size=2, start_method={start_method!r})\n"
             "print(*[w.process.pid for w in pool._workers.values()], flush=True)\n"
             "time.sleep(600)\n"],
            stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        )
        try:
            pids = [int(pid) for pid in owner.stdout.readline().split()]
            assert len(pids) == 2
        finally:
            owner.kill()
            owner.wait()

        def running(pid):
            try:
                with open(f"/proc/{pid}/stat") as stat:
                    return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
            except OSError:
                return False

        deadline = time.monotonic() + 30.0
        while any(map(running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        orphans = [pid for pid in pids if running(pid)]
        for pid in orphans:
            os.kill(pid, signal.SIGKILL)
        assert orphans == []

    def test_dead_idle_worker_is_replaced_by_poll(self):
        from repro.serve import WorkerPool

        pool = WorkerPool(size=1)
        try:
            [worker] = pool._workers.values()
            os.kill(worker.process.pid, signal.SIGKILL)
            # EOF on its event pipe ends the wait; no job, so no event.
            assert pool.poll(timeout=30.0) == []
            assert pool.stats()["respawns"] == 1 and pool.capacity == 1
        finally:
            pool.shutdown()


# ---------------------------------------------------------------------------
# long polls: ``wait_s`` on result/status
# ---------------------------------------------------------------------------

class Waiter(threading.Thread):
    """Calls ``fn`` on a thread; ``frame`` is its answer once joined."""

    def __init__(self, fn):
        super().__init__(daemon=True)
        self.fn, self.frame = fn, None
        self.start()

    def run(self):
        self.frame = self.fn()

    def joined(self, timeout=10.0):
        self.join(timeout)
        assert not self.is_alive(), "long poll was not released"
        return self.frame


class TestLongPoll:
    @pytest.mark.parametrize("wait_s", ["1", -1, -0.5, True, None, float("nan")])
    def test_bad_wait_s_is_a_bad_frame(self, wait_s):
        for verb in ("result", "status"):
            with pytest.raises(ProtocolError) as info:
                parse_request({"verb": verb, "id": "j000001", "wait_s": wait_s})
            assert info.value.code == "bad-frame"

    def test_good_wait_s_passes(self):
        for wait_s in (0, 3, 1.5, float("inf")):
            frame = parse_request(
                encode_frame({"verb": "result", "id": "j1", "wait_s": wait_s})
            )
            assert frame["wait_s"] == wait_s

    def test_returns_at_settlement(self, tmp_path):
        scheduler, pool = make_scheduler(tmp_path)
        ack = scheduler.submit(SCENARIO.to_dict())
        scheduler.tick()
        waiter = Waiter(lambda: scheduler.handle(
            {"verb": "result", "id": ack["id"], "wait_s": 25.0}))
        status = Waiter(lambda: scheduler.status(ack["id"], wait_s=25.0))
        time.sleep(0.1)
        assert waiter.is_alive() and status.is_alive()
        pool.finish(ack["id"], {"makespan": 4.0})
        scheduler.tick()
        frame = waiter.joined()
        assert frame["state"] == DONE and frame["record"]["makespan"] == 4.0
        assert status.joined()["state"] == DONE

    def test_failure_releases_too(self, tmp_path):
        scheduler, pool = make_scheduler(tmp_path)
        ack = scheduler.submit(SCENARIO.to_dict())
        scheduler.tick()
        waiter = Waiter(lambda: scheduler.result(ack["id"], wait_s=25.0))
        pool.fail(ack["id"], "ValueError: singular matrix")
        scheduler.tick()
        assert waiter.joined()["state"] == FAILED

    def test_non_terminal_answer_after_wait_s(self, tmp_path, monkeypatch):
        scheduler, _ = make_scheduler(tmp_path)
        ack = scheduler.submit(SCENARIO.to_dict())
        assert scheduler.result(ack["id"], wait_s=0.05)["state"] == QUEUED
        # ... and the server's cap wins over whatever was asked.
        monkeypatch.setattr(daemon_module, "MAX_WAIT_S", 0.05)
        assert scheduler.status(ack["id"], wait_s=1e9)["state"] == QUEUED

    def test_cancel_releases(self, tmp_path):
        scheduler, _ = make_scheduler(tmp_path)
        ack = scheduler.submit(SCENARIO.to_dict())
        waiter = Waiter(lambda: scheduler.result(ack["id"], wait_s=25.0))
        time.sleep(0.05)
        scheduler.cancel(ack["id"])
        assert waiter.joined()["state"] == CANCELLED

    def test_held_connection_blocks_nobody_and_stop_releases_it(self, tmp_path):
        scheduler, pool = make_scheduler(tmp_path)
        pool.blocking = True
        daemon = ServeDaemon(port=0, scheduler=scheduler)
        daemon.start()
        try:
            with ServeClient(port=daemon.port) as holder, \
                    ServeClient(port=daemon.port) as other:
                ack = holder.submit(SCENARIO)  # the stub never finishes it
                waiter = Waiter(lambda: holder.result(ack["id"], wait_s=25.0))
                time.sleep(0.1)
                assert waiter.is_alive()
                assert other.ping()
                assert other.status(ack["id"])["state"] in (QUEUED, RUNNING)
                daemon.stop()
                assert waiter.joined()["state"] in (QUEUED, RUNNING)
        finally:
            daemon.stop()


# ---------------------------------------------------------------------------
# end-to-end daemon over a real socket with real worker processes
# ---------------------------------------------------------------------------

@pytest.fixture
def daemon(tmp_path):
    daemon = ServeDaemon(
        port=0,
        backend="simulated",
        workers=2,
        job_timeout=60.0,
        state_dir=tmp_path / "state",
    )
    daemon.start()
    yield daemon
    daemon.stop()


class TestDaemonEndToEnd:
    def test_submit_wait_cache_stats(self, daemon):
        scenario = Scenario(
            problem="sparse_linear", problem_params={"n": 80}, seed=1
        )
        with ServeClient(port=daemon.port) as client:
            assert client.ping()
            ack = client.submit(scenario, priority=5)
            frame = client.wait(ack["id"], timeout=60.0)
            assert frame["state"] == DONE
            assert frame["record"]["converged"]
            assert frame["record"]["scenario_hash"] == scenario.content_hash()
            again = client.submit(scenario.derive(name="again"))
            assert again["cached"] and again["state"] == DONE
            stats = client.stats()
            assert stats["counters"]["cache_hits"] == 1
            assert stats["counters"]["completed"] == 2

    def test_malformed_line_keeps_connection_alive(self, daemon):
        import socket as socket_module

        with socket_module.create_connection(
            ("127.0.0.1", daemon.port), timeout=10.0
        ) as sock:
            handle = sock.makefile("rb")
            sock.sendall(b"this is not json\n")
            refusal = json.loads(handle.readline())
            assert refusal["ok"] is False and refusal["code"] == "bad-frame"
            sock.sendall(b'{"verb": "launch"}\n')
            refusal = json.loads(handle.readline())
            assert refusal["code"] == "unknown-verb"
            sock.sendall(encode_frame({"verb": "ping"}))
            assert json.loads(handle.readline())["ok"] is True

    def test_unknown_job_is_a_serve_error(self, daemon):
        with ServeClient(port=daemon.port) as client:
            with pytest.raises(ServeError) as info:
                client.status("j424242")
            assert info.value.code == "unknown-job"

    def test_shutdown_verb_stops_daemon(self, daemon):
        with ServeClient(port=daemon.port) as client:
            assert client.shutdown()["stopping"]
        assert daemon._stopped.wait(timeout=10.0)

    def test_wait_paces_itself_against_a_daemon_without_wait_s(
        self, daemon, monkeypatch
    ):
        # An older daemon ignores the unknown field and answers at once.
        monkeypatch.setattr(
            Scheduler, "_await_terminal",
            lambda self, job_id, wait_s: self._get_job(job_id),
        )
        calls = []
        with ServeClient(port=daemon.port) as client:
            real_call = client._call

            def counting_call(frame):
                calls.append(frame["verb"])
                return real_call(frame)

            client._call = counting_call
            ack = client.submit(Scenario(
                problem="sparse_linear", problem_params={"n": 90}, seed=4))
            started = time.monotonic()
            frame = client.wait(ack["id"], timeout=60.0, poll=0.05)
            elapsed = time.monotonic() - started
        assert frame["state"] == DONE
        # Paced, not spinning: about one request per ``poll`` interval.
        assert calls.count("result") <= elapsed / 0.05 + 2
