"""The one work-queue core under ``repro serve`` and ``run_sweep``.

A hypothesis state machine drives :class:`repro.serve.queue.WorkQueue`
with a hand-cranked executor through arbitrary interleavings of admit /
duplicate / cancel / executor events / late events / kill-and-replay,
once per front-end journal format (the daemon's id-keyed
``journal.ndjson`` written by ``Scheduler``'s own callable, the sweep's
key-keyed ``sweep-<fp12>.ndjson`` written by ``SweepState.journal``).
It runs derandomized with a fixed example budget, so tier-1 sees the
same examples every time.

Two fixture tests pin on-disk compatibility: literal journals in the
format the previous revision wrote (with matching cache files) resume
with zero re-execution.
"""

import json
import shutil
import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.api import Scenario
from repro.api.backends import SimulatedBackend
from repro.serve import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    ResultCache,
    Scheduler,
    WorkQueue,
)
from repro.sweep import SweepState, plan_fingerprint, run_sweep

MAX_ATTEMPTS = 2
KEYS = ["k0", "k1", "k2"]
SCENARIOS = {key: {"problem": "sparse_linear", "seed": i} for i, key in enumerate(KEYS)}
FINGERPRINT = plan_fingerprint(KEYS)


class StubExecutor:
    """The executor protocol, hand-cranked: the machine decides what
    every running job amounts to."""

    def __init__(self, size=2):
        self.size = size
        self.running = {}
        self.events = []

    @property
    def capacity(self):
        return self.size - len(self.running)

    def submit(self, job_id, scenario):
        assert self.capacity > 0, "submit past capacity"
        assert job_id not in self.running, "job dispatched twice"
        self.running[job_id] = scenario

    def poll(self, timeout=None):
        events, self.events = self.events, []
        for job_id, _, _ in events:
            self.running.pop(job_id, None)
        return events

    def kill(self, job_id):
        return self.running.pop(job_id, None) is not None

    def wake(self):
        pass

    def stats(self):
        return {"workers": self.size, "busy": len(self.running)}

    def shutdown(self):
        pass


class DaemonFront:
    """The daemon's durable form: a life is a ``Scheduler`` on the state
    dir (its journal callable, its replay), driven below its verbs."""

    ids_survive = True

    def __init__(self, root):
        self.root = root
        self.scheduler = None

    def open(self, admitted):
        executor = StubExecutor()
        self.scheduler = Scheduler(
            executor, ResultCache(self.root / "cache"),
            state_dir=self.root, max_attempts=MAX_ATTEMPTS,
        )
        return self.scheduler.work, executor

    def kill(self):
        self.scheduler.close()  # no write: only drops the file handle

    def check_replay(self, before, usable, work):
        """Ids survive; settled stays settled unless its record rotted."""
        assert set(work.jobs) == set(before)
        for job_id, (key, state, error) in before.items():
            job = work.jobs[job_id]
            assert job.key == key
            if state in (FAILED, CANCELLED):
                assert (job.state, job.error) == (state, error)
            elif state == DONE and key in usable:
                assert job.state == DONE  # zero re-execution
            else:
                assert job.state == QUEUED and job.attempts == 0
        return sum(1 for job in work.jobs.values() if job.state == QUEUED)


class SweepFront:
    """The sweep's durable form: a life is a ``SweepState`` (resume) plus
    a fresh queue the grid shell re-admits every unit to, except the
    ones the journal holds as failed."""

    ids_survive = False

    def __init__(self, root):
        self.root = root
        self.state = None

    def open(self, admitted):
        self.admitted = list(admitted)
        self.state = SweepState(
            self.root, FINGERPRINT, items=len(KEYS), distinct=len(KEYS), resume=True
        )
        work = WorkQueue(
            cache=self.state.cache, journal=self.state.journal,
            max_attempts=MAX_ATTEMPTS,
        )
        for key in admitted:
            if key not in self.state.failed:
                work.admit(key, SCENARIOS[key])
        return work, StubExecutor()

    def kill(self):
        self.state.close()

    def check_replay(self, before, usable, work):
        """Keys survive: a key's last journaled word is honoured, and a
        journaled failure sticks (the shell keeps it out of the queue)."""
        last = {}
        for key, state, _ in before.values():  # id order: later jobs win
            if state in (DONE, FAILED):
                last[key] = state
        for key, state in last.items():
            assert (key in self.state.failed) == (state == FAILED)
        by_key = {job.key: job for job in work.jobs.values()}
        assert len(by_key) == len(work.jobs)
        assert set(by_key) == set(self.admitted) - set(self.state.failed)
        for key, job in by_key.items():
            if key in usable:
                assert job.state == DONE and job.cached  # zero re-execution
            else:
                assert job.state == QUEUED
        return 0  # nothing is "replayed": the shell admits afresh


def record_for(key, stamp):
    return {"key": key, "stamp": stamp, "makespan": 1.0, "pad": "x" * 64}


class WorkQueueMachine(RuleBasedStateMachine):
    front_cls = None

    def __init__(self):
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="work-queue-"))
        self.front = self.front_cls(self.root)
        self.probe = ResultCache(self.root / "cache")  # the model's own reader
        self.admitted = []  # distinct keys ever admitted, in order
        self.stamp = 0
        self.open_life()

    def teardown(self):
        self.front.kill()
        shutil.rmtree(self.root, ignore_errors=True)

    def open_life(self):
        self.work, self.executor = self.front.open(self.admitted)
        self.terminal = {}  # job id -> the terminal state it first reached
        self.rides = {}  # job id -> riders it took this life

    # -- model helpers ---------------------------------------------------
    def open_jobs(self, key=None):
        return [
            job for job in self.work.jobs.values()
            if job.state in (QUEUED, RUNNING) and key in (None, job.key)
        ]

    def usable(self, key):
        path = self.probe.path_for(key)
        try:
            return json.loads(path.read_text())
        except (OSError, ValueError):
            return None

    def running_job(self, index):
        ids = sorted(self.executor.running)
        return self.work.jobs[ids[index % len(ids)]]

    def deliver(self, job, kind, payload):
        self.executor.events.append((job.id, kind, payload))
        settled = []
        for event in self.executor.poll():
            self.work.store(*event)
            settled.append(self.work.settle(*event))
        assert len(settled) == 1
        return settled[0]

    def expect_transient(self, job, kind, payload):
        attempts, retries = job.attempts, self.work.counters["retries"]
        settled = self.deliver(job, kind, payload)
        if attempts < MAX_ATTEMPTS:
            assert settled is None and job.state == QUEUED
            assert self.work.counters["retries"] == retries + 1
        else:
            assert settled is job and job.state == FAILED and job.error
            assert self.work.counters["retries"] == retries

    # -- rules -----------------------------------------------------------
    @rule(key=st.sampled_from(KEYS), priority=st.integers(0, 3))
    def admit(self, key, priority):
        usable, twins = self.usable(key), self.open_jobs(key)
        job, coalesced, record = self.work.admit(key, SCENARIOS[key], priority)
        assert job.key == key
        if usable is not None:
            assert record == usable and not coalesced
            assert job.state == DONE and job.cached
        elif coalesced:
            assert job in twins and record is None
            assert job.priority >= priority
            self.rides[job.id] = self.rides.get(job.id, 0) + 1
        else:
            assert not twins
            assert record is None and job.state == QUEUED and job.attempts == 0
        if key not in self.admitted:
            self.admitted.append(key)

    @precondition(lambda self: self.open_jobs())
    @rule(index=st.integers(0, 7), priority=st.integers(0, 3))
    def admit_duplicate(self, index, priority):
        jobs = self.open_jobs()
        self.admit(jobs[index % len(jobs)].key, priority)

    @rule()
    def dispatch(self):
        room = min(len(self.work.queue), self.executor.capacity)
        started = self.work.dispatch(self.executor, now=1.0)
        assert len(started) == room
        for job in started:
            assert job.state == RUNNING and job.id in self.executor.running

    @precondition(lambda self: self.executor.running)
    @rule(index=st.integers(0, 7))
    def executor_done(self, index):
        job = self.running_job(index)
        self.stamp += 1
        record = record_for(job.key, self.stamp)
        assert self.deliver(job, "done", record) is job
        assert job.state == DONE and self.usable(job.key) == record
        assert not self.open_jobs(job.key)  # replayed twins settle with it

    @precondition(lambda self: self.executor.running)
    @rule(index=st.integers(0, 7), as_dict=st.booleans())
    def executor_failed(self, index, as_dict):
        job = self.running_job(index)
        error = "ValueError: singular matrix"
        payload = {"error": error, "traceback": "Traceback ..."} if as_dict else error
        assert self.deliver(job, "failed", payload) is job
        assert (job.state, job.error) == (FAILED, error)

    @precondition(lambda self: self.executor.running)
    @rule(index=st.integers(0, 7),
          name=st.sampled_from(["BackendTimeoutError", "ThreadTimeoutError"]))
    def executor_failed_with_a_timeout_error(self, index, name):
        self.expect_transient(self.running_job(index), "failed", f"{name}: too slow")

    @precondition(lambda self: self.executor.running)
    @rule(index=st.integers(0, 7))
    def executor_timeout(self, index):
        self.expect_transient(
            self.running_job(index), "timeout",
            "BackendTimeoutError: job exceeded the 1s per-attempt deadline",
        )

    @precondition(lambda self: self.executor.running)
    @rule(index=st.integers(0, 7))
    def executor_crashed(self, index):
        job = self.running_job(index)
        self.expect_transient(job, "crashed", "worker process died mid-job")
        assert job.state == QUEUED or job.error.startswith("worker crashed: ")

    @precondition(lambda self: self.terminal)
    @rule(index=st.integers(0, 7),
          kind=st.sampled_from(["done", "failed", "timeout", "crashed"]))
    def late_event_for_a_settled_job(self, index, kind):
        ids = sorted(self.terminal)
        job = self.work.jobs[ids[index % len(ids)]]
        before = (job.state, job.error, self.usable(job.key), dict(self.work.counters))
        event = (job.id, kind, record_for(job.key, -1) if kind == "done" else "late")
        self.work.store(*event)
        assert self.work.settle(*event) is None
        assert before == (
            job.state, job.error, self.usable(job.key), self.work.counters
        )

    @precondition(lambda self: self.open_jobs())
    @rule(index=st.integers(0, 7))
    def cancel(self, index):
        jobs = self.open_jobs()
        job = jobs[index % len(jobs)]
        if job.state == RUNNING:
            assert self.executor.kill(job.id)
        self.work.cancel(job)
        assert job.state == CANCELLED

    def keys_shared_by_done_jobs(self):
        done = [job.key for job in self.work.jobs.values() if job.state == DONE]
        return sorted(key for key in set(done) if done.count(key) > 1)

    @rule(index=st.integers(0, 7), rot=st.sampled_from(["keep", "remove", "tear"]))
    def kill_and_replay(self, index, rot):
        cached = sorted(self.root.glob("cache/*.json"))
        self.replay_after_rotting(cached[index % len(cached)] if cached else None, rot)

    @precondition(lambda self: self.keys_shared_by_done_jobs())
    @rule(index=st.integers(0, 7), rot=st.sampled_from(["remove", "tear"]))
    def rot_a_record_shared_by_done_jobs_and_replay(self, index, rot):
        shared = self.keys_shared_by_done_jobs()
        key = shared[index % len(shared)]
        done = sum(
            1 for job in self.work.jobs.values()
            if job.key == key and job.state == DONE
        )
        self.replay_after_rotting(self.probe.path_for(key), rot)
        # The daemon brings every id back, the sweep one job per key;
        # either way the key has one seat (invariant below) and all its
        # jobs settle together in ``executor_done``.
        assert len(self.open_jobs(key)) == (done if self.front.ids_survive else 1)

    def replay_after_rotting(self, victim, rot):
        before = {
            job.id: (job.key, job.state, job.error)
            for job in self.work.jobs.values()
        }
        if victim is not None and rot == "remove":
            victim.unlink()
        elif victim is not None and rot == "tear":
            with victim.open("r+") as handle:
                handle.truncate(40)
        usable = {key for key in KEYS if self.usable(key) is not None}
        self.front.kill()
        self.open_life()
        replayed = self.front.check_replay(before, usable, self.work)
        assert self.work.counters["replayed"] == replayed

    # -- invariants --------------------------------------------------------
    @invariant()
    def exactly_one_terminal_state_per_job(self):
        for job in self.work.jobs.values():
            if job.terminal:
                assert self.terminal.setdefault(job.id, job.state) == job.state
            else:
                assert job.id not in self.terminal

    @invariant()
    def every_rider_sees_its_hosts_outcome(self):
        # A rider holds its host's id, so the host's terminal state *is*
        # the rider's; what can go wrong is the host losing count of them.
        for job_id, riders in self.rides.items():
            assert self.work.jobs[job_id].coalesced == riders

    @invariant()
    def every_open_key_has_exactly_one_seat(self):
        # One job per key is queued or running, however many jobs of
        # the key are open: a key is never executed twice at once.
        seats = len(self.work.queue) + len(self.executor.running)
        assert seats == self.work.in_flight
        assert seats == len({job.key for job in self.open_jobs()})

    @invariant()
    def attempts_stay_within_the_budget(self):
        for job in self.work.jobs.values():
            assert job.attempts <= MAX_ATTEMPTS
            if job.state == RUNNING:
                assert job.id in self.executor.running

    @invariant()
    def a_done_jobs_record_reads_back(self):
        for job in self.work.jobs.values():
            if job.state == DONE:
                assert self.usable(job.key) is not None

    @invariant()
    def counters_add_up(self):
        c = self.work.counters
        accepted = c["submitted"] - c["coalesced"] + c["replayed"]
        assert accepted == (
            c["completed"] + c["failed"] + c["cancelled"] + len(self.open_jobs())
        )
        assert self.work.in_flight <= len(self.open_jobs())
        assert c["cache_hits"] <= c["completed"]


MACHINE_SETTINGS = settings(
    derandomize=True, max_examples=60, stateful_step_count=40,
    deadline=None, database=None,
)


class DaemonFormatMachine(WorkQueueMachine):
    front_cls = DaemonFront


class SweepFormatMachine(WorkQueueMachine):
    front_cls = SweepFront


TestWorkQueueDaemonFormat = DaemonFormatMachine.TestCase
TestWorkQueueDaemonFormat.settings = MACHINE_SETTINGS
TestWorkQueueSweepFormat = SweepFormatMachine.TestCase
TestWorkQueueSweepFormat.settings = MACHINE_SETTINGS


# ---------------------------------------------------------------------------
# restore: jobs of one key whose shared record rotted run once
# ---------------------------------------------------------------------------

def _restored_twins(tmp_path, n=3):
    """A queue replayed from ``n`` journaled-``done`` jobs of ``k0`` whose
    record is gone, its journal as a list, and a two-slot executor."""
    events = []
    for i in range(1, n + 1):
        events.append({"event": "submit", "id": f"j{i:06d}", "key": "k0",
                       "priority": 0, "seq": i - 1, "scenario": SCENARIOS["k0"]})
        events.append({"event": "done", "id": f"j{i:06d}"})
    journal = []
    work = WorkQueue(
        cache=ResultCache(tmp_path / "cache"),
        journal=lambda event, job: journal.append((event, job.id)),
        max_attempts=MAX_ATTEMPTS,
    )
    requeued = work.restore(events)
    assert [job.id for job in requeued] == [f"j{i:06d}" for i in range(1, n + 1)]
    assert all(job.state == QUEUED for job in requeued)
    assert work.counters["replayed"] == n and work.in_flight == 1
    return work, journal, StubExecutor()


def _finish(work, executor, job_id, kind, payload):
    executor.events.append((job_id, kind, payload))
    for event in executor.poll():
        work.store(*event)
        return work.settle(*event)


def test_restore_runs_a_key_shared_by_rotted_done_jobs_once(tmp_path):
    work, journal, executor = _restored_twins(tmp_path)
    started = work.dispatch(executor, now=1.0)
    assert [job.id for job in started] == ["j000001"]  # the others ride it
    assert executor.capacity == 1 and len(work.queue) == 0
    # A duplicate submission still finds the running host.
    twin, coalesced, _ = work.admit("k0", SCENARIOS["k0"])
    assert coalesced and twin is started[0]

    record = record_for("k0", 1)
    assert _finish(work, executor, "j000001", "done", record) is started[0]
    assert {job.state for job in work.jobs.values()} == {DONE}
    assert work.cache.get("k0") == record
    assert journal == [("done", "j000001"), ("done", "j000002"), ("done", "j000003")]
    assert work.in_flight == 0 and work.dispatch(executor, now=2.0) == []
    c = work.counters
    assert (c["replayed"], c["completed"], c["submitted"], c["coalesced"]) == (3, 3, 1, 1)


def test_a_restored_rider_takes_over_when_its_host_fails_or_is_cancelled(tmp_path):
    work, journal, executor = _restored_twins(tmp_path)
    first, second, third = (work.jobs[f"j{i:06d}"] for i in (1, 2, 3))
    work.dispatch(executor, now=1.0)
    assert _finish(work, executor, first.id, "failed", "ValueError: boom") is first
    assert (first.state, second.state, third.state) == (FAILED, QUEUED, QUEUED)
    assert [job.id for job in work.dispatch(executor, now=2.0)] == [second.id]

    work.cancel(third)  # a rider leaves: the host is untouched
    assert (second.state, third.state, work.in_flight) == (RUNNING, CANCELLED, 1)
    executor.kill(second.id)
    work.cancel(second)  # the host leaves with no rider left: key is free
    assert work.in_flight == 0 and len(work.queue) == 0
    assert journal == [("failed", first.id), ("cancelled", third.id),
                       ("cancelled", second.id)]
    c = work.counters
    assert c["replayed"] == c["failed"] + c["cancelled"] == 3


# ---------------------------------------------------------------------------
# on-disk compatibility: journals as the previous revision wrote them
# ---------------------------------------------------------------------------

def _scenario_json(n, seed, n_ranks=4, name=None):
    return (
        '{"problem":"sparse_linear","environment":"pm2","cluster":"uniform_cluster",'
        f'"algorithm":"auto","n_ranks":{n_ranks},"problem_params":{{"n":{n}}},'
        '"cluster_params":{},"options":null,"policy_overrides":{},'
        f'"seed":{seed},"faults":null,"balancer":null,"problem_kind":null,'
        f'"name":{json.dumps(name)}}}'
    )


KEY_A = "a3b9154c2780066fd6758219439bdb083d506e43c6985f6124db72158f41d986-s1"
KEY_B = "9c88bc50b7ff006cd694a06f64fe9c75d007fdfe488b06f5f98e7333cebd6f34-s2"
KEY_C = "58ac198552696e3a47e77ebaddc223115bc2391dc5b19e9396d6ccf4268c8f70-s3"

#: A daemon's ``journal.ndjson``: j1 done, j2 failed, j3 cancelled, j4
#: born from the cache, j5 (no stamps: a pre-``ts`` daemon wrote it)
#: still queued at the kill.
PARENT_DAEMON_JOURNAL = "\n".join([
    f'{{"event":"submit","id":"j000001","key":"{KEY_A}","priority":2,"seq":0,'
    f'"scenario":{_scenario_json(60, 1)},"ts":1790781971.2348309,"mono":34490.5119}}',
    f'{{"event":"submit","id":"j000002","key":"{KEY_B}","priority":0,"seq":1,'
    f'"scenario":{_scenario_json(70, 2)},"ts":1790781971.2352357,"mono":34490.512304}}',
    f'{{"event":"submit","id":"j000003","key":"{KEY_C}","priority":1,"seq":2,'
    f'"scenario":{_scenario_json(80, 3)},"ts":1790781971.2353735,"mono":34490.512442}}',
    '{"event":"done","id":"j000001","ts":1790781971.2356968,"mono":34490.512765}',
    '{"event":"failed","id":"j000002","error":"ValueError: singular matrix",'
    '"ts":1790781971.2358,"mono":34490.5129}',
    f'{{"event":"submit","id":"j000004","key":"{KEY_A}","priority":0,"seq":3,'
    f'"scenario":{_scenario_json(60, 1, name="again")},'
    '"ts":1790781971.2360141,"mono":34490.513082}',
    '{"event":"done","id":"j000004","cached":true,"ts":1790781971.2360637,'
    '"mono":34490.513132}',
    '{"event":"cancelled","id":"j000003","ts":1790781971.2361238,"mono":34490.513192}',
    f'{{"event":"submit","id":"j000005","key":"{KEY_C}","priority":0,"seq":4,'
    f'"scenario":{_scenario_json(80, 3)}}}',
]) + "\n"


def test_parent_format_daemon_journal_resumes_without_reexecution(tmp_path):
    (tmp_path / "cache").mkdir()
    (tmp_path / "journal.ndjson").write_text(PARENT_DAEMON_JOURNAL)
    (tmp_path / "cache" / f"{KEY_A}.json").write_text(
        '{"makespan":4.0,"backend":"simulated"}'
    )
    pool = StubExecutor()
    scheduler = Scheduler(pool, ResultCache(tmp_path / "cache"), state_dir=tmp_path)
    try:
        # The keys in the literal journal are still this code's keys.
        assert ResultCache.key_for(
            Scenario.from_dict(json.loads(_scenario_json(60, 1)))
        ) == KEY_A
        for job_id in ("j000001", "j000004"):
            frame = scheduler.result(job_id)
            assert frame["state"] == DONE and frame["record"]["makespan"] == 4.0
        assert scheduler.status("j000004")["cached"]
        failed = scheduler.status("j000002")
        assert failed["state"] == FAILED and "singular" in failed["error"]
        assert scheduler.status("j000003")["state"] == CANCELLED
        assert scheduler.status("j000005")["state"] == QUEUED
        assert scheduler.counters["replayed"] == 1
        scheduler.tick()
        assert set(pool.running) == {"j000005"}  # nothing settled ran again
        fresh = scheduler.submit(json.loads(_scenario_json(70, 2)))
        assert fresh["id"] == "j000006" and not fresh["cached"]
    finally:
        scheduler.close()
    # The revived daemon appends in the same format it replayed.
    lines = (tmp_path / "journal.ndjson").read_text().splitlines()
    appended = json.loads(lines[-1])
    assert list(appended) == [
        "event", "id", "key", "priority", "seq", "scenario", "ts", "mono"
    ]
    assert appended["seq"] == 5


class _CountingBackend(SimulatedBackend):
    runs = 0

    def run(self, scenario):
        type(self).runs += 1
        return super().run(scenario)


def test_parent_format_sweep_journal_resumes_without_reexecution(tmp_path):
    base = Scenario(problem="sparse_linear", problem_params={"n": 40},
                    environment="pm2", n_ranks=2, seed=0)
    grid = [base.derive(problem_params__n=n, name=f"u{n}") for n in (40, 44, 48)]
    grid.append(base.derive(name="twin"))
    keys = [
        "be8380f54f7969e617cc1cd4bc359e048e2dae21646da477f63ade905be5b99d-s0",
        "f3a3d48b478abc40191e7e866fae2631ff95280c1b75658b130f970334e96ada-s0",
        ResultCache.key_for(grid[2]),
    ]
    assert [ResultCache.key_for(s) for s in grid[:2]] == keys[:2]
    fingerprint = plan_fingerprint(keys)
    journal = tmp_path / f"sweep-{fingerprint[:12]}.ndjson"
    journal.write_text(
        f'{{"event":"plan","fingerprint":"{fingerprint}","items":4,"distinct":3}}\n'
        f'{{"event":"done","key":"{keys[0]}"}}\n'
        f'{{"event":"failed","key":"{keys[2]}","error":"ValueError: singular matrix"}}\n'
        f'{{"event":"done","key":"{keys[1]}"}}\n'
    )
    (tmp_path / "cache").mkdir()
    for key, makespan in zip(keys[:2], (0.0123, 0.0116)):
        (tmp_path / "cache" / f"{key}.json").write_text(json.dumps(
            {"backend": "simulated", "makespan": makespan, "converged": True,
             "scenario": {}, "reports": []},
            separators=(",", ":"),
        ))
    before = journal.read_text()

    _CountingBackend.runs = 0
    outcome = run_sweep(grid, backend=_CountingBackend(), state_dir=tmp_path,
                        resume=True)
    assert _CountingBackend.runs == 0
    assert outcome.counters == dict(
        outcome.counters, resumed=3, executed=0, cache_hits=0, repaired=0, failed=1
    )
    assert [r.get("makespan") for r in outcome.records] == [
        0.0123, 0.0116, None, 0.0123
    ]
    assert outcome.records[2]["error"] == "ValueError: singular matrix"
    assert [r["scenario"]["name"] for r in outcome.records] == [
        "u40", "u44", "u48", "twin"
    ]
    assert journal.read_text() == before  # nothing to add, nothing rewritten
