"""The sharded sweep executor: validation, coalescing, resume, cache.

The heart of this module is a seeded kill/resume property battery: a
sweep is killed at a random settlement point (simulated by a progress
callback that raises -- the callback fires only *after* a settlement
is journaled and cached, exactly like a SIGKILL landing between
units), then resumed, and the resumed run must produce exactly one
terminal record per grid index with zero re-execution of settled
units.  The battery runs the same seeds through all three placements
(local, pool, serve), so the durability contract is placement-
agnostic, not an artifact of serial execution.
"""

import json
import random

import pytest

from repro.api import Scenario
from repro.api.result import RunResult
from repro.api.backends import SimulatedBackend
from repro.runtime.executor import BackendTimeoutError
from repro.serve import ServeDaemon
from repro.serve.cache import ResultCache
from repro.serve.client import ServeClient
from repro.serve.workers import WorkerPool
from repro.sweep import SweepStateError, plan_fingerprint, run_sweep
from repro.testing import check_invariants, work_counters


def make_grid(seed):
    """A small deterministic grid: distinct units, twins, one invalid.

    Returns ``(grid, n_distinct)`` where ``n_distinct`` counts the
    valid distinct units (the invalid item never becomes a unit).
    """
    rng = random.Random(seed)
    base = Scenario(
        problem="sparse_linear",
        problem_params={"n": 40},
        environment="pm2",
        n_ranks=2,
        seed=0,
    )
    sizes = rng.sample(range(40, 88, 4), 5)
    grid = [
        base.derive(
            problem_params__n=n,
            environment=rng.choice(["pm2", "sync_mpi"]),
            name=f"unit-{i}",
        )
        for i, n in enumerate(sizes)
    ]
    # Twins: same content as grid[0]/grid[1], different labels only.
    grid.append(grid[0].derive(name="twin-of-0"))
    grid.insert(2, grid[1].derive(name="twin-of-1"))
    # One invalid item, somewhere in the middle.
    grid.insert(rng.randrange(len(grid)), {"problem": "no_such_problem"})
    return grid, len(sizes)


class _Kill(RuntimeError):
    """Stands in for SIGKILL: raised from the progress callback, which
    fires only after a settlement is durable."""


def kill_after(n):
    """A progress callback that raises once ``n`` settlements landed."""
    state = {"count": 0}

    def progress(event):
        state["count"] += 1
        if state["count"] >= n:
            raise _Kill(f"killed after {n} settlements")

    return progress


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    daemon = ServeDaemon(
        port=0,
        backend="simulated",
        workers=1,
        job_timeout=60.0,
        state_dir=tmp_path_factory.mktemp("daemon-state"),
    )
    daemon.start()
    yield daemon
    daemon.stop()


def placement_kwargs(placement, daemon):
    if placement == "serve":
        return {"port": daemon.port}
    if placement == "pool":
        return {"processes": 2}
    return {}


# ---------------------------------------------------------------------------
# tentpole: seeded kill/resume property battery across every placement
# ---------------------------------------------------------------------------

class TestKillResumeBattery:
    @pytest.mark.parametrize("placement", ["local", "pool", "serve"])
    @pytest.mark.parametrize("seed", range(6))
    def test_kill_then_resume_settles_every_index_once(
        self, placement, seed, tmp_path, daemon
    ):
        grid, distinct = make_grid(seed)
        state_dir = tmp_path / "state"
        kwargs = placement_kwargs(placement, daemon)
        kill_at = random.Random(seed * 7 + 1).randrange(1, distinct)

        with pytest.raises(_Kill):
            run_sweep(
                grid,
                placement=placement,
                state_dir=state_dir,
                progress=kill_after(kill_at),
                **kwargs,
            )

        # Exactly kill_at settlements are journaled: the callback
        # raised only after the kill_at-th durable transition.
        journal = next(state_dir.glob("sweep-*.ndjson"))
        events = [
            json.loads(line) for line in journal.read_text().splitlines()
        ]
        terminal = [e for e in events if e["event"] in ("done", "failed")]
        assert len(terminal) == kill_at

        outcome = run_sweep(
            grid,
            placement=placement,
            state_dir=state_dir,
            resume=True,
            **kwargs,
        )

        # One terminal record per grid index, in order, no losses.
        assert [r["index"] for r in outcome.records] == list(range(len(grid)))
        for record in outcome.records:
            assert ("error" in record) != ("makespan" in record)
        assert sum(1 for r in outcome.records if "error" in r) == 1  # invalid

        # Zero re-execution of settled units: everything journaled at
        # the kill came back for free.
        counters = outcome.counters
        assert counters["resumed"] == kill_at
        assert counters["repaired"] == 0
        assert (
            counters["executed"]
            == distinct - counters["resumed"] - counters["cache_hits"]
        )
        assert counters["distinct"] == distinct
        assert counters["invalid"] == 1
        assert counters["coalesced"] == 2

    @pytest.mark.parametrize("placement", ["local", "pool", "serve"])
    def test_completed_sweep_resumes_for_free(self, placement, tmp_path, daemon):
        grid, distinct = make_grid(99)
        state_dir = tmp_path / "state"
        kwargs = placement_kwargs(placement, daemon)
        first = run_sweep(grid, placement=placement, state_dir=state_dir, **kwargs)
        assert first.counters["executed"] == distinct
        again = run_sweep(
            grid, placement=placement, state_dir=state_dir, resume=True, **kwargs
        )
        assert again.counters["executed"] == 0
        assert again.counters["resumed"] == distinct
        assert [r.get("makespan") for r in again.records] == [
            r.get("makespan") for r in first.records
        ]


# ---------------------------------------------------------------------------
# satellite: whole-grid validation before any work
# ---------------------------------------------------------------------------

class _CountingBackend(SimulatedBackend):
    """A backend that counts its runs (class-level, survives pickling)."""

    runs = 0

    def run(self, scenario):
        type(self).runs += 1
        return super().run(scenario)


class TestUpFrontValidation:
    def test_every_invalid_item_reported_and_nothing_runs(self):
        _CountingBackend.runs = 0
        grid = [
            {"problem": "no_such_problem"},
            {"problem": "sparse_linear", "cluster": "no_such_cluster"},
            {"problem": "sparse_linear", "algorithm": "no_such_worker"},
            {"problem": "sparse_linear", "environment": "no_such_env"},
            {"problem": "sparse_linear", "bogus_field": 1},
        ]
        outcome = run_sweep(grid, backend=_CountingBackend())
        assert _CountingBackend.runs == 0
        assert outcome.counters["invalid"] == len(grid)
        assert outcome.counters["distinct"] == 0
        for needle, record in zip(
            ["no_such_problem", "no_such_cluster", "no_such_worker",
             "no_such_env", "bogus_field"],
            outcome.records,
        ):
            assert needle in record["error"]
            assert "traceback" in record

    def test_invalid_items_do_not_block_valid_ones(self):
        grid = [
            {"problem": "sparse_linear", "problem_params": {"n": 40},
             "n_ranks": 2},
            {"problem": "no_such_problem"},
        ]
        outcome = run_sweep(grid)
        assert "error" not in outcome.records[0]
        assert outcome.records[0]["converged"]
        assert "no_such_problem" in outcome.records[1]["error"]

    def test_unknown_placement_fails_fast(self):
        with pytest.raises(KeyError) as info:
            run_sweep([{"problem": "sparse_linear"}], placement="cloud")
        assert "cloud" in str(info.value)
        for name in ("local", "mega", "pool", "serve"):
            assert repr(name) in str(info.value)  # the known strategies

    def test_serve_placement_refuses_include_solution(self):
        with pytest.raises(ValueError, match="serve"):
            run_sweep(
                [{"problem": "sparse_linear"}],
                placement="serve",
                include_solution=True,
            )


# ---------------------------------------------------------------------------
# the executor a placement name picks
# ---------------------------------------------------------------------------

class _LostRecordClient:
    """A daemon client whose one job finishes with its record gone from
    the daemon's cache (``result`` then sends ``record: None``)."""

    def submit(self, scenario_dict, priority=0):
        return {"ok": True, "id": "j000042", "state": "queued"}

    def result(self, job_id, wait_s=0.0):
        return {"ok": True, "id": job_id, "state": "done", "record": None}

    def close(self):
        pass


class TestExecutors:
    def test_pool_runs_in_process_for_one_unit_or_the_process_backend(
        self, monkeypatch
    ):
        def refuse(self, *args, **kwargs):
            raise AssertionError("the pool placement started worker processes")

        monkeypatch.setattr(WorkerPool, "__init__", refuse)
        units = [
            dict(problem="sparse_linear", problem_params={"n": n}, n_ranks=2)
            for n in (40, 44)
        ]
        outcome = run_sweep(units, placement="pool", processes=2, backend="process")
        assert outcome.counters["executed"] == 2
        assert not outcome.errors
        outcome = run_sweep(units[:1], placement="pool", processes=2)
        assert outcome.counters["executed"] == 1
        assert not outcome.errors

    def test_serve_done_without_record_fails_and_stores_nothing(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(
            ServeClient, "connect", classmethod(lambda cls, **_: _LostRecordClient())
        )
        scenario = Scenario(problem="sparse_linear", problem_params={"n": 40}, n_ranks=2)
        outcome = run_sweep([scenario], placement="serve", state_dir=tmp_path)
        assert "j000042" in outcome.records[0]["error"]
        assert outcome.counters["failed"] == 1
        assert outcome.counters["executed"] == 0
        assert not list((tmp_path / "cache").glob("*.json"))
        # A resume must not read an empty record back as a result.
        again = run_sweep([scenario], placement="serve", state_dir=tmp_path, resume=True)
        assert "error" in again.records[0]


# ---------------------------------------------------------------------------
# satellite: duplicate grid points coalesce into one execution
# ---------------------------------------------------------------------------

class TestCoalescing:
    def test_identical_points_execute_once_and_fan_out(self):
        _CountingBackend.runs = 0
        base = Scenario(
            problem="sparse_linear", problem_params={"n": 48}, n_ranks=2, seed=1
        )
        grid = [
            base.derive(name="a"),
            base.derive(name="b"),
            base.derive(problem_params__n=56, name="c"),
            base.derive(name="d"),
        ]
        outcome = run_sweep(grid, backend=_CountingBackend())
        assert _CountingBackend.runs == 2
        assert outcome.counters == dict(
            outcome.counters, items=4, distinct=2, coalesced=2, executed=2
        )
        # Twins share the execution but keep their own labels.
        names = [r["scenario"]["name"] for r in outcome.records]
        assert names == ["a", "b", "c", "d"]
        assert (
            outcome.records[0]["makespan"]
            == outcome.records[1]["makespan"]
            == outcome.records[3]["makespan"]
        )


# ---------------------------------------------------------------------------
# satellite: transient failures retry within a bounded budget
# ---------------------------------------------------------------------------

class _FlakyBackend(SimulatedBackend):
    """Times out on the first attempt of every scenario, then works."""

    name = "simulated"
    seen = None  # class-level: shared across executor submits

    def run(self, scenario):
        seen = type(self).seen
        key = scenario.content_hash()
        if key not in seen:
            seen.add(key)
            raise BackendTimeoutError("injected flake; retry me")
        return super().run(scenario)


class TestRetryBudget:
    def setup_method(self):
        _FlakyBackend.seen = set()

    def test_retry_budget_recovers_transient_timeouts(self):
        outcome = run_sweep(
            [{"problem": "sparse_linear", "problem_params": {"n": 40},
              "n_ranks": 2}],
            backend=_FlakyBackend(),
            retries=1,
        )
        assert outcome.counters["retries"] == 1
        assert outcome.counters["failed"] == 0
        assert outcome.records[0]["converged"]

    def test_zero_budget_fails_terminally(self):
        outcome = run_sweep(
            [{"problem": "sparse_linear", "problem_params": {"n": 40},
              "n_ranks": 2}],
            backend=_FlakyBackend(),
            retries=0,
        )
        assert outcome.counters["failed"] == 1
        assert "BackendTimeoutError" in outcome.records[0]["error"]


# ---------------------------------------------------------------------------
# satellite: cache semantics -- rot re-executes, hits round-trip faithfully
# ---------------------------------------------------------------------------

class TestCacheSemantics:
    def test_corrupt_or_evicted_entries_reexecute_not_poison(self, tmp_path):
        grid, distinct = make_grid(5)
        state_dir = tmp_path / "state"
        run_sweep(grid, state_dir=state_dir)
        cached = sorted((state_dir / "cache").glob("*.json"))
        assert len(cached) == distinct
        cached[0].write_text("{ not json at all")  # corrupt one entry
        cached[1].unlink()  # evict another

        outcome = run_sweep(grid, state_dir=state_dir, resume=True)
        assert outcome.counters["repaired"] == 2
        assert outcome.counters["executed"] == 2
        assert outcome.counters["resumed"] == distinct - 2
        assert sum(1 for r in outcome.records if "error" in r) == 1  # invalid
        for record in outcome.records:
            if "error" not in record:
                assert record["converged"]

    def test_cache_hits_round_trip_full_records(self, tmp_path):
        from repro.core.aiac import AIACOptions

        # Generator-style parameters (well-conditioned problem, slow
        # hosts) so the scenario genuinely converges within tolerance
        # and the invariant checkers accept the rebuilt result.
        scenario = Scenario(
            problem="sparse_linear",
            problem_params={"n": 160, "n_diagonals": 6, "dominance": 0.6},
            options=AIACOptions(eps=1e-6, stability_count=3,
                                max_iterations=5000),
            cluster="local_cluster",
            cluster_params={"speed_scale": 1e-4},
            n_ranks=2,
            seed=3,
            faults={"seed": 9, "events": [
                {"kind": "message_loss", "probability": 0.05},
            ]},
            balancer={"policy": "diffusion"},
        )
        state_dir = tmp_path / "state"
        first = run_sweep([scenario], state_dir=state_dir,
                          include_solution=True)
        again = run_sweep([scenario], state_dir=state_dir, resume=True,
                          include_solution=True)
        assert again.counters["resumed"] == 1
        assert first.records == again.records

        # The cached record rebuilds a faithful RunResult: same work
        # counters, per-rank reports, fault and balancing accounting
        # as the original -- good enough for the invariant checkers.
        a = RunResult.from_record(first.records[0])
        b = RunResult.from_record(again.records[0])
        assert work_counters(a) == work_counters(b)
        assert a.faults == b.faults
        assert len(a.reports) == len(b.reports) == 2
        for rank in a.reports:
            ra, rb = a.reports[rank], b.reports[rank]
            assert ra.iterations == rb.iterations
            assert ra.meta.get("balancing") == rb.meta.get("balancing")
        assert not check_invariants(scenario, b, scenario.build_problem())

    def test_solutionless_cache_entry_is_not_served_when_solutions_needed(
        self, tmp_path
    ):
        scenario = Scenario(
            problem="sparse_linear", problem_params={"n": 40}, n_ranks=2, seed=1
        )
        state_dir = tmp_path / "state"
        run_sweep([scenario], state_dir=state_dir)  # no solutions cached
        outcome = run_sweep(
            [scenario], state_dir=state_dir, resume=True, include_solution=True
        )
        # The journaled completion's cache entry lacks solutions, so it
        # is repaired (re-executed), never served as a bogus hit.
        assert outcome.counters["repaired"] == 1
        assert outcome.counters["executed"] == 1
        assert "solution" in outcome.records[0]["reports"][0]


# ---------------------------------------------------------------------------
# satellite: a journal from a different plan refuses to resume
# ---------------------------------------------------------------------------

class TestPlanFingerprint:
    def test_mismatched_plan_raises_sweep_state_error(self, tmp_path):
        scenario = Scenario(
            problem="sparse_linear", problem_params={"n": 40}, n_ranks=2
        )
        fingerprint = plan_fingerprint([ResultCache.key_for(scenario)])
        state_dir = tmp_path / "state"
        state_dir.mkdir()
        journal = state_dir / f"sweep-{fingerprint[:12]}.ndjson"
        journal.write_text(
            json.dumps({"event": "plan", "fingerprint": "deadbeef",
                        "items": 1, "distinct": 1}) + "\n"
        )
        with pytest.raises(SweepStateError, match="different sweep plan"):
            run_sweep([scenario], state_dir=state_dir, resume=True)

    def test_fresh_run_rotates_stale_journal_aside(self, tmp_path):
        grid = [Scenario(problem="sparse_linear", problem_params={"n": 40},
                         n_ranks=2)]
        state_dir = tmp_path / "state"
        run_sweep(grid, state_dir=state_dir)
        outcome = run_sweep(grid, state_dir=state_dir)  # no resume
        # The old journal was kept as *.prev; the rerun was still free
        # because the shared cache survives rotation.
        assert list(state_dir.glob("sweep-*.prev"))
        assert outcome.counters["cache_hits"] == 1
        assert outcome.counters["executed"] == 0


# ---------------------------------------------------------------------------
# observability: progress pacing fields and the outcome metrics snapshot
# ---------------------------------------------------------------------------

class TestSweepObservability:
    def _grid(self):
        base = Scenario(problem="sparse_linear", problem_params={"n": 40},
                        environment="pm2", n_ranks=2, seed=0)
        return [base.derive(problem_params__n=n) for n in (40, 44, 48)]

    def test_progress_events_carry_pacing(self):
        events = []
        run_sweep(self._grid(), progress=events.append)
        assert len(events) == 3
        for event in events:
            assert event["elapsed_s"] >= 0.0
            assert event["rate"] >= 0.0
            assert event["eta_s"] is None or event["eta_s"] >= 0.0
        # The last settlement leaves no remaining work.
        last = events[-1]
        assert last["completed"] == last["distinct"] == 3
        assert last["eta_s"] in (None, 0.0)
        # completed is monotone across events.
        completed = [e["completed"] for e in events]
        assert completed == sorted(completed)

    def test_outcome_metrics_snapshot(self):
        outcome = run_sweep(self._grid())
        metrics = outcome.metrics
        assert metrics["counters"]["sweep.executed"] == 3
        assert metrics["counters"]["sweep.distinct"] == 3
        assert metrics["gauges"]["sweep.elapsed_s"] > 0.0
        latency = metrics["histograms"]["unit_latency_s"]
        assert latency["count"] == 3
        assert latency["sum"] > 0.0

    def test_cache_hits_do_not_enter_unit_latency(self, tmp_path):
        grid = self._grid()
        state_dir = tmp_path / "state"
        run_sweep(grid, state_dir=state_dir)
        again = run_sweep(grid, state_dir=state_dir)
        assert again.counters["cache_hits"] == 3
        # Nothing executed: the latency histogram of executed units is
        # absent (or empty), not polluted with ~0s cache lookups.
        latency = again.metrics["histograms"].get("unit_latency_s", {"count": 0})
        assert latency["count"] == 0


class _FakeTime:
    """Stands in for the executor's ``time`` module: a monotonic clock
    that moves only when a test says so."""

    def __init__(self):
        self.now = 1000.0

    def monotonic(self):
        return self.now


class _SlowBackend(SimulatedBackend):
    """Simulated backend with a fixed cost per run *on the fake clock*
    (nothing else takes fake time), so the pacing of live execution is
    exact against journal-resumed settlements, which cost 0 s."""

    delay = 0.05
    clock = None  # class attribute: the dataclass grows no field

    def run(self, scenario, make_solver=None):
        self.clock.now += self.delay
        return super().run(scenario, make_solver)


class TestResumedPacing:
    """Regression: eta_s used to count journal-resumed (and cache-hit)
    ~0s settlements in the completion rate, so a resumed sweep's ETA
    was wildly optimistic.  The rate must reflect live work only."""

    def _grid(self):
        base = Scenario(problem="sparse_linear", problem_params={"n": 40},
                        environment="pm2", n_ranks=2, seed=0)
        return [base.derive(problem_params__n=n, name=f"pace-{n}")
                for n in range(40, 72, 4)]  # 8 distinct units

    def test_resumed_eta_reflects_live_rate_only(self, tmp_path, monkeypatch):
        # The executor reads only time.monotonic(); on a fake clock this
        # checks the ETA arithmetic, not the host's scheduler.
        clock = _FakeTime()
        monkeypatch.setattr("repro.sweep.executor.time", clock)
        monkeypatch.setattr(_SlowBackend, "clock", clock)

        grid = self._grid()
        state_dir = tmp_path / "state"
        backend = _SlowBackend()

        # Kill halfway: 4 of 8 units settle durably, >= 50% pre-settled
        # on resume.
        with pytest.raises(_Kill):
            run_sweep(grid, backend=backend, state_dir=state_dir,
                      progress=kill_after(4))

        events = []

        def progress(event):
            events.append((clock.monotonic(), event))

        outcome = run_sweep(grid, backend=backend, state_dir=state_dir,
                            resume=True, progress=progress)
        assert outcome.counters["resumed"] == 4
        assert outcome.counters["executed"] == 4

        # Resumed settlements land first and carry no live rate yet.
        resumed = [e for _, e in events if e["source"] == "resumed"]
        assert len(resumed) == 4
        assert all(e["eta_s"] is None for e in resumed)

        # Once live execution starts, every event reports the
        # pre-settled split, so a consumer can tell 8-completed-in-1s
        # from 4-resumed-plus-4-run.
        for _, event in events:
            assert event["cache_hits"] == 0
            if event["source"] == "executed":
                assert event["resumed"] == 4

        # At each executed settlement, eta_s must be the time actually
        # remaining (the old completed/elapsed rate predicted ~an
        # eighth of it at the first executed event).
        executed = [(t, e) for t, e in events if e["source"] == "executed"]
        assert len(executed) == 4
        end = executed[-1][0]
        for settled_at, event in executed[:-1]:
            assert event["eta_s"] == pytest.approx(end - settled_at, abs=2e-3)
        final = executed[-1][1]
        assert final["completed"] == final["distinct"] == 8
        assert final["eta_s"] in (None, 0.0)


class TestMegaRecords:
    """A ``mega`` record -- the ``local`` placement under its second
    name, whose chemical units share one solve memo -- is the record of
    a plain ``run()``: the memo removes host work only, so every field
    but the wall-clock ones is identical, the engine's event total
    included."""

    GRID = [
        dict(
            problem=problem,
            problem_params=params,
            environment=environment,
            n_ranks=3,
            cluster="local_cluster",
            cluster_params={"speed_scale": 0.8 + 0.1 * i, "n_hosts": 3},
        )
        for i, (problem, params, environment) in enumerate([
            ("chemical", {"nx": 6, "nz": 9, "t_end": 360.0}, "sync_mpi"),
            ("chemical", {"nx": 6, "nz": 9, "t_end": 360.0}, "sync_mpi"),
            ("chemical", {"nx": 6, "nz": 9, "t_end": 180.0}, "pm2"),
            ("sparse_linear", {"n": 90}, "pm2"),
            ("sparse_linear", {"n": 90}, "sync_mpi"),
        ])
    ]

    @staticmethod
    def _without_wall_clock(record):
        record = {k: v for k, v in record.items() if k not in ("elapsed", "index")}
        record["reports"] = [
            {k: v for k, v in rep.items() if k != "elapsed"} for rep in record["reports"]
        ]
        return record

    def test_mega_records_equal_local_events_included(self):
        mega = run_sweep(self.GRID, placement="mega", include_solution=True)
        assert not mega.errors
        for point, b in zip(self.GRID, mega.records):
            a = SimulatedBackend().run(Scenario.from_dict(point)).to_record(
                include_solution=True
            )
            assert b["backend_stats"]["events"] == a["backend_stats"]["events"]
            assert self._without_wall_clock(a) == self._without_wall_clock(b)
