"""Calibration: measure, objective, staged search, presets, drift.

Most tests are sim-to-sim: the "measured" reference is produced by the
*simulator* under known ground-truth parameters, so the fit has an
exactly representable optimum and every score is deterministic.  One
smoke test measures the real threaded backend (tiny sizes -- it checks
the reference structure, not fit quality, which needs the full-size
compute-dominated battery).
"""

import json

import pytest

from repro.api import Scenario
from repro.api.backends import SimulatedBackend
from repro.calibrate import (
    CalibrationDriftError,
    CalibrationError,
    CalibrationObjective,
    assert_no_drift,
    build_preset,
    check_drift,
    clamp_params,
    candidate_grid,
    coordinate_descent,
    default_battery,
    distributed_search,
    fit,
    have_optuna,
    load_preset,
    load_reference,
    measure_battery,
    register_preset,
    tiny_battery,
    warm_start_speed,
    write_preset,
    write_reference,
)
from repro.calibrate.measure import REFERENCE_SCHEMA
from repro.clusters import get_cluster, list_clusters

GROUND_TRUTH = {"speed": 3.0e7, "latency": 2.0e-4, "bandwidth": 5.0e6}


def _synthetic_battery():
    """A fast battery (tiny n) for sim-to-sim tests."""
    return default_battery(sizes=(48, 72), n_ranks=2)


@pytest.fixture(scope="module")
def synthetic_reference():
    """The battery 'measured' on the simulator under known parameters."""
    battery = [
        s.derive(cluster="calibrated", cluster_params=dict(GROUND_TRUTH))
        for s in _synthetic_battery()
    ]
    return measure_battery(battery, backend="simulated", repeats=1)


# ---------------------------------------------------------------------------
# batteries + measurement
# ---------------------------------------------------------------------------

class TestMeasure:
    def test_batteries_use_one_rank_count(self):
        for battery in (default_battery(), tiny_battery()):
            assert len({s.n_ranks for s in battery}) == 1

    def test_reference_structure(self, synthetic_reference):
        ref = synthetic_reference
        assert ref["schema"] == REFERENCE_SCHEMA
        assert ref["backend"] == "simulated"
        assert "python" in ref["environment"]
        assert len(ref["entries"]) == 2
        for entry in ref["entries"]:
            assert entry["makespan_s"] > 0
            assert len(entry["makespans_s"]) == 1
            assert len(entry["ranks"]) == 2
            # Compute shares are a distribution over ranks.
            assert sum(entry["compute_share"]) == pytest.approx(1.0)
            Scenario.from_dict(entry["scenario"])  # round-trips

    def test_environment_fingerprint_recorded(self, synthetic_reference):
        env = synthetic_reference["environment"]
        assert set(env) == {"python", "implementation", "numpy", "platform",
                            "machine", "cpu_count", "git_rev"}
        assert env["python"] and env["numpy"] and env["cpu_count"] >= 1

    def test_threaded_measure_smoke(self):
        battery = default_battery(sizes=(400,), n_ranks=2)
        ref = measure_battery(battery, backend="threaded", repeats=2,
                              timeout=60.0)
        assert ref["backend"] == "threaded"
        (entry,) = ref["entries"]
        assert entry["makespan_s"] > 0
        assert len(entry["makespans_s"]) == 2
        assert entry["converged"]

    def test_reference_round_trip(self, synthetic_reference, tmp_path):
        path = write_reference(tmp_path / "ref.json", synthetic_reference)
        again = load_reference(path)
        assert again["entries"] == synthetic_reference["entries"]

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "nope", "entries": [1]}))
        with pytest.raises(CalibrationError):
            load_reference(path)

    def test_measure_rejects_bad_input(self):
        with pytest.raises(CalibrationError):
            measure_battery("no_such_battery")
        with pytest.raises(CalibrationError):
            measure_battery([], backend="simulated")
        with pytest.raises(ValueError):
            measure_battery(_synthetic_battery(), backend="simulated",
                            repeats=0)


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------

class TestObjective:
    def test_ground_truth_scores_zero(self, synthetic_reference):
        objective = CalibrationObjective(synthetic_reference)
        report = objective.evaluate(GROUND_TRUTH)
        assert report["score"] == pytest.approx(0.0, abs=1e-9)
        assert report["max_makespan_error"] == pytest.approx(0.0, abs=1e-9)

    def test_deterministic_for_same_battery_and_params(
        self, synthetic_reference
    ):
        params = {"speed": 1.0e8, "latency": 1.0e-4, "bandwidth": 1.25e7}
        a = CalibrationObjective(synthetic_reference).evaluate(params)
        b = CalibrationObjective(synthetic_reference).evaluate(params)
        assert a["score"] == b["score"]
        assert a["entries"] == b["entries"]

    def test_wrong_params_score_positive(self, synthetic_reference):
        # A 100x slower host makes compute dominate even this tiny
        # battery; the makespan error must register.
        objective = CalibrationObjective(synthetic_reference)
        wrong = objective.evaluate({**GROUND_TRUTH, "speed": 3.0e5})
        assert wrong["score"] > 0.1

    def test_evaluate_records_matches_in_process(self, synthetic_reference):
        objective = CalibrationObjective(synthetic_reference)
        backend = SimulatedBackend(timeline=True)
        records = [
            backend.run(s).to_record()
            for s in objective.scenarios(GROUND_TRUTH)
        ]
        report = objective.evaluate_records(GROUND_TRUTH, records)
        assert report["score"] == pytest.approx(
            objective.evaluate(GROUND_TRUTH)["score"], abs=1e-12
        )

    def test_evaluate_records_failed_record_is_infeasible(
        self, synthetic_reference
    ):
        objective = CalibrationObjective(synthetic_reference)
        records = [{"error": "boom"}, None]
        report = objective.evaluate_records(GROUND_TRUTH, records)
        assert report["score"] == float("inf")

    def test_evaluate_records_requires_timelines(self, synthetic_reference):
        objective = CalibrationObjective(synthetic_reference)
        backend = SimulatedBackend()  # timeline=False
        records = [
            backend.run(s).to_record()
            for s in objective.scenarios(GROUND_TRUTH)
        ]
        with pytest.raises(CalibrationError):
            objective.evaluate_records(GROUND_TRUTH, records)


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

class TestSearch:
    def test_clamp_params(self):
        clamped = clamp_params({"speed": 1.0, "latency": 10.0})
        assert clamped["speed"] == 1.0e4
        assert clamped["latency"] == 1.0

    def test_warm_start_lands_near_ground_truth_speed(
        self, synthetic_reference
    ):
        objective = CalibrationObjective(synthetic_reference)
        start = {**GROUND_TRUTH, "speed": 1.0e9}
        warmed, report = warm_start_speed(objective, start)
        assert warmed["speed"] == pytest.approx(GROUND_TRUTH["speed"], rel=0.5)
        assert report["score"] < objective.evaluate(start)["score"]

    def test_coordinate_descent_is_seeded_deterministic(
        self, synthetic_reference
    ):
        start = {"speed": 1.0e8, "latency": 1.0e-4, "bandwidth": 1.25e7}
        runs = [
            coordinate_descent(
                CalibrationObjective(synthetic_reference), start,
                seed=7, max_rounds=3,
            )
            for _ in range(2)
        ]
        assert runs[0][0] == runs[1][0]
        assert runs[0][1]["score"] == runs[1][1]["score"]

    def test_candidate_grid_seeded_and_centered(self):
        a = candidate_grid(GROUND_TRUTH, 5, seed=3)
        b = candidate_grid(GROUND_TRUTH, 5, seed=3)
        assert a == b
        assert a[0] == clamp_params(GROUND_TRUTH)
        assert candidate_grid(GROUND_TRUTH, 5, seed=4)[1] != a[1]

    def test_fit_recovers_synthetic_reference(self, synthetic_reference):
        result = fit(synthetic_reference, seed=0, rounds=4, use_optuna=False)
        assert result.score < result.baseline_score
        assert result.max_makespan_error < 0.05
        assert result.evaluations > 0
        assert [s["stage"] for s in result.stages][:2] == [
            "validate", "warm_start",
        ]
        payload = result.to_dict()
        assert payload["params"] == result.params
        json.dumps(payload)  # JSON-safe

    def test_fit_is_seeded_deterministic(self, synthetic_reference):
        kwargs = dict(seed=11, rounds=2, use_optuna=False)
        a = fit(synthetic_reference, **kwargs)
        b = fit(synthetic_reference, **kwargs)
        assert a.params == b.params
        assert a.score == b.score

    def test_distributed_search_through_sweep(self, synthetic_reference):
        objective = CalibrationObjective(synthetic_reference)
        off = {**GROUND_TRUTH, "speed": GROUND_TRUTH["speed"] * 3.0}
        best_params, best, scored = distributed_search(
            objective, off, n_candidates=4, seed=0, spread=3.0,
        )
        assert len(scored) == 4
        # The center is always candidate 0, so the best candidate can
        # only improve on the starting point.
        assert best["score"] <= scored[0]["score"]
        assert best_params == best["params"]

    def test_fit_distributed_stage(self, synthetic_reference, tmp_path):
        result = fit(
            synthetic_reference, seed=0, rounds=2, use_optuna=False,
            candidates=3, state_dir=tmp_path / "sweep-state",
        )
        assert "distributed" in [s["stage"] for s in result.stages]
        assert result.max_makespan_error < 0.1


# ---------------------------------------------------------------------------
# optuna (optional dependency)
# ---------------------------------------------------------------------------

class TestOptuna:
    def test_explicit_optuna_without_install_raises(
        self, synthetic_reference, monkeypatch
    ):
        import repro.calibrate.search as search

        monkeypatch.setattr(search, "have_optuna", lambda: None)
        with pytest.raises(CalibrationError, match="optuna"):
            search.fit(synthetic_reference, use_optuna=True)

    def test_fit_falls_back_cleanly_without_optuna(
        self, synthetic_reference, monkeypatch
    ):
        import repro.calibrate.search as search

        monkeypatch.setattr(search, "have_optuna", lambda: None)
        result = search.fit(synthetic_reference, seed=0, rounds=2)
        assert "optuna" not in [s["stage"] for s in result.stages]

    def test_optuna_stage_when_installed(self, synthetic_reference):
        pytest.importorskip("optuna")
        result = fit(
            synthetic_reference, seed=0, rounds=2, use_optuna=True,
            optuna_trials=5,
        )
        assert "optuna" in [s["stage"] for s in result.stages]


# ---------------------------------------------------------------------------
# presets + drift
# ---------------------------------------------------------------------------

class TestPresets:
    @pytest.fixture(scope="class")
    def fitted(self, synthetic_reference):
        result = fit(synthetic_reference, seed=0, rounds=3, use_optuna=False)
        return build_preset(
            "calibrated_test_fit", result, synthetic_reference
        )

    def test_preset_round_trip_and_registration(self, fitted, tmp_path):
        path = write_preset(tmp_path / "preset.json", fitted)
        loaded = load_preset(path)
        assert loaded["params"] == fitted["params"]

        name = register_preset(loaded)
        assert name == "calibrated_test_fit"
        assert name in list_clusters()
        network = get_cluster(name)
        # The fitted speed is baked into every host...
        host = network.hosts[0]
        assert host.speed == pytest.approx(fitted["params"]["speed"])
        # ...and builder kwargs still override (n_hosts comes from the
        # scenario's cluster_params in real use).
        assert len(get_cluster(name, n_hosts=6).hosts) == 6

    def test_registered_preset_runs_a_scenario(self, fitted):
        register_preset(fitted)
        scenario = Scenario(
            problem="sparse_linear", problem_params={"n": 48},
            environment="sync_mpi", n_ranks=2, cluster="calibrated_test_fit",
        )
        result = SimulatedBackend().run(scenario)
        assert result.converged

    def test_drift_check_passes_fresh_fit(self, fitted):
        report = check_drift(fitted)
        assert report["ok"]
        assert report["score_drift"] == pytest.approx(0.0, abs=1e-12)
        assert_no_drift(fitted)  # does not raise

    def test_drift_check_fails_tampered_params(self, fitted):
        tampered = json.loads(json.dumps(fitted))
        tampered["params"]["speed"] *= 10.0
        report = check_drift(tampered)
        assert not report["ok"]
        with pytest.raises(CalibrationDriftError):
            assert_no_drift(tampered)

    def test_build_preset_requires_params(self, synthetic_reference):
        with pytest.raises(CalibrationError):
            build_preset("x", {"score": 1.0}, synthetic_reference)

    def test_shipped_preset_loads_and_checks(self):
        # The data file committed by `repro calibrate` registers at
        # import time and must still score as recorded.
        assert "calibrated_threaded_local" in list_clusters()
        network = get_cluster("calibrated_threaded_local", n_hosts=2)
        assert len(network.hosts) == 2
        from repro.calibrate.presets import DATA_DIR

        report = check_drift(DATA_DIR / "calibrated_threaded_local.json")
        assert report["ok"]
        assert report["max_makespan_error"] <= report["makespan_tolerance"]
