"""Calibration: measure, objective, staged search, presets, drift.

Most tests are sim-to-sim: the "measured" reference is produced by the
*simulator* under known ground-truth parameters, so the fit has an
exactly representable optimum and every score is deterministic.  One
smoke test measures the real threaded backend (tiny sizes -- it checks
the reference structure, not fit quality, which needs the full-size
compute-dominated battery).
"""

import hashlib
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
    coordinate_descent,
    default_battery,
    fit,
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


def test_dir_lists_the_lazily_loaded_names():
    import repro.calibrate as calibrate

    names = dir(calibrate)
    assert {"fit", "measure_battery", "CalibrationObjective"} <= set(names)
    assert names == sorted(names)


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

    def test_fit_recovers_synthetic_reference(self, synthetic_reference):
        result = fit(synthetic_reference, seed=0, rounds=4)
        assert result.score < result.baseline_score
        assert result.max_makespan_error < 0.05
        assert result.evaluations > 0
        assert [s["stage"] for s in result.stages][:2] == [
            "validate", "warm_start",
        ]
        payload = result.to_dict()
        assert payload["params"] == result.params
        json.dumps(payload)  # JSON-safe

    def test_fit_result_is_pinned(self, synthetic_reference):
        # The whole fit outcome on the synthetic reference, as one
        # digest: a change to any search stage that moves a parameter,
        # a score, the evaluation count or the stage list shows here.
        result = fit(synthetic_reference, seed=0, rounds=4)
        pinned = {
            "params": result.params,
            "score": result.score,
            "max_makespan_error": result.max_makespan_error,
            "evaluations": result.evaluations,
            "stages": [[s["stage"], s["score"]] for s in result.stages],
        }
        digest = hashlib.sha1(
            json.dumps(pinned, sort_keys=True).encode()
        ).hexdigest()
        assert digest == "c2f4261afceda320b43cb004a82b64d88e73db41", pinned

    def test_fit_is_seeded_deterministic(self, synthetic_reference):
        kwargs = dict(seed=11, rounds=2)
        a = fit(synthetic_reference, **kwargs)
        b = fit(synthetic_reference, **kwargs)
        assert a.params == b.params
        assert a.score == b.score

# ---------------------------------------------------------------------------
# presets + drift
# ---------------------------------------------------------------------------

class TestPresets:
    @pytest.fixture(scope="class")
    def fitted(self, synthetic_reference):
        result = fit(synthetic_reference, seed=0, rounds=3)
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
