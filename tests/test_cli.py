"""The ``repro`` verbs, entered in-process through ``main([...])``."""

import json
import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

import repro.sweep
from repro.api import Scenario
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
TRACE_SCENARIO = REPO_ROOT / "examples" / "trace_scenario.json"
SHIPPED_PRESET = (REPO_ROOT / "src" / "repro" / "calibrate" / "data"
                  / "calibrated_threaded_local.json")
UNWRITABLE = "no-such-dir/out.json"


@pytest.fixture
def grid(tmp_path):
    """A two-scenario file that runs in milliseconds on the simulator."""
    path = tmp_path / "grid.json"
    path.write_text(json.dumps([
        Scenario(problem="sparse_linear", problem_params={"n": 60},
                 environment=env, n_ranks=2).to_dict()
        for env in ("pm2", "sync_mpi")
    ]))
    return path


@pytest.mark.parametrize("verb", ["sweep", "run"])
def test_sweep_stdout_is_the_records_json(verb, grid, capsys):
    assert main([verb, str(grid)]) == 0
    captured = capsys.readouterr()
    records = json.loads(captured.out)
    assert [r["index"] for r in records] == [0, 1]
    assert all(r["converged"] for r in records)
    assert "sweep counters:" in captured.err


def test_sweep_processes_without_placement_selects_pool(grid, monkeypatch):
    seen = {}

    def fake_run_sweep(data, **kwargs):
        seen.update(kwargs)
        raise ValueError("stop here")

    monkeypatch.setattr(repro.sweep, "run_sweep", fake_run_sweep)
    assert main(["sweep", str(grid), "--processes", "2"]) == 2
    assert seen["placement"] == "pool" and seen["processes"] == 2
    assert main(["sweep", str(grid)]) == 2
    assert seen["placement"] == "local"
    assert main(["sweep", str(grid), "--processes", "2",
                 "--placement", "local"]) == 2
    assert seen["placement"] == "local"


def test_sweep_resume_replays_every_unit(grid, tmp_path, capsys):
    state = tmp_path / "state"
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert main(["sweep", str(grid), "--state-dir", str(state),
                 "--report", str(first)]) == 0
    assert main(["sweep", str(grid), "--state-dir", str(state), "--resume",
                 "--report", str(second)]) == 0
    assert json.loads(first.read_text())["counters"]["executed"] == 2
    counters = json.loads(second.read_text())["counters"]
    assert counters["resumed"] == counters["distinct"] == 2
    assert counters["executed"] == 0
    assert f"wrote sweep report to {second}" in capsys.readouterr().err


def test_sweep_conformance_grid(capsys):
    assert main(["sweep", "--conformance", "2"]) == 0
    records = json.loads(capsys.readouterr().out)
    assert len(records) == 2 and not any("error" in r for r in records)


def test_trace_then_report_round_trip(tmp_path, capsys):
    out = tmp_path / "trace.json"
    assert main(["trace", str(TRACE_SCENARIO), "--out", str(out)]) == 0
    assert f"wrote chrome trace to {out}" in capsys.readouterr().out
    assert main(["report", str(out), "--width", "40"]) == 0
    report = capsys.readouterr().out
    assert "backend: simulated" in report and "util" in report


def test_conformance_simulated_only(tmp_path, capsys):
    report = tmp_path / "conformance.json"
    assert main(["conformance", "--n", "2", "--simulated-only",
                 "--report", str(report)]) == 0
    assert "all invariants green" in capsys.readouterr().out
    assert json.loads(report.read_text())["passed"] is True


def test_calibrate_check_shipped_preset(tmp_path, capsys):
    report = tmp_path / "drift.json"
    assert main(["calibrate", "check", str(SHIPPED_PRESET),
                 "--report", str(report)]) == 0
    assert "preset within tolerance" in capsys.readouterr().out
    assert json.loads(report.read_text())["ok"] is True


@pytest.fixture
def closed_port():
    """A localhost port nothing listens on."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@pytest.mark.parametrize("argv, message", [
    (["sweep", "{grid}", "--resume"], "--resume requires --state-dir"),
    (["trace", "{trace}", "--index", "5"], "--index 5 out of range"),
    (["sweep", "{grid}", "--placement", "serve", "--port", "{port}"],
     "(daemon 127.0.0.1:{port})"),
], ids=["resume-without-state-dir", "index-out-of-range", "no-daemon"])
def test_bad_input_exits_2(argv, message, grid, closed_port, capsys):
    fields = dict(grid=grid, trace=TRACE_SCENARIO, port=closed_port)
    argv = [a.format(**fields) for a in argv]
    message = message.format(**fields)
    assert main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.fixture(scope="module")
def calibration(tmp_path_factory):
    """A one-entry simulated reference and the preset fitted to it."""
    from repro.calibrate import default_battery, measure_battery, write_reference

    root = tmp_path_factory.mktemp("calibration")
    battery = [
        s.derive(cluster="calibrated",
                 cluster_params={"speed": 3.0e7, "latency": 2.0e-4,
                                 "bandwidth": 5.0e6})
        for s in default_battery(sizes=(48,), n_ranks=2)
    ]
    reference = write_reference(
        root / "reference.json",
        measure_battery(battery, backend="simulated", repeats=1),
    )
    preset = root / "preset.json"
    assert main(["calibrate", "fit", str(reference), "--rounds", "1",
                 "--out", str(preset)]) == 0
    return {"reference": reference, "preset": preset}


@pytest.mark.parametrize("argv", [
    ["sweep", "{grid}", "--output", UNWRITABLE],
    ["sweep", "{grid}", "--report", UNWRITABLE],
    ["trace", "{trace}", "--out", UNWRITABLE],
    ["conformance", "--n", "1", "--simulated-only", "--report", UNWRITABLE],
    ["calibrate", "fit", "{reference}", "--rounds", "1",
     "--out", "preset.json", "--report", UNWRITABLE],
    ["calibrate", "check", "{preset}", "--report", UNWRITABLE],
], ids=["sweep-output", "sweep-report", "trace-out", "conformance-report",
        "calibrate-fit-report", "calibrate-check-report"])
def test_unwritable_output_path_exits_2(argv, grid, calibration, tmp_path,
                                        monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = [a.format(grid=grid, trace=TRACE_SCENARIO, **calibration)
            for a in argv]
    assert main(argv) == 2
    assert f"error: cannot write {UNWRITABLE}:" in capsys.readouterr().err


def test_serve_on_a_taken_port_exits_2_naming_the_error(capsys):
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        assert main(["serve", "--port", str(taken.getsockname()[1])]) == 2
    assert "Address already in use" in capsys.readouterr().err


def test_closed_stdout_exits_without_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "list"],
            env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr
    assert "BrokenPipeError" not in proc.stderr
    assert proc.returncode == 1
