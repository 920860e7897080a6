"""Smoke tests of the benchmark itself (tier-1, no timing assertions).

A ``--quick`` run (one pass, one op, shrunken sizes) must emit exactly
the workload and metric names ``BENCHMARK.json`` declares, and the
declaration must stay inside the driver's limits.  No test looks at a
timing value: a busy host must not be able to fail tier-1.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")

DECLARED_WORKLOADS = [w["name"] for w in SPEC["workloads"]]
DECLARED_END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
DECLARED_PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


def run_benchmark(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(PERF_DIR / "run.py"), *args],
        capture_output=True, text=True, timeout=120, cwd=str(ROOT),
    )


@pytest.fixture(scope="module")
def quick_out(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("perf-quick")
    proc = run_benchmark("--quick", "--trace", "--seed", "7", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return out


def test_declaration_is_inside_the_drivers_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    names = (DECLARED_WORKLOADS + [m["name"] for m in SPEC["end_to_end"]]
             + [m["name"] for m in SPEC["per_layer"]])
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.match(name), name
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")


def test_quick_run_emits_exactly_the_declared_names(quick_out):
    results = json.loads((quick_out / "results.json").read_text(encoding="utf-8"))
    assert list(results["workloads"]) == DECLARED_WORKLOADS
    measured = set()
    for name, summary in results["workloads"].items():
        assert summary["correct"] and summary["failed"] == 0, (name, summary["errors"])
        assert set(summary["end_to_end"]) == DECLARED_END_TO_END, name
        assert set(summary["per_layer"]) <= DECLARED_PER_LAYER, name
        measured |= set(summary["per_layer"])
    # Every declared layer metric is carried by at least one workload.
    assert measured == DECLARED_PER_LAYER


def test_trace_json_links_children_to_their_operation(quick_out):
    events = json.loads((quick_out / "trace.json").read_text(encoding="utf-8"))["traceEvents"]
    roots = {e["args"]["id"] for e in events if e["args"]["parent"] is None}
    assert {root.split("/")[0] for root in roots} == set(DECLARED_WORKLOADS)
    children = [e for e in events if e["args"]["parent"] is not None]
    assert children and all(e["args"]["parent"] in roots for e in children)
    assert {e["name"] for e in children} >= {"problems.iterate", "problems.integrate"}


@pytest.mark.parametrize("trace, declared", [("0", DECLARED_END_TO_END),
                                             ("1", DECLARED_PER_LAYER)])
def test_contract_mode_prints_one_json_line(trace, declared):
    proc = run_benchmark("--workload", "sim_sync_sparse", "--seed", "3",
                         "--seconds", "1", "--trace", trace, "--quick")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == declared
    for value in line["metrics"].values():
        assert set(value) == {"value", "unit"}
