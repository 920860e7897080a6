#!/usr/bin/env python3
"""The repo's benchmark: end-to-end and per-layer numbers, one command.

Two ways in, one measurement underneath:

* the driver's contract (``BENCHMARK.json``)::

      python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1

  one workload, last line of stdout one JSON object with ``correct``,
  ``attempted``, ``failed`` and ``metrics`` (every end-to-end metric
  with ``--trace 0``, every per-layer metric with ``--trace 1``);

* the human form::

      python3 benchmarks/perf/run.py [--seed 42] [--trace] [--quick]
                                     [--workloads a,b] [--out DIR] [--selfcheck]

  every workload, a table per workload, non-zero exit if any operation
  failed.  ``--out DIR`` writes ``results.json`` (and ``trace.json``
  with ``--trace``); ``compare.py`` reads those.

A run is five *passes* per workload, each a fresh subprocess
(:mod:`pass_runner`): set-up, one discarded warm-up op, timed ops.  A
metric is the median of the samples pooled over the passes.  With
``--trace`` the budget is split in thirds instead: plain ops, the same
ops with the outside-in spans attached, and the layer probes.  See
``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

import env
import hostref

#: Five set-ups per run: the first threaded operation of a fresh process
#: takes 0.4-1.7 s on identical inputs (first touch of ~170 MB on a VM),
#: and ``setup_s`` is the median over the passes.
PASSES = 5
#: Set-up is interpreter start, imports and input generation.
SETUP_REF = "py"


# ----------------------------------------------------------------------
# running passes
# ----------------------------------------------------------------------
def spawn_pass(
    name: str, seed: int, seconds: float, mode: str, index: int, events: bool
) -> Dict[str, Any]:
    """One pass in a fresh subprocess; ``setup_s`` is timed from here.

    The child leads its own process group so that whatever happens --
    timeout, crash, interrupt -- the daemon and pool workers it started
    are killed with it and no ``repro serve`` is left behind.
    """
    command = [
        sys.executable, str(env.PERF_DIR / "pass_runner.py"),
        "--workload", name, "--seed", str(seed), "--seconds", f"{seconds:.3f}",
        "--mode", mode, "--pass-index", str(index),
    ] + (["--events"] if events else [])
    started = time.perf_counter()
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, env=env.child_env(),
        start_new_session=True,
    )

    def kill_group() -> None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    # A traced threads pass is ~12 s, ~25 s in a slow phase of the host,
    # and up to 30 s more when its process diagnostic waits out its
    # timeout; a whole run stays well inside the contract's 180 s.
    watchdog = threading.Timer(60.0 + 10.0 * seconds, kill_group)
    watchdog.start()
    setup_s = None
    result = None
    try:
        for line in proc.stdout:
            if line.startswith("@ready"):
                setup_s = time.perf_counter() - started
            elif line.startswith("@result "):
                result = json.loads(line[len("@result "):])
        code = proc.wait()
    finally:
        watchdog.cancel()
        kill_group()
        proc.wait()
    if code != 0 or result is None or setup_s is None:
        raise RuntimeError(f"{name}: pass {index} ({mode}) exited with code {code}")
    result["raw_setup_s"] = setup_s
    return result


def inline_pass(name: str, seed: int, seconds: float, mode: str, index: int,
                events: bool) -> Dict[str, Any]:
    """``--quick``: the same pass in this process (one import for all)."""
    import pass_runner

    started = time.perf_counter()
    ready: List[float] = []
    result = pass_runner.run_pass(
        name, seed, seconds, mode, True, index,
        ready=lambda: ready.append(time.perf_counter() - started),
        keep_events=events,
    )
    result["raw_setup_s"] = ready[0]
    return result


def run_set(
    names: Sequence[str], seed: int, seconds: float, trace: bool, quick: bool,
    events: bool = False,
) -> Dict[str, List[Dict[str, Any]]]:
    """All passes of one set, pass-major: the workload list is walked
    once per pass, so a slow minute of the host lands on one pass of
    several workloads rather than on every pass of one."""
    if quick:
        # One pass; with --trace the traced pass stands in for the plain one.
        modes, per_pass, runner = ["traced" if trace else "plain"], 0.0, inline_pass
    elif trace:
        # Same total budget, in thirds: plain ops, traced ops, layer probes.
        modes, per_pass, runner = ["plain", "traced"], seconds / 3, spawn_pass
    else:
        modes, per_pass, runner = ["plain"] * PASSES, seconds / PASSES, spawn_pass
    passes: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    for index, mode in enumerate(modes):
        for name in names:
            result = runner(name, seed, per_pass, mode, index, events)
            # Set-up at nominal host speed (hostref): scaled by the pass's
            # own reference readings, which start right after its ready
            # mark.  A reading taken here, before the spawn, would be a
            # cold one: this process has been asleep.
            result["setup_s"] = result["raw_setup_s"] * hostref.NOMINAL_MS[SETUP_REF] / (
                statistics.median(result["refs"][SETUP_REF]))
            passes[name].append(result)
    return passes


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
def _rates(passes: List[Dict[str, Any]], normalised: bool = True) -> List[float]:
    return [
        op["work"] * (op["slowdown"] if normalised else 1.0) / op["wall"]
        for p in passes for op in p["ops"] if op["ok"]
    ]


def aggregate(name: str, passes: List[Dict[str, Any]], spec: Dict[str, Any]) -> Dict[str, Any]:
    """Pool one workload's passes into named metrics.

    A metric that does not apply to the workload is absent from
    ``per_layer`` (the contract's JSON line prints it as 0).
    """
    from workloads import SAMPLE_METRICS

    traced = [p for p in passes if p["mode"] == "traced"]
    plain = [p for p in passes if p["mode"] == "plain"] or traced  # --quick --trace
    # A workload's untimed closing phase (serve: the cached hits) counts
    # as one more operation that can fail; it feeds no rate.
    ops = [op for p in passes for op in p["ops"]]
    ops += [p["closing"] for p in passes if p["closing"] is not None]
    failed = sum(1 for op in ops if not op["ok"])
    errors = [op["error"] for op in ops if not op["ok"]]

    # Exact-count guard: identical across every op and pass, or the
    # program's behaviour changed -- a hard error, not timing noise.
    counted = [p["counts"] for p in passes if p["counts"] is not None]
    counts_ok = all(p["counts_consistent"] for p in passes) and all(
        c == counted[0] for c in counted)
    if not counts_ok:
        errors.append(f"exact counts differ between ops or passes: {counted}")

    rates = _rates(plain)
    end_to_end = {
        "work_per_s": statistics.median(rates) if rates else 0.0,
        "setup_s": statistics.median(p["setup_s"] for p in plain),
        "peak_rss_mb": max(p["rss_mb"] for p in plain),
    }
    samples_n = {"work_per_s": len(rates), "setup_s": len(plain), "peak_rss_mb": len(plain)}

    per_layer: Dict[str, float] = {}
    for p in traced:
        per_layer.update(p["facts"])
    for p in passes:
        per_layer.update(p["layers"])
    pooled: Dict[str, List[float]] = {}
    for p in passes:
        for key, values in p["samples"].items():
            pooled.setdefault(key, []).extend(values)
    for metric, (key, q) in SAMPLE_METRICS.items():
        if key in pooled:
            per_layer[metric] = float(np.percentile(pooled[key], q))
            samples_n[metric] = len(pooled[key])
    walls = [op["wall"] for p in plain for op in p["ops"] if op["ok"]]
    raw = _rates(plain, normalised=False)
    if walls:
        per_layer["op.wall_s_p50"] = float(np.percentile(walls, 50))
        per_layer["op.wall_s_p90"] = float(np.percentile(walls, 90))
        per_layer["host.raw_work_per_s"] = statistics.median(raw)
        per_layer["host.raw_setup_s"] = statistics.median(p["raw_setup_s"] for p in plain)
        per_layer["host.cpu_over_wall"] = (
            sum(p["cpu_s"] for p in plain) / sum(p["wall_s"] for p in plain))
    traced_rates = _rates(traced)
    if rates and traced_rates:
        per_layer["trace.overhead_ratio"] = (
            statistics.median(rates) / statistics.median(traced_rates))
    refs = {kind: [v for p in passes for v in p["refs"][kind]] for kind in hostref.KINDS}
    for kind, values in refs.items():
        if values:
            per_layer[f"host.ref_{kind}_ms_p50"] = statistics.median(values)
    unknown = sorted(set(per_layer) - {m["name"] for m in spec["per_layer"]})
    if unknown:
        raise RuntimeError(f"{name}: metrics not declared in BENCHMARK.json: {unknown}")
    return {
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "samples_n": samples_n,
        "attempted": len(ops),
        "failed": failed + (0 if counts_ok else 1),
        "correct": failed == 0 and counts_ok and bool(ops),
        "errors": errors[:5],
        "counts": counted[0] if counted else None,
        "events": [e for p in traced for e in p["events"]],
    }


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def contract_line(summary: Dict[str, Any], trace: bool, spec: Dict[str, Any]) -> str:
    """The driver's JSON line: every declared metric of the mode."""
    if trace:
        metrics = {
            m["name"]: {"value": float(summary["per_layer"].get(m["name"], 0.0)),
                        "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    else:
        metrics = {
            m["name"]: {"value": float(summary["end_to_end"][m["name"]]), "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    return json.dumps({
        "correct": summary["correct"], "attempted": max(1, summary["attempted"]),
        "failed": summary["failed"], "metrics": metrics,
    })


def print_summary(name: str, summary: Dict[str, Any], work_unit: str,
                  spec: Dict[str, Any]) -> None:
    state = "ok" if summary["correct"] else "FAILED"
    print(f"\n== {name}: {summary['attempted']} ops, {summary['failed']} failed [{state}]")
    print(f"   work = {work_unit}")
    for error in summary["errors"]:
        print(f"   ! {error.strip().splitlines()[-1]}")
    for m in spec["end_to_end"]:
        n = summary["samples_n"].get(m["name"], 0)
        print(f"   {m['name']:<36} {summary['end_to_end'][m['name']]:>14.6g} {m['unit']:<8}"
              f" (n={n}, {m['better']} is better, bound {m['bound']:.0%})")
    if summary["counts"] is not None:
        print(f"   exact counts (identical every op and pass): {summary['counts']}")
    for m in spec["per_layer"]:
        if m["name"] in summary["per_layer"]:
            n = summary["samples_n"].get(m["name"])
            tail = f" (n={n})" if n else ""
            print(f"   {m['name']:<36} {summary['per_layer'][m['name']]:>14.6g} {m['unit']}{tail}")


def results_payload(args: argparse.Namespace, summaries: Dict[str, Dict[str, Any]]) -> Dict:
    return {
        "seed": args.seed, "seconds": args.seconds, "quick": args.quick,
        "trace": bool(args.trace),
        "workloads": {
            name: {k: v for k, v in summary.items() if k != "events"}
            for name, summary in summaries.items()
        },
    }


def write_out(out_dir: str, payload: Dict, summaries: Dict[str, Dict[str, Any]],
              trace: bool) -> None:
    from spans import write_chrome_trace

    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    with (directory / "results.json").open("w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
    if trace:
        write_chrome_trace(
            str(directory / "trace.json"),
            [event for summary in summaries.values() for event in summary["events"]],
        )


# ----------------------------------------------------------------------
# modes
# ----------------------------------------------------------------------
def measure(args: argparse.Namespace, names: Sequence[str],
            spec: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    passes = run_set(names, args.seed, args.seconds, bool(args.trace), args.quick,
                     events=bool(args.out and args.trace))
    return {name: aggregate(name, passes[name], spec) for name in names}


def selfcheck(args: argparse.Namespace, names: Sequence[str], spec: Dict[str, Any]) -> int:
    """Phase 0: two sets on the same tree must agree within the bounds."""
    sets = [measure(args, names, spec) for _ in range(2)]
    print("\nnoise floor: two back-to-back sets of the same tree")
    print(f"{'workload':<24} {'metric':<13} {'set 1':>12} {'set 2':>12} {'delta':>8} {'bound':>6}")
    worst = 0
    for name in names:
        for metric, bound in ((m["name"], m["bound"]) for m in spec["end_to_end"]):
            first = sets[0][name]["end_to_end"][metric]
            second = sets[1][name]["end_to_end"][metric]
            delta = abs(second / first - 1.0) if first else float("inf")
            verdict = "" if delta <= bound else "  <-- outside the bound"
            worst += delta > bound
            print(f"{name:<24} {metric:<13} {first:>12.5g} {second:>12.5g} "
                  f"{delta:>7.1%} {bound:>6.0%}{verdict}")
    for index, summaries in enumerate(sets, 1):
        refs = [s["per_layer"].get("host.ref_py_ms_p50") for s in summaries.values()]
        refs = [r for r in refs if r]
        print(f"set {index}: host.ref_py_ms_p50 = {statistics.median(refs):.3f} ms")
    failed = sum(s["failed"] for summaries in sets for s in summaries.values())
    if worst or failed:
        print(f"selfcheck FAILED: {worst} metric(s) outside their bound, {failed} failed op(s)")
        return 1
    print("selfcheck passed: every end-to-end metric agrees within its bound")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    env.require_repro()
    spec = env.load_spec()
    parser = argparse.ArgumentParser(
        description="End-to-end and per-layer benchmark (see benchmarks/perf/README.md)")
    parser.add_argument("--workload", help="contract mode: one workload, JSON last line")
    parser.add_argument("--workloads", help="comma-separated subset (human mode)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="measuring time per workload, shared by its passes")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        help="add the traced + layers passes (per-layer metrics)")
    parser.add_argument("--quick", action="store_true",
                        help="one pass, one op, shrunken sizes, in-process (smoke test)")
    parser.add_argument("--out", metavar="DIR", help="write results.json (+ trace.json)")
    parser.add_argument("--selfcheck", action="store_true",
                        help="two full sets back to back; assert they agree within bounds")
    args = parser.parse_args(argv)

    from workloads import WORKLOADS

    declared = [w["name"] for w in spec["workloads"]]
    if args.workload:
        names = [args.workload]
    elif args.workloads:
        names = args.workloads.split(",")
    else:
        names = declared
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; known: {sorted(WORKLOADS)}")

    try:
        if args.selfcheck:
            return selfcheck(args, names, spec)
        summaries = measure(args, names, spec)
    finally:
        shutil.rmtree(env.TMP_ROOT, ignore_errors=True)

    payload = results_payload(args, summaries)
    if args.out:
        write_out(args.out, payload, summaries, bool(args.trace))
    if args.workload:
        # Failures are reported in the line itself, not the exit code.
        print(contract_line(summaries[args.workload], bool(args.trace), spec))
        return 0
    for name in names:
        print_summary(name, summaries[name], WORKLOADS[name].work_unit, spec)
    failed = sum(s["failed"] for s in summaries.values())
    incorrect = [name for name, s in summaries.items() if not s["correct"]]
    if failed or incorrect:
        print(f"\nFAILED: {failed} failed operation(s) in {incorrect}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
