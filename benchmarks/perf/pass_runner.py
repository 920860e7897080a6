"""One (workload, pass): set up, one discarded warm-up op, timed ops.

Run as a fresh subprocess by ``run.py`` so that every pass pays the
same import, allocation and cache-cold costs and a slow phase of the
host hits at most one pass.  Prints ``@ready`` when set-up and the
warm-up operation are done (the parent times that as ``setup_s``) and
``@result <json>`` when the pass is over.

Modes: ``plain`` (timed ops, nothing attached) and ``traced`` (the same
ops with the outside-in spans of :mod:`spans` attached, then the
workload's replay probes and diagnostics for as long again).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Optional

import env
import hostref

MODES = ("plain", "traced")


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def run_pass(
    name: str,
    seed: int,
    seconds: float,
    mode: str,
    quick: bool,
    pass_index: int,
    ready: Optional[Callable[[], None]] = None,
    keep_events: bool = False,
) -> Dict[str, Any]:
    """Run one pass in this process; returns its JSON-safe record.

    ``keep_events`` adds the pass's Chrome trace events to the record
    (only worth the megabytes when a ``trace.json`` will be written).
    """
    from spans import Recorder
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, quick)
    recorder = Recorder(name, pass_index) if mode == "traced" else None
    out: Dict[str, Any] = {
        "workload": name, "mode": mode, "pass": pass_index,
        "ops": [], "facts": {}, "samples": {}, "layers": {}, "events": [],
        "closing": None, "counts": None, "counts_consistent": True,
        "refs": {kind: [] for kind in hostref.KINDS},
    }

    def read_refs(kinds=hostref.KINDS) -> Dict[str, float]:
        reading = {kind: hostref.measure(kind) for kind in kinds}
        for kind, value in reading.items():
            out["refs"][kind].append(value)
        return reading

    try:
        workload.setup()
        warm = workload.op()
        if not warm.ok:
            raise RuntimeError(f"{name}: warm-up operation failed: {warm.error}")
        if ready is not None:
            ready()
        workload.begin()
        op_facts: List[Dict[str, float]] = []
        before = read_refs()
        cpu = wall = 0.0
        deadline = time.perf_counter() + seconds
        while len(out["ops"]) < workload.min_ops or time.perf_counter() < deadline:
            spans = recorder.begin() if recorder is not None else None
            gc.collect()
            # Start every op from a flushed filesystem: left alone, the
            # kernel's write-back cycle (30 s here) doubles the system
            # time of a file-writing op on its own schedule.
            os.sync()
            cpu_started = time.process_time()
            op = workload.op(spans)
            cpu += time.process_time() - cpu_started
            wall += op.wall
            if spans is not None:
                spans.start, spans.end = op.start, op.start + op.wall
            slowdown = 1.0
            if workload.ref is not None:
                after = read_refs([workload.ref])
                slowdown = hostref.slowdown(
                    workload.ref, before[workload.ref], after[workload.ref])
                before = after
            out["ops"].append({"work": op.work, "wall": op.wall, "ok": op.ok,
                               "slowdown": slowdown, "error": op.error})
            if op.ok:
                op_facts.append(op.facts)
            for key, values in op.samples.items():
                out["samples"].setdefault(key, []).extend(values)
            if op.counts is not None:
                if out["counts"] is None:
                    out["counts"] = list(op.counts)
                elif list(op.counts) != out["counts"]:
                    out["counts_consistent"] = False
        read_refs()
        for key in {k for facts in op_facts for k in facts}:
            out["facts"][key] = statistics.median(
                facts[key] for facts in op_facts if key in facts)
        closing = workload.end()
        if closing is not None:
            out["closing"] = {"ok": closing.ok, "error": closing.error}
            out["facts"].update(closing.facts)
            for key, values in closing.samples.items():
                out["samples"].setdefault(key, []).extend(values)
        out["cpu_s"], out["wall_s"] = cpu, wall
        if mode == "traced":
            out["layers"] = workload.layers(seconds)
    finally:
        workload.teardown()
    if recorder is not None and keep_events:
        out["events"] = recorder.events()
    # Children (daemon, pool and rank processes) are reaped by now, so
    # their peak is in RUSAGE_CHILDREN: memory traded for speed shows.
    out["rss_mb"] = max(_rss_mb(resource.RUSAGE_SELF), _rss_mb(resource.RUSAGE_CHILDREN))
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=MODES, default="plain")
    parser.add_argument("--pass-index", type=int, default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--events", action="store_true")
    args = parser.parse_args(argv)
    env.require_repro()
    result = run_pass(
        args.workload, args.seed, args.seconds, args.mode, args.quick,
        args.pass_index, ready=lambda: print("@ready", flush=True),
        keep_events=args.events,
    )
    print("@result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
