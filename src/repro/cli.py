"""Console entry point: run scenarios from the shell.

Installed as the ``repro`` command (see ``setup.py``); also runnable as
``python -m repro.cli``.  Subcommands:

``repro list``
    Print every registered problem, environment, cluster, worker,
    backend and balancer name -- the vocabulary of scenario JSON files.

``repro sweep (scenarios.json | --conformance N) [--placement
local|pool|serve] [--processes N] [--state-dir DIR] [--resume]
[--retries K] [--timeout T] [--output PATH] [--report PATH]``
    Run the scenario(s) in a JSON file through :func:`repro.sweep.run_sweep`
    and print (or write) one record per scenario; ``repro run`` is an
    alias.  The file holds one scenario dict or a list of them, in
    :meth:`repro.api.Scenario.to_dict` form -- minimally just
    ``{"problem": "sparse_linear"}`` (see ``docs/scenarios.md``).
    Without ``--placement`` the grid runs in a process pool when
    ``--processes`` > 1, else in-process; ``--placement serve`` submits
    it to a running ``repro serve`` daemon.  With ``--state-dir`` every
    settled unit is journaled + cached so a killed sweep resumes with
    ``--resume``.  ``--conformance N`` sweeps the seeded conformance
    grid instead of a file.  Stdout carries only the records; progress
    and counters go to stderr.  See ``docs/sweeping.md``.

``repro conformance [--n N] [--seed S] [--filter SUBSTR]
[--report PATH] [--timeout T] [--simulated-only] [--skip-process]``
    Generate N seeded random scenarios (fault plans included) and
    sweep them through the three-way simulated/threaded/process parity
    battery with the invariant checkers of :mod:`repro.testing`;
    ``--report`` writes the JSON conformance report.  Hung
    threaded/process runs are reaped after ``--timeout`` seconds and
    reported as per-scenario failures.  See ``docs/testing.md``.

``repro serve [--host H] [--port P] [--backend NAME] [--workers N]
[--job-timeout T] [--max-attempts K] [--state-dir DIR]``
    Run the scenario submission service (:mod:`repro.serve`): a
    scheduler daemon accepting priority-queued submissions over a
    newline-delimited-JSON socket, dispatching to a pool of backend
    worker processes, caching results by scenario content-hash and
    journaling the queue for resume-after-kill.  Blocks until
    SIGTERM/SIGINT or a client ``shutdown``.  See ``docs/serving.md``.

``repro trace scenario.json [--backend NAME] [--out trace.json]
[--index I] [--no-markers]``
    Run one scenario with tracing on and write its per-rank
    compute/idle/comm timeline as Chrome trace-event JSON, which
    Perfetto (https://ui.perfetto.dev) loads directly.  Works on every
    backend (virtual clock on ``simulated``, wall clock on
    ``threaded``/``process``).  See ``docs/observability.md``.

``repro report trace.json [--width N]``
    Render a trace file written by ``repro trace`` as the ASCII
    report: per-rank utilization table, Gantt chart, iteration-marker
    counts.

``repro calibrate (measure | fit | check) ...``
    Fit the simulator to this machine (:mod:`repro.calibrate`):
    ``measure`` runs a calibration battery on a wall-clock backend and
    writes the environment-fingerprinted reference JSON; ``fit`` runs
    the staged search (validate, warm start, coordinate descent)
    against a reference and emits a fitted cluster preset; ``check``
    re-scores a preset against its embedded reference and fails on
    drift.  See ``docs/calibration.md``.

Exit status: 0 on success, 1 on scenario/conformance failures or a
reader that closed stdout early, 2 on bad input (an unwritable output
path included).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.api.registry import (
    list_backends,
    list_balancers,
    list_clusters,
    list_environments,
    list_problems,
    list_workers,
)


def _cmd_list(_: argparse.Namespace) -> int:
    for title, names in [
        ("problems", list_problems()),
        ("environments", list_environments()),
        ("clusters", list_clusters()),
        ("workers", list_workers()),
        ("backends", list_backends()),
        ("balancers", list_balancers()),
    ]:
        print(f"{title}: {', '.join(names)}")
    return 0


def _load_scenario_list(path: str):
    """Read a scenario JSON file into a list of dicts, or ``None``
    (with the error already printed) when the file is unusable."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return None
    except json.JSONDecodeError as exc:
        print(f"error: {path} is not valid JSON: {exc}", file=sys.stderr)
        return None
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list) or not all(isinstance(s, dict) for s in data):
        print("error: scenario file must hold a dict or a list of dicts",
              file=sys.stderr)
        return None
    return data


def _write_text(path: str, text: str, what: str) -> bool:
    """Write ``text`` and a newline to ``path``, noting it on stderr;
    ``False`` (with the error printed) when the path is unwritable."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return False
    print(f"wrote {what} to {path}", file=sys.stderr)
    return True


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.sweep import SweepStateError, run_sweep

    if (args.scenarios is None) == (args.conformance is None):
        print("error: give a scenario file or --conformance N (not both)",
              file=sys.stderr)
        return 2
    if args.retries < 0:
        print(f"error: --retries must be >= 0, got {args.retries}", file=sys.stderr)
        return 2
    if args.resume and not args.state_dir:
        print("error: --resume requires --state-dir", file=sys.stderr)
        return 2
    if args.conformance is not None:
        if args.conformance < 1:
            print(f"error: --conformance must be >= 1, got {args.conformance}",
                  file=sys.stderr)
            return 2
        from repro.testing import generate_scenarios

        data = [s.to_dict() for s in generate_scenarios(args.conformance, args.seed)]
    else:
        data = _load_scenario_list(args.scenarios)
        if data is None:
            return 2

    def progress(event) -> None:
        print(
            f"[{event['completed']}/{event['distinct']}] "
            f"{event['kind']:<6} ({event['source']}) {event['key'][:20]}",
            file=sys.stderr,
            flush=True,
        )

    placement = args.placement or ("pool" if args.processes > 1 else "local")
    try:
        outcome = run_sweep(
            data,
            backend=args.backend,
            placement=placement,
            processes=args.processes,
            state_dir=args.state_dir,
            resume=args.resume,
            retries=args.retries,
            timeout=args.timeout,
            include_solution=args.include_solution,
            host=args.host,
            port=args.port,
            priority=args.priority,
            progress=progress,
        )
    except SweepStateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        where = f" (daemon {args.host}:{args.port})" if placement == "serve" else ""
        print(f"error: {exc}{where}", file=sys.stderr)
        return 2
    except (KeyError, ValueError) as exc:
        # Unknown backend/placement name or an invalid option combo;
        # the messages already name the offender and the alternatives.
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    payload = json.dumps(outcome.records, indent=2, default=str)
    if not args.output:
        print(payload)
    elif not _write_text(args.output, payload,
                         f"{len(outcome.records)} record(s)"):
        return 2
    report = {
        "counters": outcome.counters,
        "fingerprint": outcome.fingerprint,
        "journal": None if outcome.journal_path is None
        else str(outcome.journal_path),
        "records": len(outcome.records),
        "errors": len(outcome.errors),
    }
    if args.report and not _write_text(
        args.report, json.dumps(report, indent=2, sort_keys=True), "sweep report"
    ):
        return 2
    print(f"sweep counters: {json.dumps(outcome.counters)}", file=sys.stderr)
    failures = outcome.errors
    for record in failures:
        print(f"error in scenario {record['index']}: {record['error']}",
              file=sys.stderr)
    return 1 if failures else 0


def _cmd_conformance(args: argparse.Namespace) -> int:
    from repro.testing import run_conformance

    if args.n < 1:
        print(f"error: --n must be >= 1, got {args.n}", file=sys.stderr)
        return 2
    if args.timeout <= 0:
        print(f"error: --timeout must be > 0, got {args.timeout}", file=sys.stderr)
        return 2

    def backend_mark(record, name: str) -> str:
        if name in record.get("timed_out", ()):
            return "HUNG"
        summary = record[name]
        if summary is None:
            return "-"
        return "conv" if summary["converged"] else "cap"

    def progress(record) -> None:
        sim = record["simulated"] or {}
        marker = "ok" if record["ok"] else "FAIL"
        faults = sim.get("faults") or {}
        fault_note = (
            "  faults=" + ",".join(f"{k}:{v}" for k, v in sorted(faults.items()))
            if faults else ""
        )
        print(
            f"{record['name']:<52} {marker:>4}  sim {sim.get('makespan', 0):9.4f}s"
            f"  threaded {backend_mark(record, 'threaded'):>4}"
            f"  process {backend_mark(record, 'process'):>4}{fault_note}"
        )

    report = run_conformance(
        n=args.n,
        seed=args.seed,
        filter=args.filter,
        threaded=not args.simulated_only,
        threaded_timeout=args.timeout,
        process=not (args.simulated_only or args.skip_process),
        progress=progress,
    )
    if args.report and not _write_text(
        args.report, json.dumps(report, indent=2, sort_keys=True),
        "conformance report",
    ):
        return 2
    summary = report["summary"]
    print(
        f"{summary['scenarios']} scenario(s), {summary['faulty_scenarios']} with "
        f"fault plans ({summary['recovered_scenarios']} observed recoveries), "
        f"deterministic={summary['deterministic']}, "
        f"mega_parity={summary['mega_parity']}, "
        f"{summary['elapsed_s']:.1f}s"
    )
    if not report["passed"]:
        for failure in report["failures"]:
            for violation in failure["violations"]:
                print(f"error: {failure['name']}: {violation}", file=sys.stderr)
        return 1
    print("conformance: all invariants green")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from repro.serve import ServeDaemon

    if args.workers < 1:
        print(f"error: --workers must be >= 1, got {args.workers}", file=sys.stderr)
        return 2
    if args.job_timeout <= 0:
        print(f"error: --job-timeout must be > 0, got {args.job_timeout}",
              file=sys.stderr)
        return 2
    if args.max_attempts < 1:
        print(f"error: --max-attempts must be >= 1, got {args.max_attempts}",
              file=sys.stderr)
        return 2
    try:
        daemon = ServeDaemon(
            host=args.host,
            port=args.port,
            backend=args.backend,
            workers=args.workers,
            job_timeout=args.job_timeout,
            max_attempts=args.max_attempts,
            state_dir=args.state_dir,
        )
    except (KeyError, OSError) as exc:
        # Unknown backend name (its message without KeyError's quotes),
        # or the port is taken.
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    replayed = daemon.scheduler.counters["replayed"]
    print(
        f"repro serve: listening on {daemon.host}:{daemon.port} "
        f"(backend={args.backend}, workers={args.workers}, "
        f"job-timeout={args.job_timeout}s"
        + (f", state-dir={args.state_dir}" if args.state_dir else "")
        + (f", {replayed} job(s) requeued from journal" if replayed else "")
        + ")",
        flush=True,
    )

    def _stop(signum, frame) -> None:  # noqa: ARG001 - signal signature
        # stop() blocks until serve_forever's loop exits, and this
        # handler interrupts the very thread running that loop -- so
        # stop from a helper thread and let the handler return.
        import threading

        threading.Thread(target=daemon.stop, daemon=True).start()

    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)
    daemon.serve_forever()
    stats = daemon.scheduler.stats()
    stats.pop("ok", None)
    print(f"repro serve: stopped; final stats: {json.dumps(stats)}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from dataclasses import replace as dc_replace

    from repro.api import Scenario, run_scenario
    from repro.obs import write_trace

    data = _load_scenario_list(args.scenarios)
    if data is None:
        return 2
    if not 0 <= args.index < len(data):
        print(f"error: --index {args.index} out of range "
              f"(file holds {len(data)} scenario(s))", file=sys.stderr)
        return 2
    try:
        scenario = Scenario.from_dict(data[args.index])
        if not args.no_markers:
            # Iteration markers come from the workers' Trace effects;
            # force them on so the timeline carries per-iteration
            # residuals (workers that emit none, e.g. SISC, still
            # produce a span-only timeline).
            scenario = dc_replace(
                scenario,
                options=dc_replace(
                    scenario.resolved_options(), trace_iterations=True
                ),
            )
        result = run_scenario(scenario, backend=args.backend, timeline=True)
    except (KeyError, ValueError, TypeError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    timeline = result.timeline
    try:
        path = write_trace(timeline, args.out)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 2
    print(
        f"wrote chrome trace to {path} "
        f"(backend={timeline.backend}, clock={timeline.clock}, "
        f"{len(timeline.spans)} span(s), {len(timeline.markers)} marker(s), "
        f"makespan {timeline.makespan():.4f}s)"
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs import load_trace, render_report

    try:
        timeline = load_trace(args.trace)
    except OSError as exc:
        print(f"error: cannot read {args.trace}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {args.trace} is not a readable trace: {exc}",
              file=sys.stderr)
        return 2
    print(render_report(timeline, width=args.width))
    return 0


def _cmd_calibrate_measure(args: argparse.Namespace) -> int:
    from repro.calibrate import (
        BATTERIES,
        CalibrationError,
        measure_battery,
        write_reference,
    )

    if args.repeats < 1:
        print(f"error: --repeats must be >= 1, got {args.repeats}",
              file=sys.stderr)
        return 2
    if args.battery not in BATTERIES:
        print(f"error: unknown battery {args.battery!r}; "
              f"known: {', '.join(sorted(BATTERIES))}", file=sys.stderr)
        return 2

    def progress(entry) -> None:
        print(
            f"{entry['scenario']['name']:<28} "
            f"makespan {entry['makespan_s']:8.3f}s  "
            f"iters {entry['iterations']:>4}  "
            f"share {['%.3f' % s for s in entry['compute_share']]}",
            file=sys.stderr,
            flush=True,
        )

    try:
        reference = measure_battery(
            args.battery,
            backend=args.backend,
            repeats=args.repeats,
            timeout=args.timeout,
            progress=progress,
        )
    except (CalibrationError, KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    path = write_reference(args.out, reference)
    print(
        f"wrote {len(reference['entries'])}-entry reference to {path} "
        f"(backend={reference['backend']}, repeats={reference['repeats']})"
    )
    return 0


def _cmd_calibrate_fit(args: argparse.Namespace) -> int:
    from repro.calibrate import (
        CalibrationError,
        build_preset,
        fit,
        load_reference,
        write_preset,
    )

    try:
        reference = load_reference(args.reference)
    except (OSError, json.JSONDecodeError, CalibrationError) as exc:
        print(f"error: cannot load reference {args.reference}: {exc}",
              file=sys.stderr)
        return 2
    try:
        result = fit(
            reference,
            seed=args.seed,
            rounds=args.rounds,
            step=args.step,
            util_weight=args.util_weight,
            log=lambda message: print(message, file=sys.stderr, flush=True),
        )
    except (CalibrationError, ValueError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    preset = build_preset(
        args.name,
        result,
        reference,
        util_weight=args.util_weight,
        makespan_tolerance=args.makespan_tolerance,
    )
    path = write_preset(args.out, preset)
    print(
        f"fitted {args.name!r} in {result.evaluations} evaluation(s): "
        f"max makespan error {result.max_makespan_error:.2%} "
        f"(uncalibrated baseline {result.baseline_max_makespan_error:.2%}); "
        f"wrote {path}"
    )
    if args.report and not _write_text(
        args.report, json.dumps(result.to_dict(), indent=2, sort_keys=True),
        "fit report",
    ):
        return 2
    if result.max_makespan_error > args.makespan_tolerance:
        print(
            f"error: fitted makespan error {result.max_makespan_error:.2%} "
            f"exceeds the {args.makespan_tolerance:.0%} tolerance",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_calibrate_check(args: argparse.Namespace) -> int:
    from repro.calibrate import CalibrationError, check_drift

    try:
        report = check_drift(
            args.preset,
            makespan_tolerance=args.makespan_tolerance,
            score_tolerance=args.score_tolerance,
        )
    except (OSError, json.JSONDecodeError, CalibrationError) as exc:
        print(f"error: cannot check {args.preset}: {exc}", file=sys.stderr)
        return 2
    for entry in report["entries"]:
        print(
            f"{entry['name']:<28} sim {entry['simulated_s']:8.3f}s  "
            f"meas {entry['measured_s']:8.3f}s  "
            f"err {entry['makespan_error']:7.2%}"
        )
    print(
        f"preset {report['name']!r}: score {report['score']:.4f} "
        f"(recorded {report['recorded_score']:.4f}, drift "
        f"{report['score_drift']:.4f} <= {report['score_tolerance']}), "
        f"max makespan error {report['max_makespan_error']:.2%} "
        f"(tolerance {report['makespan_tolerance']:.0%})"
    )
    if args.report and not _write_text(
        args.report, json.dumps(report, indent=2, sort_keys=True),
        "drift report",
    ):
        return 2
    if not report["ok"]:
        print(f"error: preset {report['name']!r} drifted out of tolerance",
              file=sys.stderr)
        return 1
    print("calibration: preset within tolerance")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser (exposed for doc/tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run AIAC/SISC scenarios (Bahi et al. reproduction).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser(
        "list",
        help="show every registered problem/environment/cluster/worker/"
        "backend/balancer",
    )
    list_parser.set_defaults(func=_cmd_list)

    sweep_parser = subparsers.add_parser(
        "sweep",
        aliases=["run"],
        help="run the scenario(s) in a JSON file and print one record "
        "per scenario",
        description=(
            "Run a scenario grid through the repro.sweep work-queue "
            "executor: validate every item up front, coalesce duplicate "
            "grid points into one execution, and pump distinct units "
            "through a placement strategy (local, pool, serve). With "
            "--state-dir every settled unit is journaled and its record "
            "cached by content-hash + seed, so a killed sweep resumes "
            "with --resume and completed units are never re-executed. "
            "`repro run` is an alias. See docs/sweeping.md."
        ),
    )
    sweep_parser.add_argument(
        "scenarios", nargs="?", default=None,
        help="path to a scenario JSON file (omit with --conformance)",
    )
    sweep_parser.add_argument(
        "--conformance", type=int, default=None, metavar="N",
        help="sweep N seeded conformance scenarios instead of a file",
    )
    sweep_parser.add_argument(
        "--seed", type=int, default=0, metavar="S",
        help="generator seed for --conformance (default: 0)",
    )
    sweep_parser.add_argument(
        "--backend", default="simulated",
        help="backend name (default: simulated; ignored by "
        "--placement serve)",
    )
    sweep_parser.add_argument(
        "--placement", default=None,
        help="placement strategy: local, pool, serve, or a registered "
        "custom name (default: pool when --processes > 1, else local)",
    )
    sweep_parser.add_argument(
        "--processes", type=int, default=1,
        help="worker count for the pool placement (default: 1)",
    )
    sweep_parser.add_argument(
        "--state-dir", default=None, metavar="DIR",
        help="directory for the sweep journal and result cache; enables "
        "--resume and incremental re-runs (default: in-memory only)",
    )
    sweep_parser.add_argument(
        "--resume", action="store_true",
        help="replay this grid's journal from --state-dir; settled units "
        "are free",
    )
    sweep_parser.add_argument(
        "--retries", type=int, default=1, metavar="K",
        help="transient-failure budget per unit (timeouts, worker "
        "crashes; default: 1)",
    )
    sweep_parser.add_argument(
        "--timeout", type=float, default=None, metavar="T",
        help="per-attempt deadline in seconds (default: none)",
    )
    sweep_parser.add_argument(
        "--host", default="127.0.0.1",
        help="daemon address for --placement serve (default: 127.0.0.1)",
    )
    sweep_parser.add_argument(
        "--port", type=int, default=7341,
        help="daemon port for --placement serve (default: 7341)",
    )
    sweep_parser.add_argument(
        "--priority", type=int, default=0,
        help="queue priority for --placement serve submissions "
        "(default: 0)",
    )
    sweep_parser.add_argument(
        "--include-solution", action="store_true",
        help="store per-rank solution vectors in the records "
        "(local/pool placements only)",
    )
    sweep_parser.add_argument(
        "--output", default=None, metavar="PATH",
        help="write records to a file instead of stdout",
    )
    sweep_parser.add_argument(
        "--report", default=None, metavar="PATH",
        help="write the counters/fingerprint summary JSON here",
    )
    sweep_parser.set_defaults(func=_cmd_sweep)

    conformance_parser = subparsers.add_parser(
        "conformance",
        help="sweep seeded random scenarios through both backends and "
        "check the protocol invariants",
        description=(
            "Generate N seeded random scenarios (problem size, cluster "
            "heterogeneity, comm policy, fault plan), run each on the "
            "simulated, threaded and process backends, and assert the "
            "invariants: sound convergence detection, success implies "
            "tolerance, deterministic work counters for a fixed seed, "
            "cross-backend agreement. See docs/testing.md."
        ),
    )
    conformance_parser.add_argument(
        "--n", type=int, default=25, metavar="N",
        help="number of scenarios to generate (default: 25)",
    )
    conformance_parser.add_argument(
        "--seed", type=int, default=0, metavar="S",
        help="generator seed; same seed = same scenarios (default: 0)",
    )
    conformance_parser.add_argument(
        "--filter", default=None, metavar="SUBSTR",
        help="keep only generated scenarios whose name contains this "
        "substring (use it to reproduce one failure from a report)",
    )
    conformance_parser.add_argument(
        "--report", default=None, metavar="PATH",
        help="write the JSON conformance report here",
    )
    conformance_parser.add_argument(
        "--timeout", type=float, default=60.0, metavar="T",
        help="per-scenario timeout for the threaded/process backends; a "
        "hung run is reaped and reported as that scenario's failure "
        "(default: 60)",
    )
    conformance_parser.add_argument(
        "--simulated-only", action="store_true",
        help="skip the threaded and process backends (faster; simulator "
        "invariants only)",
    )
    conformance_parser.add_argument(
        "--skip-process", action="store_true",
        help="skip only the process backend (two-way simulated/threaded "
        "parity)",
    )
    conformance_parser.set_defaults(func=_cmd_conformance)

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the scenario submission service (scheduler daemon)",
        description=(
            "Run the repro.serve scheduler daemon: accept scenario "
            "submissions over a newline-delimited-JSON socket protocol "
            "(submit/status/result/cancel/stats), queue them by priority "
            "onto a pool of backend worker processes with per-job timeout "
            "and bounded retry, cache results on disk by scenario "
            "content-hash + seed, and journal accepted jobs so a killed "
            "daemon resumes its queue. See docs/serving.md."
        ),
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve_parser.add_argument(
        "--port", type=int, default=7341,
        help="TCP port; 0 picks a free one (default: 7341)",
    )
    serve_parser.add_argument(
        "--backend", default="simulated",
        help="backend the workers run scenarios on (default: simulated)",
    )
    serve_parser.add_argument(
        "--workers", type=int, default=2,
        help="worker-process pool size (default: 2)",
    )
    serve_parser.add_argument(
        "--job-timeout", type=float, default=60.0, metavar="T",
        help="per-attempt deadline in seconds; an expired attempt's worker "
        "is killed and the job retried (default: 60)",
    )
    serve_parser.add_argument(
        "--max-attempts", type=int, default=2, metavar="K",
        help="attempts per job before a timeout becomes a failure "
        "(default: 2)",
    )
    serve_parser.add_argument(
        "--state-dir", default=None, metavar="DIR",
        help="directory for the journal and the result cache; enables "
        "resume-after-kill and cross-restart caching (default: none -- "
        "a throwaway cache, no journal)",
    )
    serve_parser.set_defaults(func=_cmd_serve)

    trace_parser = subparsers.add_parser(
        "trace",
        help="run one scenario with tracing on and write its timeline",
        description=(
            "Run one scenario on any backend with span tracing enabled "
            "and write the per-rank compute/idle/comm timeline as Chrome "
            "trace-event JSON (load it at https://ui.perfetto.dev). "
            "The simulated backend records virtual-clock spans, "
            "the threaded and process backends wall-clock spans -- same "
            "schema either way. See docs/observability.md."
        ),
    )
    trace_parser.add_argument("scenarios", help="path to a scenario JSON file")
    trace_parser.add_argument(
        "--backend", default="simulated",
        help="backend name (default: simulated)",
    )
    trace_parser.add_argument(
        "--out", default="trace.json", metavar="PATH",
        help="output trace file (default: trace.json)",
    )
    trace_parser.add_argument(
        "--index", type=int, default=0, metavar="I",
        help="which scenario in the file to trace (default: 0)",
    )
    trace_parser.add_argument(
        "--no-markers", action="store_true",
        help="do not force per-iteration Trace markers on",
    )
    trace_parser.set_defaults(func=_cmd_trace)

    report_parser = subparsers.add_parser(
        "report",
        help="render a trace file as an ASCII utilization/Gantt report",
        description=(
            "Render a trace written by `repro trace` as an ASCII report: "
            "per-rank compute/idle/comm seconds and utilization, the "
            "Gantt chart, and iteration-marker counts."
        ),
    )
    report_parser.add_argument("trace", help="path to a trace file")
    report_parser.add_argument(
        "--width", type=int, default=72,
        help="Gantt width in characters (default: 72)",
    )
    report_parser.set_defaults(func=_cmd_report)

    calibrate_parser = subparsers.add_parser(
        "calibrate",
        help="fit the simulator's cluster parameters to measured backends",
        description=(
            "Calibration workflow (repro.calibrate): `measure` runs a "
            "battery of scenarios on a wall-clock backend and records "
            "makespans + per-rank compute shape as a reference; `fit` "
            "searches the `calibrated` cluster's parameters until the "
            "simulator reproduces the reference and emits a loadable "
            "preset; `check` re-scores a preset against its embedded "
            "reference and fails on drift. See docs/calibration.md."
        ),
    )
    calibrate_sub = calibrate_parser.add_subparsers(
        dest="calibrate_command", required=True
    )

    measure_parser = calibrate_sub.add_parser(
        "measure",
        help="run a calibration battery on a real backend and write the "
        "reference JSON",
    )
    measure_parser.add_argument(
        "--battery", default="default",
        help="battery name: default or tiny (default: default)",
    )
    measure_parser.add_argument(
        "--backend", default="threaded",
        help="wall-clock backend to measure (default: threaded)",
    )
    measure_parser.add_argument(
        "--repeats", type=int, default=3, metavar="K",
        help="runs per scenario; the median supplies the shape (default: 3)",
    )
    measure_parser.add_argument(
        "--timeout", type=float, default=120.0, metavar="T",
        help="per-run timeout in seconds (default: 120)",
    )
    measure_parser.add_argument(
        "--out", default="calibration_reference.json", metavar="PATH",
        help="reference output path (default: calibration_reference.json)",
    )
    measure_parser.set_defaults(func=_cmd_calibrate_measure)

    fit_parser = calibrate_sub.add_parser(
        "fit",
        help="fit the calibrated cluster's parameters to a measured "
        "reference and emit a preset",
    )
    fit_parser.add_argument("reference", help="path to a measured reference JSON")
    fit_parser.add_argument(
        "--name", default="calibrated_local", metavar="NAME",
        help="cluster name the emitted preset registers under "
        "(default: calibrated_local)",
    )
    fit_parser.add_argument(
        "--out", default="calibration_preset.json", metavar="PATH",
        help="preset output path (default: calibration_preset.json)",
    )
    fit_parser.add_argument(
        "--seed", type=int, default=0, metavar="S",
        help="search seed; same seed + reference = same fit (default: 0)",
    )
    fit_parser.add_argument(
        "--rounds", type=int, default=8, metavar="N",
        help="coordinate-descent round budget (default: 8)",
    )
    fit_parser.add_argument(
        "--step", type=float, default=2.0, metavar="X",
        help="initial multiplicative descent step (default: 2.0)",
    )
    fit_parser.add_argument(
        "--util-weight", type=float, default=0.5, metavar="W",
        help="weight of the per-rank compute-shape term (default: 0.5)",
    )
    fit_parser.add_argument(
        "--makespan-tolerance", type=float, default=0.20, metavar="X",
        help="acceptance gate on the fitted per-entry makespan error; "
        "recorded in the preset for `check` (default: 0.20)",
    )
    fit_parser.add_argument(
        "--report", default=None, metavar="PATH",
        help="write the full fit report (stages, scores) here",
    )
    fit_parser.set_defaults(func=_cmd_calibrate_fit)

    check_parser = calibrate_sub.add_parser(
        "check",
        help="re-score a fitted preset against its embedded reference "
        "and fail on drift",
    )
    check_parser.add_argument("preset", help="path to a fitted preset JSON")
    check_parser.add_argument(
        "--makespan-tolerance", type=float, default=None, metavar="X",
        help="override the preset's recorded makespan tolerance",
    )
    check_parser.add_argument(
        "--score-tolerance", type=float, default=None, metavar="X",
        help="override the preset's recorded score-drift tolerance",
    )
    check_parser.add_argument(
        "--report", default=None, metavar="PATH",
        help="write the drift report JSON here",
    )
    check_parser.set_defaults(func=_cmd_calibrate_check)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Parse ``argv`` (default ``sys.argv[1:]``) and run one subcommand.

    Returns the process exit status; ``python -m repro.cli`` and the
    installed ``repro`` command both funnel through here.
    """
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (``repro list | head -1``).  Point
        # stdout at devnull so the interpreter's exit flush cannot
        # raise again, and exit without a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
