#!/usr/bin/env python
"""Load harness for the scenario submission service (``repro.serve``).

Drives a real ``repro serve`` daemon subprocess with thousands of
concurrent scenario submissions -- mixed integer priorities, a
configurable fraction of exact duplicates -- and asserts the service
contract end to end:

* **100% terminal outcomes**: every acknowledged job reaches
  ``done``/``failed``/``cancelled`` (and here, with healthy tiny
  scenarios, ``done``).
* **Duplicates are free**: every duplicate submission is served by
  coalescing onto the in-flight twin or straight from the
  content-hash result cache -- never executed twice.
* **Kill-resume** (``--kill-fraction > 0``): the daemon's process
  group is SIGKILLed mid-run -- once that fraction of the unique work
  is done and while a job is still queued or running -- restarted on
  the same state dir and port, and must requeue every
  accepted-but-unfinished job from its journal; submissions in flight
  during the kill reconnect and resubmit (idempotent by content hash).
  The submissions from the last never-seen scenario on are held back
  until the restart, so the second life has fresh work to queue.

Every exit path kills and reaps the daemon's process group.

The outcome is a JSON report (throughput, cache-hit rate, per-life
daemon stats) written to ``--report``; a non-zero exit means an
assertion failed.  This is the acceptance bench of ROADMAP item 1 and
the CI serve-smoke job's engine (small ``--n`` there, 1000 for the
acceptance run)::

    PYTHONPATH=src python benchmarks/serve_load.py --n 1000 \
        --duplicate-fraction 0.3 --kill-fraction 0.25 --report stats.json

``--closed-loop N`` runs a different, much smaller check instead: one
client sends ``N`` never-seen tiny scenarios one after the other, each
waited to ``done``, and the daemon's own ``queue_latency_s`` histogram
must average under 10 ms.  An idle daemon dispatches a submission the
moment it arrives (~0.2 ms); a dispatcher that looks for work on a
timer would sit at half its period, so a reintroduced tick fails here::

    PYTHONPATH=src python benchmarks/serve_load.py --closed-loop 20 --workers 1
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api import Scenario  # noqa: E402
from repro.serve import ServeClient  # noqa: E402


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def build_submissions(n: int, duplicate_fraction: float, seed: int):
    """``n`` submissions over ``ceil(n*(1-dup))`` unique tiny scenarios.

    Each entry is ``(scenario_dict, priority, is_duplicate)``; the
    shuffle interleaves duplicates with their originals so both the
    coalesce path (twin still in flight) and the cache path (twin
    already done) get exercised.
    """
    rng = random.Random(seed)
    n_unique = max(1, n - int(n * duplicate_fraction))
    unique = []
    for i in range(n_unique):
        scenario = Scenario(
            problem="sparse_linear",
            problem_params={"n": 40 + (i % 40), "dominance": 1.2},
            environment="pm2",
            n_ranks=2,
            seed=i,
            name=f"load-{i}",
        )
        unique.append(scenario.to_dict())
    submissions = [(dict(s), rng.randint(0, 9), False) for s in unique]
    while len(submissions) < n:
        twin = dict(rng.choice(unique))
        twin["name"] = f"{twin['name']}-dup"  # labels must not defeat the hash
        submissions.append((twin, rng.randint(0, 9), True))
    rng.shuffle(submissions)
    return submissions


class DaemonProcess:
    """A ``repro serve`` subprocess pinned to one port + state dir."""

    def __init__(self, port: int, state_dir: Path, workers: int, job_timeout: float):
        self.port = port
        self.state_dir = state_dir
        self.workers = workers
        self.job_timeout = job_timeout
        self.proc: subprocess.Popen = None
        self.logs: list = []

    def start(self) -> None:
        log = (self.state_dir / f"daemon-{len(self.logs)}.log").open("w")
        self.logs.append(log.name)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", str(self.port),
                "--state-dir", str(self.state_dir),
                "--workers", str(self.workers),
                "--job-timeout", str(self.job_timeout),
            ],
            stdout=log, stderr=subprocess.STDOUT, env=env,
            start_new_session=True,  # one process group: daemon + workers
        )
        try:
            with ServeClient.connect(port=self.port, retry_for=30.0) as client:
                client.ping()
        except OSError as exc:
            raise RuntimeError(
                f"daemon did not come up on port {self.port}; "
                f"see {self.logs[-1]}"
            ) from exc

    def sigkill(self) -> None:
        """SIGKILL the daemon's process group -- the daemon and its
        workers, as a host crash would -- and reap the daemon."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the group is gone already
        self.proc.wait(timeout=10.0)

    def shutdown_clean(self) -> int:
        with ServeClient(port=self.port, timeout=10.0) as client:
            client.shutdown()
        return self.proc.wait(timeout=30.0)


#: Mean submit->dispatch wait the closed-loop check tolerates.
QUEUE_LATENCY_LIMIT_S = 0.010


def start_daemon(args: argparse.Namespace) -> DaemonProcess:
    """A daemon on a wiped state dir, per the command line."""
    state_dir = Path(args.state_dir or (REPO_ROOT / ".serve-load-state"))
    if state_dir.exists():
        import shutil

        shutil.rmtree(state_dir)
    state_dir.mkdir(parents=True)
    daemon = DaemonProcess(
        args.port or free_port(), state_dir, args.workers, args.job_timeout
    )
    daemon.start()
    return daemon


def run_closed_loop(args: argparse.Namespace) -> dict:
    """One client, one job in flight: the submit->dispatch wait of an
    idle daemon, read from the daemon's own histogram."""
    submissions = build_submissions(args.closed_loop, 0.0, args.seed)
    daemon = start_daemon(args)
    try:
        started = time.perf_counter()
        with ServeClient(port=daemon.port, timeout=30.0) as client:
            for scenario, _, _ in submissions:
                ack = client.submit(scenario)
                assert not ack["cached"] and not ack["coalesced"], ack
                frame = client.wait(ack["id"], timeout=args.drain_timeout)
                assert frame["state"] == "done", frame
            elapsed = time.perf_counter() - started
            metrics = client.metrics()
        exit_code = daemon.shutdown_clean()
    finally:
        daemon.sigkill()  # whatever is left of it, on every exit path
    waits = metrics["histograms"]["queue_latency_s"]
    assert waits["count"] == len(submissions), waits
    mean_wait_s = waits["sum"] / waits["count"]
    assert mean_wait_s <= QUEUE_LATENCY_LIMIT_S, (
        f"mean queue_latency_s {mean_wait_s * 1e3:.2f} ms over "
        f"{waits['count']} closed-loop jobs exceeds "
        f"{QUEUE_LATENCY_LIMIT_S * 1e3:.0f} ms: is the dispatcher "
        f"waiting on a timer again?"
    )
    assert exit_code == 0, f"daemon exited {exit_code} on clean shutdown"
    return {
        "config": {"closed_loop": args.closed_loop, "workers": args.workers,
                   "seed": args.seed},
        "jobs_per_s": round(len(submissions) / elapsed, 1),
        "mean_queue_latency_ms": round(mean_wait_s * 1e3, 3),
        "queue_latency_limit_ms": QUEUE_LATENCY_LIMIT_S * 1e3,
        "dispatcher_wakeups": metrics["counters"].get("dispatcher_wakeups"),
        "final_metrics": metrics,
        "clean_shutdown_exit": exit_code,
    }


def first_fresh_of_the_tail(submissions) -> int:
    """Index of the last submission whose content (the scenario minus
    its label) no earlier submission has: held back until the second
    daemon life, it is work that life must queue afresh."""
    seen = set()
    last = 0
    for index, (scenario, _, _) in enumerate(submissions):
        content = json.dumps({k: v for k, v in scenario.items() if k != "name"},
                             sort_keys=True)
        if content not in seen:
            seen.add(content)
            last = index
    return last


def run_load(args: argparse.Namespace) -> dict:
    submissions = build_submissions(args.n, args.duplicate_fraction, args.seed)
    daemon = start_daemon(args)
    try:
        return drive_load(args, daemon, submissions)
    finally:
        daemon.sigkill()  # whatever is left of it, on every exit path


def drive_load(args: argparse.Namespace, daemon: DaemonProcess, submissions) -> dict:
    n_duplicates = sum(1 for _, _, dup in submissions if dup)
    port = daemon.port

    daemon_up = threading.Event()
    daemon_up.set()
    # With a kill phase, the tail from the last never-seen scenario on
    # waits for the second life, so that life has fresh work to queue
    # (its queue-latency histogram is asserted non-empty below).
    held_from = first_fresh_of_the_tail(submissions) if args.kill_fraction > 0 else len(submissions)
    second_life = threading.Event()
    acks: dict = {}  # submission index -> ack frame
    ack_lock = threading.Lock()
    next_index = [0]
    started = time.perf_counter()

    def submitter() -> None:
        client = None
        while True:
            with ack_lock:
                if next_index[0] >= len(submissions):
                    break
                index = next_index[0]
                next_index[0] += 1
            if index >= held_from:
                second_life.wait(timeout=600.0)
            scenario, priority, _ = submissions[index]
            while True:
                daemon_up.wait(timeout=60.0)
                try:
                    if client is None:
                        client = ServeClient(port=port, timeout=30.0)
                    ack = client.submit(scenario, priority=priority)
                    with ack_lock:
                        acks[index] = ack
                    break
                except (OSError, ConnectionError):
                    # Daemon died under us (the kill phase): drop the
                    # connection and resubmit once it is back --
                    # idempotent thanks to the content-hash key.
                    if client is not None:
                        client.close()
                        client = None
                    time.sleep(0.1)
        if client is not None:
            client.close()

    threads = [
        threading.Thread(target=submitter, name=f"submitter-{i}", daemon=True)
        for i in range(args.submitters)
    ]
    # The kill-phase watcher connects before the submitters do: a
    # connection attempt dropped by a full listen backlog is retried by
    # TCP a second later, long enough for the first life to finish.
    watcher = ServeClient(port=port, timeout=30.0) if args.kill_fraction > 0 else None
    for thread in threads:
        thread.start()

    lives = 1
    first_life_stats = None
    if args.kill_fraction > 0:
        # Wait until a fraction of the unique work is done while a job
        # is still queued or running -- the work the restarted daemon
        # must replay -- then SIGKILL the daemon mid-run and restart it
        # on the same journal.  Submitter threads stall and resubmit.
        target = max(1, int((args.n - n_duplicates) * args.kill_fraction))
        with watcher:
            while True:
                stats = watcher.stats()
                open_jobs = stats["jobs"].get("queued", 0) + stats["jobs"].get("running", 0)
                if stats["counters"]["completed"] >= target and open_jobs:
                    first_life_stats = stats
                    break
                with ack_lock:
                    drained = not open_jobs and len(acks) >= held_from
                if drained:
                    raise RuntimeError(
                        "the first daemon life finished all its work before the "
                        "kill could catch a job in flight; lower --kill-fraction"
                    )
                time.sleep(0.01)
        daemon_up.clear()
        daemon.sigkill()
        daemon.start()
        daemon_up.set()
        second_life.set()
        lives += 1

    for thread in threads:
        thread.join(timeout=600.0)
        if thread.is_alive():
            raise RuntimeError("submitter thread hung")
    submit_elapsed = time.perf_counter() - started
    assert len(acks) == len(submissions), (
        f"only {len(acks)}/{len(submissions)} submissions acknowledged"
    )

    # Wait for every acknowledged job to reach a terminal state (a
    # long poll per job: each returns the moment its job settles).
    job_ids = sorted({ack["id"] for ack in acks.values()})
    terminal: dict = {}
    with ServeClient(port=port, timeout=30.0) as client:
        deadline = time.monotonic() + args.drain_timeout
        for job_id in job_ids:
            try:
                terminal[job_id] = client.wait(
                    job_id, timeout=max(0.0, deadline - time.monotonic())
                )
            except TimeoutError:
                raise RuntimeError(
                    f"{len(job_ids) - len(terminal)} job(s) not terminal "
                    f"after {args.drain_timeout}s, first: {job_id}"
                ) from None
        final_stats = client.stats()
        final_metrics = client.metrics()
        # The observability contract: after real load the daemon's
        # queue-latency histogram is non-empty (fresh submissions in
        # this daemon life were queued, dispatched and observed --
        # journal-replayed jobs are deliberately excluded).
        queue_hist = final_metrics["histograms"].get("queue_latency_s", {})
        assert queue_hist.get("count", 0) > 0, (
            f"metrics verb returned an empty queue-latency histogram: "
            f"{final_metrics}"
        )
        # Spot-check that records are really retrievable.
        for job_id in job_ids[:: max(1, len(job_ids) // 25)]:
            frame = client.result(job_id)
            if frame["state"] == "done":
                assert frame.get("record"), f"done job {job_id} has no record"
    elapsed = time.perf_counter() - started

    exit_code = daemon.shutdown_clean()

    # ------------------------------------------------------------------
    # the service contract
    # ------------------------------------------------------------------
    failures = [j for j, s in terminal.items() if s["state"] != "done"]
    assert not failures, f"jobs not done: {failures[:10]}"
    counters = final_stats["counters"]
    # Count free (cache-hit or coalesced) submissions from the ack
    # frames, not the daemon counters: counters reset when the kill
    # phase restarts the daemon, while acks span every daemon life.
    served_free = sum(
        1 for ack in acks.values() if ack.get("cached") or ack.get("coalesced")
    )
    assert served_free >= n_duplicates, (
        f"only {served_free} submissions served from cache/coalescing, "
        f"expected at least the {n_duplicates} duplicates"
    )
    if args.kill_fraction > 0:
        assert counters["replayed"] > 0, (
            "daemon restart replayed no jobs from the journal"
        )
    assert exit_code == 0, f"daemon exited {exit_code} on clean shutdown"

    executed_jobs = len(
        {ack["id"] for ack in acks.values() if not ack.get("cached")}
    )
    report = {
        "config": {
            "n": args.n,
            "duplicate_fraction": args.duplicate_fraction,
            "duplicates_submitted": n_duplicates,
            "submitters": args.submitters,
            "workers": args.workers,
            "kill_fraction": args.kill_fraction,
            "seed": args.seed,
        },
        "daemon_lives": lives,
        "submissions_acknowledged": len(acks),
        "distinct_jobs": len(job_ids),
        "terminal": {"done": len(terminal) - len(failures), "other": len(failures)},
        "submit_elapsed_s": round(submit_elapsed, 3),
        "total_elapsed_s": round(elapsed, 3),
        "throughput_submissions_per_s": round(len(submissions) / elapsed, 1),
        "executed_runs": executed_jobs,
        "served_from_cache_or_coalesced": served_free,
        "cache_hit_rate": round(served_free / len(submissions), 3),
        "first_life_stats": first_life_stats,
        "final_stats": final_stats,
        "final_metrics": final_metrics,
        "clean_shutdown_exit": exit_code,
    }
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--n", type=int, default=1000,
                        help="total submissions (default: 1000)")
    parser.add_argument("--duplicate-fraction", type=float, default=0.3,
                        help="fraction of submissions that are exact "
                        "duplicates (default: 0.3)")
    parser.add_argument("--submitters", type=int, default=16,
                        help="concurrent submitter threads (default: 16)")
    parser.add_argument("--workers", type=int, default=2,
                        help="daemon worker processes (default: 2)")
    parser.add_argument("--job-timeout", type=float, default=60.0)
    parser.add_argument("--kill-fraction", type=float, default=0.0,
                        help="SIGKILL the daemon after this fraction of "
                        "unique jobs completed, then resume from the "
                        "journal (0 disables; acceptance run uses 0.25)")
    parser.add_argument("--drain-timeout", type=float, default=600.0,
                        help="deadline for all jobs to reach a terminal "
                        "state (default: 600)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--port", type=int, default=0,
                        help="daemon port (default: pick a free one)")
    parser.add_argument("--state-dir", default=None,
                        help="daemon state dir (default: .serve-load-state, "
                        "wiped at start)")
    parser.add_argument("--report", default=None,
                        help="write the JSON report here")
    parser.add_argument("--closed-loop", type=int, default=0, metavar="N",
                        help="instead of the load run: N never-seen jobs "
                        "through one client, one at a time; fail if the "
                        "daemon's mean queue latency exceeds 10 ms")
    args = parser.parse_args()

    report = run_closed_loop(args) if args.closed_loop else run_load(args)
    payload = json.dumps(report, indent=2)
    if args.report:
        Path(args.report).write_text(payload + "\n", encoding="utf-8")
        print(f"wrote report to {args.report}")
    print(payload)
    if args.closed_loop:
        print(
            f"serve-load closed loop: {args.closed_loop} jobs at "
            f"{report['jobs_per_s']}/s, mean queue latency "
            f"{report['mean_queue_latency_ms']} ms "
            f"(limit {report['queue_latency_limit_ms']:.0f} ms), clean shutdown"
        )
        return 0
    print(
        f"serve-load: {report['submissions_acknowledged']} submissions, "
        f"{report['executed_runs']} executed, "
        f"{report['served_from_cache_or_coalesced']} free "
        f"({100 * report['cache_hit_rate']:.0f}%), "
        f"{report['daemon_lives']} daemon life/lives, "
        f"{report['throughput_submissions_per_s']}/s over "
        f"{report['total_elapsed_s']}s -- all terminal, clean shutdown"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
