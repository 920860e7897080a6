#!/usr/bin/env python
"""Check that this tree simulates exactly what a parent revision does.

Runs ``repro.testing.generator.generate_scenarios(n, seed)`` for every
seed, then the fixed ``CHEMICAL_BATTERY`` and ``SPARSE_BATTERY`` below
(the benchmark's tiny unit and asynchronous sparse scenario, a
``sync_mpi`` run whose data sends all go rendezvous, and ``pm2`` on the
heterogeneous ``ethernet_wan`` cluster), on the simulated
backend of *both* trees (each in its own subprocess, ``PYTHONPATH``
pointing at that tree's ``src/``; both run *this* file) and diffs,
per scenario, the deterministic ``work_counters`` minus ``events`` (the
event total is a property of the implementation, not of the virtual
run), the SHA-1 of the solution bytes and the SHA-1 of the Gantt
timeline (every span and marker, sorted).  Prints one line per
differing scenario and exits 1 when there is any (2 when a tree could
not be checked out or run); a PR that *means* to change virtual results
says so in ``CHANGES.md``.  The total engine events of each tree are
printed too, ``parent -> change``, for information only: a change to
the event path shows its count there, and it is never compared.

Each tree then checks that its runs are repeatable in one process:
after the first pass it runs every battery member again, twice in a
row -- the second time on the problem instance the first one used
(``Scenario.build_problem`` keeps the last instance it built) -- and
exits 1 when any compared field differs from the first pass.  That
catches a run that writes into a shared problem instance.

``--parent`` is a git revision (checked out into a temporary
``git worktree``, removed afterwards) or a path to a checkout.

Usage::

    python tools/sim_identity.py --parent HEAD~1 [--n 40] [--seeds 0,7]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, NoReturn, Tuple

ROOT = Path(__file__).resolve().parent.parent


def fail(message: str) -> NoReturn:
    print(f"sim-identity: {message}", file=sys.stderr)
    sys.exit(2)


#: Fixed chemical members, run once after the generated scenarios
#: (which only ever build ``nx = nz = 8`` two-step strips): one per
#: shape the strip kernel and the GMRES cycle distinguish.  ``name:
#: (problem_params, environment, n_ranks[, cluster])``, the cluster
#: ``uniform_cluster`` when left out; a few seconds in total.
CHEMICAL_BATTERY = {
    # the sim_lockstep_chem benchmark scenario
    "chem-bench": ({"nx": 24, "nz": 24, "t_end": 1080.0, "gmres_tol": 1e-12,
                    "newton_tol": 1e-10}, "sync_mpi", 4),
    "chem-async": ({"nx": 10, "nz": 9, "t_end": 360.0}, "pm2", 3),
    # both ghost columns mirror the same source column
    "chem-nx3": ({"nx": 3, "nz": 6, "t_end": 360.0, "gmres_tol": 1e-10}, "sync_mpi", 2),
    "chem-row-per-rank": ({"nx": 7, "nz": 4, "t_end": 360.0}, "sync_mpi", 4),
    # both strip boundaries physical
    "chem-one-rank": ({"nx": 6, "nz": 5, "t_end": 360.0}, "sync_mpi", 1),
    "chem-standard-signs": ({"nx": 8, "nz": 8, "t_end": 360.0,
                             "paper_reaction_signs": False}, "sync_mpi", 2),
    # multi-cycle GMRES, some solves cut by gmres_max_iterations
    "chem-restart4": ({"nx": 8, "nz": 8, "t_end": 360.0, "gmres_restart": 4,
                       "gmres_tol": 1e-12, "newton_tol": 1e-10}, "sync_mpi", 2),
}


#: Fixed sparse members: shapes the generated ones (4/6/8 diagonals,
#: sub-threshold messages) never reach.  Same layout as above.
SPARSE_BATTERY = {
    # the sweep / serve tiny unit: 30 diagonals over 40 rows, one rank
    "sparse-tiny": ({"n": 40}, "sync_mpi", 1),
    # the sim_async_sparse benchmark scenario
    "sparse-async-bench": ({"n": 1200, "dominance": 0.6, "eps": 1e-3}, "pm2", 8),
    # 200-row (1.6 KB) blocks: every data send takes sync_mpi's
    # rendezvous path (threshold 1 KB)
    "sparse-rendezvous": ({"n": 800, "dominance": 0.6}, "sync_mpi", 4),
    # heterogeneous hosts over a WAN: a fast rank often finds its next
    # compute completion ahead of every queued event (the simulator's
    # lone-wake path) while the other ranks and messages are live
    "sparse-wan-hetero": ({"n": 400}, "pm2", 3, "ethernet_wan"),
}


def battery(problem: str, members: dict) -> list:
    """A fixed battery as scenarios, all on seed 1."""
    from repro.api import Scenario

    return [
        Scenario(problem=problem, problem_params=params, environment=environment,
                 n_ranks=n_ranks, cluster=(cluster or ["uniform_cluster"])[0],
                 seed=1, name=name)
        for name, (params, environment, n_ranks, *cluster) in members.items()
    ]


def chemical_battery() -> list:
    """``CHEMICAL_BATTERY`` as scenarios (the problem draws nothing: one seed)."""
    return battery("chemical", CHEMICAL_BATTERY)


def batteries() -> list:
    """Both fixed batteries, chemical first."""
    return chemical_battery() + battery("sparse_linear", SPARSE_BATTERY)


def fingerprint(scenario) -> Tuple[dict, int]:
    """Counters + solution and timeline hashes of one simulated run of
    ``scenario`` on the importable ``repro``, and its engine events."""
    from repro.api import SimulatedBackend
    from repro.testing.invariants import work_counters

    # The Gantt recorder observes the run without changing it.
    result = SimulatedBackend(timeline=True).run(scenario)
    row = work_counters(result)
    events = row.pop("events")
    row["solution_sha1"] = hashlib.sha1(result.solution().tobytes()).hexdigest()
    timeline = result.timeline.to_dict()
    gantt = json.dumps([timeline["spans"], timeline["markers"]], default=repr)
    row["timeline_sha1"] = hashlib.sha1(gantt.encode()).hexdigest()
    # Through JSON so both sides compare the same (string-keyed) shape.
    return json.loads(json.dumps(row, sort_keys=True)), events


def fingerprints(n: int, seeds: List[int]) -> Tuple[Dict[str, dict], int]:
    """``{scenario name: fingerprint}`` on the importable ``repro``, and
    the engine events of all those runs."""
    from repro.testing.generator import generate_scenarios

    scenarios = [s for seed in seeds for s in generate_scenarios(n, seed)]
    scenarios += batteries()
    out: Dict[str, dict] = {}
    events = 0
    for scenario in scenarios:
        out[scenario.name], count = fingerprint(scenario)
        events += count
    return out, events


def repeat_differences(first: Dict[str, dict]) -> List[str]:
    """Run every battery member twice more in this process -- the second
    time on the instance the first used -- against its ``first`` row."""
    lines: List[str] = []
    for scenario in batteries():
        before = {scenario.name: first[scenario.name]}
        for attempt in ("rerun", "rerun on a used instance"):
            again = {scenario.name: fingerprint(scenario)[0]}
            lines += [f"{line} ({attempt})" for line in diff(before, again)]
    return lines


def run_tree(tree: Path, n: int, seeds: List[int]) -> Tuple[Dict[str, dict], int, List[str]]:
    """:func:`fingerprints` and :func:`repeat_differences` of the
    checkout at ``tree``, in a subprocess."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--emit",
         "--n", str(n), "--seeds", ",".join(map(str, seeds))],
        env=env, cwd=tree, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        fail(f"running the scenarios of {tree} failed:\n{proc.stderr}")
    rows, events, repeats = json.loads(proc.stdout.splitlines()[-1])
    return rows, events, repeats


def diff(parent: Dict[str, dict], change: Dict[str, dict]) -> List[str]:
    """One line per scenario whose fingerprint differs."""
    lines = []
    for name in sorted(parent.keys() | change.keys()):
        a, b = parent.get(name), change.get(name)
        if a is None or b is None:
            lines.append(f"{name}: only in {'change' if a is None else 'parent'}")
        elif a != b:
            keys = [k for k in sorted(a.keys() | b.keys()) if a.get(k) != b.get(k)]
            detail = ", ".join(f"{k} {a.get(k)!r} -> {b.get(k)!r}" for k in keys)
            lines.append(f"{name}: {detail}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="git revision or path of the parent tree")
    parser.add_argument("--n", type=int, default=40, help="scenarios per seed")
    parser.add_argument("--seeds", default="0,7", help="comma-separated generator seeds")
    parser.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    if args.emit:
        rows, events = fingerprints(args.n, seeds)
        print(json.dumps([rows, events, repeat_differences(rows)]))
        return 0
    if not args.parent:
        parser.error("--parent is required")

    if Path(args.parent).is_dir():
        parent, parent_events, parent_repeats = run_tree(
            Path(args.parent).resolve(), args.n, seeds)
    else:
        with tempfile.TemporaryDirectory(prefix="sim-identity-") as tmp:
            worktree = Path(tmp) / "parent"
            added = subprocess.run(
                ["git", "worktree", "add", "--detach", str(worktree), args.parent],
                cwd=ROOT, capture_output=True, text=True,
            )
            if added.returncode != 0:
                fail(f"cannot check out {args.parent!r}:\n{added.stderr}")
            try:
                parent, parent_events, parent_repeats = run_tree(worktree, args.n, seeds)
            finally:
                subprocess.run(
                    ["git", "worktree", "remove", "--force", str(worktree)],
                    cwd=ROOT, check=False, capture_output=True,
                )
    change, change_events, change_repeats = run_tree(ROOT, args.n, seeds)

    lines = diff(parent, change)
    for line in lines:
        print(line)
    repeats = [f"parent {line}" for line in parent_repeats]
    repeats += [f"change {line}" for line in change_repeats]
    for line in repeats:
        print(line)
    print(f"sim-identity: engine events {parent_events} -> {change_events} (not compared)")
    print(
        f"sim-identity: {len(change)} scenarios "
        f"(n={args.n}, seeds={','.join(map(str, seeds))}), {len(lines)} differ"
    )
    print(
        f"sim-identity: in-process battery repeats: {len(parent_repeats)} differ "
        f"on the parent, {len(change_repeats)} on the change"
    )
    return 1 if lines or repeats else 0


if __name__ == "__main__":
    sys.exit(main())
