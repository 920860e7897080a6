#!/usr/bin/env python
"""Gate reach: every function in ``src/`` is entered by some run, or it fails.

Runs tier-1 and the CI smoke commands under a hook that records which
functions each Python process enters (``tools/reach_site/sitecustomize.py``,
put first on ``PYTHONPATH`` so process ranks, pool workers and CLI
subprocesses load it too), then lists every function in ``src/`` that
no run entered, and exits 1 if there is one.  A function is matched by
``(file, co_firstlineno)``, which for a decorated function is the line
of its first decorator.  Two rules exempt a function:

* its ``def`` line carries ``# pragma: no cover - <reason>``;
* its body is only a docstring, ``...``, ``pass`` or
  ``raise NotImplementedError`` (an abstract method or a protocol stub).

Everything is written under ``--out`` (default ``.reach/``): one
directory of per-process records and one log per run, and
``report.txt``, which also lists the functions that only tier-1 enters.
A run that exits non-zero fails the gate too.  Takes a few minutes.

Usage::

    python tools/reach.py
    python tools/reach.py --out /tmp/reach
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SITE = ROOT / "tools" / "reach_site"

PRAGMA = re.compile(r"#\s*pragma: no cover\s*-\s*\S")

Key = Tuple[str, int]


def runs(out: Path) -> List[Tuple[str, List[List[str]]]]:
    """The runs, as in ``.github/workflows/ci.yml``, writing only under ``out``."""
    py = sys.executable
    cli = [py, "-m", "repro.cli"]
    traces = [(backend, str(out / f"trace-{backend}.json"))
              for backend in ("simulated", "threaded", "process")]
    return [
        # pytest-benchmark pauses every profile hook while it times a
        # benchmark; disabled, it calls the benchmarked function plainly.
        ("tier-1", [[py, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                     "--benchmark-disable"]]),
        ("perf-bench-smoke", [[py, "benchmarks/perf/run.py", "--quick", "--trace"]]),
        ("conformance-smoke", [cli + ["conformance", "--n", "25", "--seed", "0",
                                      "--report", str(out / "conformance-report.json")]]),
        ("serve-smoke", [
            [py, "benchmarks/serve_load.py", "--n", "50", "--duplicate-fraction", "0.5",
             "--submitters", "8", "--workers", "2", "--kill-fraction", "0.25",
             "--state-dir", str(out / "serve-smoke-state")],
            [py, "benchmarks/serve_load.py", "--closed-loop", "20", "--workers", "1",
             "--state-dir", str(out / "serve-closed-loop-state")],
        ]),
        ("sweep-resume-smoke", [
            [py, "benchmarks/sweep_resume.py", "--n", "200", "--seed", "0",
             "--kill-fraction", "0.3", "--state-dir", str(out / "sweep-smoke-state")],
        ]),
        ("trace-smoke", [
            *(cli + ["trace", "examples/trace_scenario.json", "--backend", backend,
                     "--out", path] for backend, path in traces),
            *(cli + ["report", path] for _, path in traces),
        ]),
        ("calibrate-smoke", [
            cli + ["calibrate", "measure", "--battery", "tiny", "--backend", "threaded",
                   "--repeats", "2", "--out", str(out / "calibration-reference.json")],
            cli + ["calibrate", "fit", str(out / "calibration-reference.json"),
                   "--name", "calibrated_ci_smoke", "--rounds", "6",
                   "--makespan-tolerance", "1.0",
                   "--out", str(out / "calibration-preset.json")],
            cli + ["calibrate", "check", str(out / "calibration-preset.json"),
                   "--makespan-tolerance", "1.0"],
            cli + ["calibrate", "check",
                   "src/repro/calibrate/data/calibrated_threaded_local.json"],
        ]),
    ]


@dataclass(frozen=True)
class Function:
    path: str       # real path of the file
    line: int       # co_firstlineno: the first decorator's line, else the def's
    name: str       # qualified name
    lines: int
    exempt: str     # "", "pragma" or "stub"


def _is_stub(body: List[ast.stmt]) -> bool:
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) \
                and (stmt.value.value is Ellipsis or isinstance(stmt.value.value, str)):
            continue
        if isinstance(stmt, ast.Raise) and stmt.exc is not None:
            exc = stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
            if isinstance(exc, ast.Name) and exc.id == "NotImplementedError":
                continue
        return False
    return True


def functions(root: Path) -> List[Function]:
    """Every ``def`` under ``root``, nested ones and methods included."""
    found: List[Function] = []
    for file in sorted(root.glob("**/*.py")):
        text = file.read_text()
        source_lines = text.splitlines()
        path = os.path.realpath(file)

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = prefix + child.name
                    first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                    exempt = ("pragma" if PRAGMA.search(source_lines[child.lineno - 1])
                              else "stub" if _is_stub(child.body) else "")
                    found.append(Function(path, first, name,
                                          child.end_lineno - first + 1, exempt))
                    visit(child, name + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(ast.parse(text, str(file)), "")
    return found


def entered(records: Path) -> Set[Key]:
    """The ``(path, line)`` pairs the hook wrote under ``records``."""
    keys: Set[Key] = set()
    for file in records.glob("*.txt"):
        for row in file.read_text().splitlines():
            path, _, line = row.rpartition("\t")
            if line.isdigit():
                keys.add((path, int(line)))
    return keys


def run_all(out: Path) -> Tuple[Dict[str, Set[Key]], List[str]]:
    """Run every command under the hook; per run, what it entered."""
    env = dict(os.environ, REPRO_REACH_ROOT=str(SRC), PYTHONPATH=os.pathsep.join(
        p for p in (str(SITE), str(SRC), os.environ.get("PYTHONPATH")) if p))
    reached: Dict[str, Set[Key]] = {}
    failures: List[str] = []
    for name, commands in runs(out):
        records = out / "records" / name
        records.mkdir(parents=True)
        start = time.monotonic()
        with open(out / f"{name}.log", "w") as log:
            for argv in commands:
                code = subprocess.run(argv, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                                      env=dict(env, REPRO_REACH_DIR=str(records))).returncode
                if code != 0:
                    failures.append(f"{name}: exit {code}: {' '.join(argv)}")
        reached[name] = entered(records)
        print(f"reach: {name}: {len(reached[name])} functions entered, "
              f"{time.monotonic() - start:.0f} s", flush=True)
    return reached, failures


def describe(fn: Function) -> str:
    return f"{os.path.relpath(fn.path, ROOT)}:{fn.line} {fn.name} ({fn.lines} lines)"


def report(fns: Iterable[Function], reached: Dict[str, Set[Key]]) -> Tuple[List[str], int]:
    """The report's lines, and the number of never-entered functions."""
    fns = list(fns)
    every = set().union(*reached.values())
    others = set().union(*(keys for name, keys in reached.items() if name != "tier-1"))
    exempt = [fn for fn in fns if fn.exempt]
    never = [fn for fn in fns if not fn.exempt and (fn.path, fn.line) not in every]
    tier1_only = [fn for fn in fns if (fn.path, fn.line) in every - others]
    lines = [
        f"reach: {len(fns)} functions in src/, {len(exempt)} exempt "
        f"({sum(fn.exempt == 'pragma' for fn in exempt)} by pragma, "
        f"{sum(fn.exempt == 'stub' for fn in exempt)} stubs), "
        f"{len(never)} never entered ({sum(fn.lines for fn in never)} lines)",
        *(f"  never entered: {describe(fn)}" for fn in never),
        f"reach: {len(tier1_only)} functions entered only by tier-1 "
        f"({sum(fn.lines for fn in tier1_only)} lines)",
        *(f"  tier-1 only: {describe(fn)}" for fn in tier1_only),
    ]
    return lines, len(never)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=ROOT / ".reach",
                        help="output directory, emptied first (default .reach/)")
    args = parser.parse_args(argv)
    out = args.out.resolve()
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    start = time.monotonic()
    reached, failures = run_all(out)
    lines, never = report(functions(SRC), reached)
    lines += [f"reach: run failed: {failure}" for failure in failures]
    lines.append(f"reach: {time.monotonic() - start:.0f} s wall")
    (out / "report.txt").write_text("\n".join(lines) + "\n")
    for line in lines:
        if not line.startswith("  tier-1 only"):
            print(line)
    print(f"reach: report in {out / 'report.txt'}")
    return 1 if never or failures else 0


if __name__ == "__main__":
    sys.exit(main())
