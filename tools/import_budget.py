#!/usr/bin/env python
"""Print what importing each entry point of ``repro`` costs, and gate it.

For every ``--module`` (default: the five entry points a process of
this library starts from) a clean interpreter imports it five times for
the wall-clock median, the module count and the resident set size, and
once more under ``-X importtime`` for the self-time table: one row per
top-level package, ``repro`` broken down by subpackage.  ``PYTHONPATH``
points at this checkout's ``src/``, bytecode caches are left on (the
first run warms them).

Exits 1 when an import loads a ``--forbid`` package or more than
``--max-modules`` modules -- the CI job ``import-budget`` runs it where
only ``numpy`` is installed (see DESIGN.md, "Import graph and start-up
budget").

Usage::

    python tools/import_budget.py
    python tools/import_budget.py --module repro.api --forbid networkx --max-modules 300
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent

ENTRY_POINTS = (
    "repro.api",
    "repro.cli",
    "repro.serve.workers",
    "repro.sweep",
    "repro.runtime.process_hub",
)

REPEATS = 5
TABLE_ROWS = 14

# Runs in the child: import, then report what the import left behind.
PROBE = """\
import sys, time
t0 = time.perf_counter()
import {module}
seconds = time.perf_counter() - t0
modules = sorted(sys.modules)
import json, resource
rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
if sys.platform == "darwin":
    rss_kb //= 1024
print(json.dumps({{"seconds": seconds, "modules": modules, "rss_mb": rss_kb / 1024}}))
"""

IMPORTTIME_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)$")


def child(args: List[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, *args], env=env, cwd=ROOT, capture_output=True, text=True
    )
    if proc.returncode != 0:
        print(f"import-budget: {' '.join(args)} failed:\n{proc.stderr}", file=sys.stderr)
        sys.exit(2)
    return proc


def probe(module: str) -> dict:
    """Median seconds plus the module list and RSS of importing ``module``."""
    runs = [
        json.loads(child(["-c", PROBE.format(module=module)]).stdout)
        for _ in range(REPEATS)
    ]
    return {
        "seconds": statistics.median(r["seconds"] for r in runs),
        "rss_mb": statistics.median(r["rss_mb"] for r in runs),
        "modules": runs[-1]["modules"],
    }


def self_time_ms(module: str) -> Dict[str, float]:
    """Self time per top-level package (``repro`` per subpackage), in ms."""
    stderr = child(["-X", "importtime", "-c", f"import {module}"]).stderr
    table: Dict[str, float] = defaultdict(float)
    for line in stderr.splitlines():
        match = IMPORTTIME_LINE.match(line)
        if not match:
            continue
        parts = match.group(4).split(".")
        depth = 2 if parts[0] == "repro" else 1
        table[".".join(parts[:depth])] += int(match.group(1)) / 1000.0
    return table


def report(module: str, forbid: List[str], max_modules: int | None) -> List[str]:
    """Print one entry point's numbers; return the budget violations."""
    measured = probe(module)
    names = measured["modules"]
    print(
        f"{module}: {measured['seconds']:.3f} s (median of {REPEATS}), "
        f"{len(names)} modules, {measured['rss_mb']:.1f} MB RSS"
    )
    rows = sorted(self_time_ms(module).items(), key=lambda kv: -kv[1])
    for name, ms in rows[:TABLE_ROWS]:
        print(f"    {name:<28s} {ms:8.1f} ms")
    rest = rows[TABLE_ROWS:]
    if rest:
        print(f"    {f'({len(rest)} more)':<28s} {sum(ms for _, ms in rest):8.1f} ms")

    violations = []
    loaded = {name.split(".")[0] for name in names}
    for package in forbid:
        if package in loaded:
            violations.append(f"{module} imports forbidden package {package!r}")
    if max_modules is not None and len(names) > max_modules:
        violations.append(
            f"{module} loads {len(names)} modules, ceiling is {max_modules}"
        )
    return violations


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--module", action="append", metavar="NAME",
        help=f"entry point to import (repeatable; default: {', '.join(ENTRY_POINTS)})",
    )
    parser.add_argument(
        "--forbid", default="", metavar="PKG[,PKG]",
        help="top-level packages no entry point may load",
    )
    parser.add_argument(
        "--max-modules", type=int, default=None, metavar="N",
        help="ceiling on len(sys.modules) after each import",
    )
    args = parser.parse_args()

    forbid = [p for p in args.forbid.split(",") if p]
    violations: List[str] = []
    for module in args.module or ENTRY_POINTS:
        violations += report(module, forbid, args.max_modules)
    for line in violations:
        print(f"import-budget: {line}", file=sys.stderr)
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
