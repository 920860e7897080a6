"""Where the benchmark finds the program and keeps its scratch files."""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
REPO_ROOT = PERF_DIR.parent.parent
SRC_DIR = REPO_ROOT / "src"
SPEC_PATH = REPO_ROOT / "BENCHMARK.json"
#: Every state dir, cache and journal of a run lives under here (the
#: benchmark reads and writes only inside its checkout) and is removed
#: when the run ends.
TMP_ROOT = PERF_DIR / ".tmp"


def require_repro() -> None:
    """Put the checkout's ``src`` first on the path, or exit non-zero.

    The benchmark measures the program *in this checkout*; a copy
    installed elsewhere must never be picked up in its place.
    """
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no program to measure: {SRC_DIR / 'repro'} is missing")
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    TMP_ROOT.mkdir(exist_ok=True)
    tempfile.tempdir = str(TMP_ROOT)


def child_env() -> dict:
    """Environment for subprocesses (passes, the daemon, pool workers)."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC_DIR) + (os.pathsep + existing if existing else "")
    env["TMPDIR"] = str(TMP_ROOT)
    return env


def load_spec() -> dict:
    with SPEC_PATH.open("r", encoding="utf-8") as handle:
        return json.load(handle)
