#!/usr/bin/env python
"""Gate the size of ``src/``: physical lines of ``src/**/*.py`` against a ceiling.

ROADMAP aim 2 is "same behaviour, same speed, least code"; every
``CHANGES.md`` entry reports the ``src/`` line delta.  This prints the
count (``find src -name '*.py' | xargs cat | wc -l``), the ceiling
recorded in ``tools/loc_ceiling.txt`` and the difference, and exits 1
when the count is above the ceiling -- the CI job ``loc-budget`` runs
it.  The ceiling only moves down: a PR that lowers the count writes the
new count into ``tools/loc_ceiling.txt`` in the same commit.

Usage::

    python tools/loc_budget.py
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CEILING_FILE = ROOT / "tools" / "loc_ceiling.txt"


def count_lines(src: Path) -> int:
    return sum(path.read_bytes().count(b"\n") for path in src.glob("**/*.py"))


def main() -> int:
    count = count_lines(ROOT / "src")
    ceiling = int(CEILING_FILE.read_text().split()[0])
    print(f"loc-budget: src/ has {count} lines, ceiling {ceiling} ({count - ceiling:+d})")
    if count > ceiling:
        print(f"loc-budget: over by {count - ceiling}: delete as much as this change adds",
              file=sys.stderr)
        return 1
    if count < ceiling:
        print(f"loc-budget: lower the ceiling: write {count} to "
              f"{CEILING_FILE.relative_to(ROOT)} in this commit")
    return 0


if __name__ == "__main__":
    sys.exit(main())
