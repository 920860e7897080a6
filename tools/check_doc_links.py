#!/usr/bin/env python
"""Lint relative links in the repository's markdown documentation.

Scans ``README.md``, ``DESIGN.md``, ``ROADMAP.md``, ``CHANGES.md`` and
everything under ``docs/`` for inline markdown links ``[text](target)``
and verifies that every *relative* target exists on disk (anchors are
stripped; ``http(s):``/``mailto:`` targets are skipped).  It also
checks the other direction: every markdown file a ``.py`` file under
``src/``, ``tests/``, ``benchmarks/``, ``tools/`` or ``examples/``
names must exist at the repository root, under ``docs/``, or as a path
relative to the root.  Exits 1 and lists the offenders when anything
dangles -- CI runs this, and ``tests/test_docs.py`` runs it as part of
the tier-1 suite.

Usage::

    python tools/check_doc_links.py [repo_root]
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import List, Tuple

#: Inline markdown link: [text](target).  Deliberately simple -- the
#: docs are hand-written and do not use reference-style links.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: Schemes that are not filesystem targets.
_EXTERNAL = ("http://", "https://", "mailto:", "ftp://")

#: A markdown file named in code, bare or with a relative directory.
_MD_NAME = re.compile(r"\w[\w./-]*\.md\b")

#: The code trees whose markdown mentions must resolve.
CODE_DIRS = ("src", "tests", "benchmarks", "tools", "examples")


def iter_doc_files(root: Path) -> List[Path]:
    """The markdown files whose links we guarantee."""
    files = [
        root / name
        for name in ("README.md", "DESIGN.md", "ROADMAP.md", "CHANGES.md")
        if (root / name).exists()
    ]
    docs = root / "docs"
    if docs.is_dir():
        files.extend(sorted(docs.glob("**/*.md")))
    return files


def broken_links(path: Path) -> List[Tuple[str, str]]:
    """``(target, reason)`` for every broken relative link in ``path``."""
    problems: List[Tuple[str, str]] = []
    text = path.read_text(encoding="utf-8")
    for match in _LINK.finditer(text):
        target = match.group(1)
        if target.startswith(_EXTERNAL) or target.startswith("#"):
            continue
        relative = target.split("#", 1)[0]
        if not relative:
            continue
        resolved = (path.parent / relative).resolve()
        if not resolved.exists():
            problems.append((target, f"no such file: {resolved}"))
    return problems


def dangling_markdown_names(root: Path) -> List[Tuple[Path, str]]:
    """``(file, name)`` for every markdown file named in code that
    exists neither at ``root``, nor under ``root/docs``."""
    problems: List[Tuple[Path, str]] = []
    for top in CODE_DIRS:
        for path in sorted((root / top).glob("**/*.py")):
            names = set(_MD_NAME.findall(path.read_text(encoding="utf-8")))
            for name in sorted(names):
                if not any((base / name).exists() for base in (root, root / "docs")):
                    problems.append((path.relative_to(root), name))
    return problems


def main(argv: List[str]) -> int:
    root = Path(argv[1]).resolve() if len(argv) > 1 else Path.cwd()
    files = iter_doc_files(root)
    if not files:
        print(f"error: no markdown files found under {root}", file=sys.stderr)
        return 2
    failures = 0
    for path in files:
        for target, reason in broken_links(path):
            failures += 1
            print(f"{path.relative_to(root)}: broken link ({target}): {reason}",
                  file=sys.stderr)
    for path, name in dangling_markdown_names(root):
        failures += 1
        print(f"{path}: names {name}, which exists nowhere", file=sys.stderr)
    if failures:
        print(f"{failures} broken link(s) or dangling name(s)", file=sys.stderr)
        return 1
    print(f"checked {len(files)} file(s): all relative links resolve, "
          "and every markdown file named in code exists")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
