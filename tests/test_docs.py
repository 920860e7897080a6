"""Documentation invariants: link integrity, docs/CLI agreement."""

import ast
import importlib.util
import re
import shlex
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_doc_tree_exists():
    for page in ("quickstart.md", "scenarios.md", "backends.md",
                 "benchmarking.md"):
        assert (REPO_ROOT / "docs" / page).is_file(), page
    assert (REPO_ROOT / "README.md").is_file()


def test_no_broken_relative_links():
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "check_doc_links.py"),
         str(REPO_ROOT)],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr


def test_markdown_files_named_in_code_exist():
    """Every ``.md`` file a module, test, tool or example cites exists."""
    spec = importlib.util.spec_from_file_location(
        "check_doc_links", REPO_ROOT / "tools" / "check_doc_links.py")
    check = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check)
    assert check.dangling_markdown_names(REPO_ROOT) == []


def test_help_matches_documented_surface(capsys):
    """``repro --help``/``repro sweep --help`` advertise what docs teach."""
    from repro.cli import build_parser

    parser = build_parser()
    help_text = parser.format_help()
    for subcommand in ("list", "run", "sweep"):
        assert subcommand in help_text
    sweep_help = None
    for action in parser._subparsers._group_actions:  # noqa: SLF001
        sweep_help = action.choices["sweep"].format_help()
    assert sweep_help is not None
    guide = (REPO_ROOT / "docs" / "sweeping.md").read_text()
    for option in ("--placement", "--state-dir", "--resume", "--retries",
                   "--timeout", "--report"):
        assert option in sweep_help and option in guide
    assert "docs/sweeping.md" in sweep_help


#: ``repro ARGS`` or ``python -m repro.cli ARGS`` at the start of a line,
#: after an optional ``$`` prompt and ``VAR=value`` assignments.
COMMAND_LINE = re.compile(
    r"^\s*(?:\$\s+)?(?:\w+=\S*\s+)*(?:repro|python3? -m repro\.cli)\s+(.*)$")


def _documented_command_lines():
    """``(where, argv)`` for every ``repro`` command line the docs teach:
    README, ``docs/``, the ``.claude/skills/`` notes and ``examples/*.py``
    docstrings, with backslash continuations joined."""
    texts = [
        (path, path.read_text(encoding="utf-8"))
        for path in [REPO_ROOT / "README.md",
                     *sorted((REPO_ROOT / "docs").glob("*.md")),
                     *sorted((REPO_ROOT / ".claude").glob("skills/*/*.md"))]
    ]
    for path in sorted((REPO_ROOT / "examples").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        texts.append((path, ast.get_docstring(tree) or ""))
    for path, text in texts:
        for line in re.sub(r"\\\n\s*", " ", text).splitlines():
            match = COMMAND_LINE.match(line)
            # Usage synopses ([--opt], (a | b)) and arrow diagrams are
            # grammar, not command lines.
            if match is None or re.search(r"[\[\](){}]|[^\x00-\x7f]",
                                          match.group(1)):
                continue
            argv = shlex.split(match.group(1), comments=True)
            for i, token in enumerate(argv):
                if token.startswith(tuple("|&;<>")):  # the shell's from here
                    argv = argv[:i]
                    break
            yield f"{path.relative_to(REPO_ROOT)}: {line.strip()}", argv


def test_documented_command_lines_parse(capsys):
    """Every ``repro`` command line in the docs parses: a removed verb
    or option cannot linger in a guide."""
    from repro.cli import build_parser

    parser = build_parser()
    lines = list(_documented_command_lines())
    assert len(lines) >= 20
    rejected = []
    for where, argv in lines:
        try:
            parser.parse_args(argv)
        except SystemExit:
            rejected.append(f"{where}\n    {capsys.readouterr().err.strip()}")
    assert rejected == [], "\n".join(rejected)
