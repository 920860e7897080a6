"""Documentation invariants: link integrity, docs/CLI agreement."""

import importlib.util
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
