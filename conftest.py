"""Repository-level pytest configuration.

Everything under ``benchmarks/`` is tagged with the ``benchmark``
marker so environments without the paper-scale time budget (CI, quick
local loops) can exclude it with ``-m "not benchmark"``; a plain
``pytest`` run still collects the full suite.

Every test starts with no problem instance held by
``Scenario.build_problem``, so no outcome depends on which test ran
before it.
"""

import multiprocessing
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "benchmark: paper-scale benchmark (excluded in CI via -m 'not benchmark')",
    )


def pytest_collection_modifyitems(config, items):
    for item in items:
        try:
            relative = Path(str(item.fspath)).resolve().relative_to(_ROOT)
        except ValueError:
            continue
        if relative.parts and relative.parts[0] == "benchmarks":
            item.add_marker(pytest.mark.benchmark)


@pytest.fixture(autouse=True)
def _empty_problem_slot():
    scenario = sys.modules.get("repro.api.scenario")
    if scenario is not None:
        scenario._LAST_BUILT = None


@pytest.fixture
def start_method():
    """Set the process-wide ``multiprocessing`` start method for one test.

    Call the fixture with ``"fork"`` or ``"spawn"``: the process backend
    and the worker pool start their children with whatever method is in
    force.  The method in force before the test, ``None`` (the platform
    default) included, is restored after it.
    """
    previous = multiprocessing.get_start_method(allow_none=True)
    yield lambda method: multiprocessing.set_start_method(method, force=True)
    multiprocessing.set_start_method(previous, force=True)
