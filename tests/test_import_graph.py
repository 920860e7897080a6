"""The import contract: a process of this library loads numpy, stdlib, ``repro``.

Third-party packages beyond numpy are imported inside the function that
needs them (DESIGN.md, "Import graph and start-up budget"), so no entry
point, run or CLI call pays for a library it does not use.  Each case
runs in a clean interpreter and is compared with what numpy alone loads
there, so modules injected by ``.pth`` files or pulled in by numpy
itself do not count.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

TINY_RUN = """
from repro.api import Scenario, {backend}
from repro.core.aiac import AIACOptions
for environment in {environments!r}:
    result = {backend}().run(Scenario(
        problem="sparse_linear",
        problem_params=dict(n=60, sign_structure="random", eps=1e-6),
        environment=environment, cluster="uniform_cluster", n_ranks=2,
        options=AIACOptions(eps=1e-6, max_iterations=300),
    ))
    assert result.reports
"""

CASES = {
    "import_repro_api": "import repro.api",
    "simulated_run_per_environment": TINY_RUN.format(
        backend="SimulatedBackend",
        environments=("sync_mpi", "pm2", "mpimad", "omniorb"),
    ),
    "threaded_run": TINY_RUN.format(
        backend="ThreadedBackend", environments=("pm2",)
    ),
    "cli_help": (
        "import contextlib, io, repro.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.suppress(SystemExit):\n"
        "    repro.cli.main(['--help'])"
    ),
    "import_serve_workers": "import repro.serve.workers",
}


WITHOUT_NETWORKX = """
import sys
sys.modules["networkx"] = None  # what a numpy-only install looks like
""" + TINY_RUN.format(backend="SimulatedBackend", environments=("omniorb",)) + """
from repro.clusters import uniform_cluster
from repro.envs import get_environment, validate_deployment
from repro.linalg.partition import BlockPartition
from repro.linalg.splitting import dependency_graph
from repro.problems import make_sparse_linear_problem
network = uniform_cluster(n_hosts=3)
assert validate_deployment(get_environment("pm2"), network).ok
problem = make_sparse_linear_problem(n=60)
for export in (network.connectivity_graph,
               lambda: dependency_graph(problem.matrix, BlockPartition(60, 3))):
    try:
        export()
    except ImportError as exc:
        assert "repro-aiac[graph]" in str(exc), exc
    else:
        raise AssertionError("graph export worked without networkx")
"""


WALL_CLOCK_RUNS_WITH_FAULTS = """
import sys
from repro.api import FaultPlan, MessageLoss, ProcessBackend, Scenario, ThreadedBackend
from repro.core.aiac import AIACOptions
scenario = Scenario(
    problem="sparse_linear",
    problem_params=dict(n=60, sign_structure="random", eps=1e-6),
    environment="pm2", cluster="uniform_cluster", n_ranks=2,
    options=AIACOptions(eps=1e-6, max_iterations=300),
    faults=FaultPlan(events=(MessageLoss(probability=0.1),), seed=1),
)
for backend in (ThreadedBackend(timeout=60.0), ProcessBackend(timeout=60.0)):
    assert backend.run(scenario).reports
assert "repro.runtime.faults" in sys.modules
print("\\n".join(sorted(name for name in sys.modules if name.startswith("repro.simgrid."))))
"""


def run_clean(code: str) -> str:
    """Stdout of ``code`` in a clean interpreter that sees this checkout's ``src/``."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def top_level_modules(code: str) -> set:
    """Top-level names in ``sys.modules`` after ``code`` ran."""
    report = (
        "\nimport sys\n"
        "print('\\n'.join(sorted({name.split('.')[0] for name in sys.modules})))"
    )
    return set(run_clean(code + report).split())


@pytest.fixture(scope="module")
def allowed() -> set:
    # numpy.random is lazy in numpy 2 and brings the Cython runtime's
    # modules; multiprocessing aliases __main__ as __mp_main__.
    numpy_alone = top_level_modules("import numpy, numpy.random")
    return numpy_alone | sys.stdlib_module_names | {"repro", "__mp_main__"}


needs_stdlib_module_names = pytest.mark.skipif(
    sys.version_info < (3, 10), reason="needs sys.stdlib_module_names"
)


@needs_stdlib_module_names
@pytest.mark.parametrize("case", CASES)
def test_only_numpy_stdlib_and_repro_are_loaded(case, allowed):
    loaded = top_level_modules(CASES[case])
    assert "repro" in loaded
    assert sorted(loaded - allowed) == []


def test_runs_and_deployment_checks_work_without_networkx():
    run_clean(WITHOUT_NETWORKX)


def test_wall_clock_runs_load_only_the_cluster_topology_of_the_simulator():
    """The effect vocabulary, the trace record and the fault rule live
    outside :mod:`repro.simgrid`; a threaded or process run (fault
    injector included) needs the simulator's hosts, links and network
    to build its cluster, and nothing else of it."""
    loaded = run_clean(WALL_CLOCK_RUNS_WITH_FAULTS).split()
    assert loaded == ["repro.simgrid.host", "repro.simgrid.link", "repro.simgrid.network"]


def test_importing_the_api_loads_no_simulator_machinery():
    loaded = run_clean(
        "import sys, repro.api\n"
        "print('\\n'.join(sorted(sys.modules)))"
    ).split()
    machinery = {f"repro.simgrid.{name}"
                 for name in ("engine", "world", "process", "comm", "faults")}
    assert sorted(machinery.intersection(loaded)) == []
