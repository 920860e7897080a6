"""The ``local`` placement's solve memo: grid parity and failure isolation.

A ``local`` sweep on the simulated backend runs its units one after
another, the chemical solvers of all their worlds sharing one
:class:`~repro.problems.chemical.SolveMemo`, and promises records
*bit-identical* to ``run()`` of each scenario -- iteration counts,
virtual makespans, message and event counts, fault outcomes and
solutions.  These tests pin that promise across generated seeds, both
worker families (async AIAC and lockstep SISC), grids in both orders
(so the memo is filled by a different world each time), failing
worlds, the ``mega`` name of the placement, and the process boundary a
memo must never cross.
"""

import pickle
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Scenario
from repro.api.backends import ProcessBackend, SimulatedBackend
from repro.api.faults import FaultPlan, MessageDuplication, MessageLoss
from repro.clusters import uniform_cluster
from repro.core.aiac import AIACOptions
from repro.core.effects import Iterate
from repro.envs.base import CommPolicy
from repro.problems import chemical
from repro.simgrid.process import ProcessState
from repro.simgrid.world import ProcessFailure, World
from repro.sweep import run_sweep
from repro.sweep import executor as sweep_executor
from repro.sweep.placement import LocalPlacement
from repro.testing.generator import generate_scenarios


def _essence(record):
    """A record with every wall-clock field and the sweep index removed."""
    rec = {k: v for k, v in record.items() if k not in ("elapsed", "index")}
    rec["reports"] = [
        {k: v for k, v in rep.items() if k != "elapsed"}
        for rep in rec.get("reports", [])
    ]
    return rec


def _assert_parity(scenario, record):
    """A swept ``record`` equals ``run()`` of ``scenario`` (no memo) in
    every field but wall time: work counters, events, makespan, faults
    and solution bytes."""
    single = SimulatedBackend().run(scenario).to_record(include_solution=True)
    assert "error" not in record, record["error"]
    assert _essence(record) == _essence(single)


def _swept(scenarios, placement="local"):
    """The records of one sweep of ``scenarios``: one shared memo."""
    return run_sweep(scenarios, placement=placement, include_solution=True).records


@pytest.fixture
def memos(monkeypatch):
    """Every memo a ``local`` placement builds while the test runs, in order."""
    built = []

    class Recorded(chemical.SolveMemo):
        def __init__(self):
            super().__init__()
            built.append(self)

    monkeypatch.setattr(chemical, "SolveMemo", Recorded)
    return built


# ----------------------------------------------------------------------
# one world under a memo
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
def test_batched_parity_generated_scenarios(seed):
    """Each generator seed's first scenario: its ``local`` sweep record
    == ``run()`` bitwise, event total included.

    Six seeds cover both problems, async and lockstep environments,
    fault plans and balancing -- the same grid ``repro conformance``
    sweeps.
    """
    scenario = generate_scenarios(1, seed=seed)[0]
    _assert_parity(scenario, *_swept([scenario]))


def test_batched_parity_async_chemical(memos):
    """Asynchronous ranks repeat solves inside one world too (a rank
    spinning on unchanged inputs): those hit the memo, bit-identically."""
    scenario = Scenario(
        problem="chemical",
        problem_params={"nx": 8, "nz": 12, "t_end": 360.0},
        environment="pm2",
        n_ranks=3,
    )
    _assert_parity(scenario, *_swept([scenario]))
    (memo,) = memos
    assert memo.hits > 0


def work(flops):
    """An ``Iterate`` over a stub solver whose iteration costs ``flops``."""
    done = SimpleNamespace(flops=flops)
    return Iterate(SimpleNamespace(iterate=lambda: done))


class _Boom(RuntimeError):
    pass


class _CountingSolver:
    """Counts its iterates; each costs no flops."""

    def __init__(self):
        self.calls = 0

    def iterate(self):
        self.calls += 1
        return SimpleNamespace(flops=0.0)


@pytest.mark.parametrize("poisoned_first", [False, True])
def test_inline_iterate_failure_fails_the_process(poisoned_first):
    """An exception from ``solver.iterate()`` belongs to the iterating
    process: it fails, its coroutine stays suspended at the ``Iterate``
    (nothing is thrown into it) and the run stops at that tick --
    whether the poisoned rank iterates first (t = 1) or after its
    sibling (t = 2)."""

    def program(seconds, solver):
        yield work(seconds)  # unit-speed hosts: flops are seconds
        yield Iterate(solver)
        return "unreachable for the poisoned rank"

    world = World(
        uniform_cluster(n_hosts=2, speed=1.0, latency=1e-3),
        CommPolicy(name="test", send_base=1e-4, recv_base=1e-4),
        trace=False,
    )
    solvers = [_CountingSolver(), _CountingSolver()]
    for rank, solver in enumerate(solvers):
        world.spawn(program(1.0 + rank, solver))
    poisoned = 0 if poisoned_first else 1

    def boom():
        raise _Boom("poisoned solver")

    solvers[poisoned].iterate = boom
    with pytest.raises(ProcessFailure, match=f"p{poisoned}@") as failure:
        world.run()
    assert isinstance(failure.value.__cause__, _Boom)
    proc = world.processes[poisoned]
    assert proc.state is ProcessState.FAILED
    assert isinstance(proc.exception, _Boom)
    assert proc.coroutine.gi_frame is not None  # suspended, not closed
    assert world.engine.now == 1.0 + poisoned
    assert solvers[1 - poisoned].calls == poisoned


# ----------------------------------------------------------------------
# grids
# ----------------------------------------------------------------------
_LOCKSTEP_CHEMICAL = dict(
    problem="chemical",
    problem_params={"nx": 8, "nz": 12, "t_end": 360.0},
    environment="sync_mpi",
    n_ranks=4,
)


def _speed_grid(n, **scenario_kwargs):
    return [
        Scenario(
            cluster="local_cluster",
            cluster_params={"speed_scale": 0.8 + 0.05 * i, "n_hosts": 4},
            **scenario_kwargs,
        )
        for i in range(n)
    ]


def test_run_many_matches_run_per_scenario(memos):
    """A lock-step grid advances one trajectory on four speeds: the
    first world fills the sweep's memo and the other three only read
    it, and every record is still its scenario's own ``run()``."""
    grid = _speed_grid(4, **_LOCKSTEP_CHEMICAL)
    records = _swept(grid)
    (memo,) = memos
    assert len(memo._entries) > 0 and memo.hits >= 3 * len(memo._entries)
    for scenario, record in zip(grid, records):
        _assert_parity(scenario, record)


def test_local_chemical_cluster_sweep_shares_solves(memos):
    """A chemical sweep over cluster latencies shares its Newton solves
    through one memo per sweep: a second sweep of the same grid starts
    from an empty memo of its own, and solves the same updates again."""
    grid = [
        Scenario(
            problem="chemical",
            problem_params={"nx": 6, "nz": 8, "t_end": 360.0},
            environment="sync_mpi",
            n_ranks=2,
            cluster="uniform_cluster",
            cluster_params={"latency": latency},
        )
        for latency in (1e-4, 1e-3, 1e-2)
    ]
    first = _swept(grid)
    second = _swept(grid)
    assert len(memos) == 2
    for memo in memos:
        assert len(memo._entries) > 0 and memo.hits >= 2 * len(memo._entries)
    assert len(memos[0]._entries) == len(memos[1]._entries) and memos[0].hits == memos[1].hits
    assert [_essence(r) for r in first] == [_essence(r) for r in second]


def _poison_world(monkeypatch, scenario, index, after=2):
    """Make the ``index``-th world built on ``scenario``'s problem
    (counted by rank 0, so in sweep order) have rank 0 raise on its
    ``after + 1``-th iterate: the shared problem instance's
    ``make_local`` is patched for the test."""
    problem = scenario.build_problem()
    build, worlds = problem.make_local, [-1]

    def make_local(rank, size):
        solver = build(rank, size)
        if rank == 0:
            worlds[0] += 1
            if worlds[0] == index:
                original, calls = solver.iterate, [0]

                def iterate():
                    calls[0] += 1
                    if calls[0] > after:
                        raise _Boom("poisoned solver")
                    return original()

                solver.iterate = iterate
        return solver

    monkeypatch.setattr(problem, "make_local", make_local)


def _assert_poisoned(record):
    assert record["error"].startswith("ProcessFailure")
    assert "_Boom: poisoned solver" in record["traceback"]


def test_run_many_isolates_failures(monkeypatch):
    """A failing world must not poison its siblings: the unit after it
    still runs to completion, and each settles on its own."""
    good = Scenario(problem="sparse_linear", environment="sync_mpi", n_ranks=2)
    other = good.derive(seed=1)
    _poison_world(monkeypatch, good, 0)
    poisoned, healthy = _swept([good, other])
    _assert_poisoned(poisoned)
    _assert_parity(other, healthy)


@pytest.mark.parametrize("fails_last", [False, True])
def test_run_many_isolates_a_failing_stackable_world(monkeypatch, fails_last):
    """Two units of one asynchronous chemical run share the memo.  The
    one whose rank 0 raises runs first (failing at once, after filling
    the memo with its first solves) or last (failing near its end,
    after reading the healthy world's entries).  Either way the healthy
    unit equals its own run."""
    # Two machines of different speeds: asynchronous ranks.
    scenario = Scenario(
        problem="chemical",
        problem_params={"nx": 6, "nz": 8, "t_end": 180.0},
        environment="pm2",
        n_ranks=2,
        cluster="ethernet_wan",
        cluster_params={"n_sites": 2, "machine_mix": ["duron_800", "p4_2400"]},
    )
    twin = scenario.derive(seed=1)  # the same run as a distinct unit
    reference = SimulatedBackend().run(scenario)
    fuse = reference.reports[0].iterations - 10 if fails_last else 2
    _poison_world(monkeypatch, scenario, int(fails_last), fuse)
    units = [scenario, twin]
    records = _swept(units)
    _assert_poisoned(records[int(fails_last)])
    monkeypatch.undo()
    _assert_parity(units[1 - int(fails_last)], records[1 - int(fails_last)])


_FAULTS = FaultPlan(
    events=(MessageLoss(probability=0.15), MessageDuplication(probability=0.1)),
    seed=5,
)

def _grid_point(chemical, environment, n_ranks, size, faulty):
    # Slow hosts keep an iteration longer than a message (the regime the
    # conformance generator calibrates to); the iteration cap bounds the
    # few shapes that would otherwise spin -- parity holds capped or not.
    return Scenario(
        problem="chemical" if chemical else "sparse_linear",
        problem_params=(
            {"nx": 4, "nz": 8, "t_end": 180.0 * (1 + size)}
            if chemical else {"n": 60 + 20 * size}
        ),
        environment=environment,
        n_ranks=n_ranks,
        cluster="uniform_cluster",
        cluster_params={"speed": (2e6 if chemical else 2e5) * (1 + 0.25 * size)},
        options=AIACOptions(max_iterations=300),
        faults=_FAULTS if faulty else None,
        seed=size,
    )


_grid_points = st.builds(
    _grid_point,
    chemical=st.booleans(),
    environment=st.sampled_from(["sync_mpi", "pm2", "mpimad", "omniorb"]),
    n_ranks=st.integers(1, 4),
    size=st.integers(0, 2),
    faulty=st.booleans(),
)


@settings(max_examples=6, deadline=None, derandomize=True)
@given(grid=st.lists(_grid_points, min_size=1, max_size=4))
def test_run_many_equals_per_scenario_runs_in_every_grid_order(grid):
    """Memo on == memo off: a ``local`` sweep of ``grid``, forwards and
    backwards, gives each member its own ``run()`` record (every work
    counter, solution bytes).  Which world fills the memo and which
    reads it must not matter."""
    singles = [
        SimulatedBackend().run(s).to_record(include_solution=True) for s in grid
    ]
    for order in (list(range(len(grid))), list(reversed(range(len(grid))))):
        records = _swept([grid[i] for i in order])
        for i, record in zip(order, records):
            assert _essence(record) == _essence(singles[i])


# ----------------------------------------------------------------------
# the process boundary
# ----------------------------------------------------------------------
def test_a_memo_never_crosses_a_process_boundary(monkeypatch, start_method):
    """A pickled solver carries no memo, and neither the ``pool``
    placement nor the ``process`` backend builds one: with the memo's
    constructor poisoned (forked children inherit it) both still run,
    while a ``local`` sweep -- the control -- raises."""
    solver = chemical.make_chemical_problem(nx=6, nz=8, t_end=180.0).make_local(0, 2)
    solver.memo = chemical.SolveMemo()
    assert pickle.loads(pickle.dumps(solver)).memo is None

    def refuse(self):
        raise _Boom("a memo was built")

    monkeypatch.setattr(chemical.SolveMemo, "__init__", refuse)
    start_method("fork")
    points = [
        dict(
            problem="chemical",
            problem_params={"nx": 6, "nz": 8, "t_end": 180.0},
            environment="pm2",
            n_ranks=2,
            seed=seed,
        )
        for seed in (0, 1)
    ]
    with pytest.raises(_Boom):
        run_sweep(points, placement="local")
    # Two distinct units: a pool sweep of one unit runs it locally.
    pooled = run_sweep(points, placement="pool", processes=1, timeout=60.0)
    assert not pooled.errors and all(r["converged"] for r in pooled.records)
    result = ProcessBackend(timeout=60.0).run(Scenario.from_dict(points[0]))
    assert result.converged


# ----------------------------------------------------------------------
# the placement
# ----------------------------------------------------------------------
def test_mega_placement_records_match_local():
    """``mega`` -- the name the benchmark's grid sweep uses -- is the
    ``local`` placement: its records are each scenario's ``run()``."""
    grid = _speed_grid(4, **_LOCKSTEP_CHEMICAL)
    mega = run_sweep(grid, placement="mega", include_solution=True)
    assert mega.counters["executed"] == 4
    assert not mega.errors
    for scenario, record in zip(grid, mega.records):
        _assert_parity(scenario, record)


def test_mega_placement_attributes_failures_per_unit():
    """A unit that fails settles as *its* error; the healthy units
    still settle done."""
    good = dict(problem="sparse_linear", environment="sync_mpi", n_ranks=2)
    # Valid at validation time, fails inside the backend: more ranks
    # than hosts is only detected when the world is built.
    bad = dict(
        problem="sparse_linear",
        environment="sync_mpi",
        n_ranks=6,
        cluster_params={"n_hosts": 2},
    )
    outcome = run_sweep([good, bad], placement="local")
    assert "error" not in outcome.records[0]
    assert "error" in outcome.records[1]
    assert "hosts" in outcome.records[1]["error"]


def test_mega_placement_keeps_the_backend_it_was_given(monkeypatch):
    """``mega`` is a second name of ``local``, which runs the backend
    it was given as-is and builds a memo only for a simulated one."""
    backend = SimulatedBackend()
    placement = LocalPlacement(backend)
    assert placement._backend is backend
    assert isinstance(placement._memo, chemical.SolveMemo)
    assert LocalPlacement("threaded")._memo is None

    built = []

    class Recorded(LocalPlacement):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(sweep_executor, "LocalPlacement", Recorded)
    outcome = run_sweep([Scenario(problem="sparse_linear", n_ranks=2)],
                        backend=backend, placement="mega")
    assert not outcome.errors
    assert [p._backend for p in built] == [backend]
