"""``run_many`` and its solve memo: grid parity and the ``mega`` placement.

``SimulatedBackend.run_many`` runs its scenarios one after another, the
chemical solvers of all its worlds sharing one
:class:`~repro.problems.chemical.SolveMemo`, and promises results
*bit-identical* to ``run()`` of each scenario -- iteration counts,
virtual makespans, message and event counts, fault outcomes and
solutions.  These tests pin that promise across generated seeds, both
worker families (async AIAC and lockstep SISC), grids in every order
(so the memo is filled by a different world each time), failing
worlds, the ``mega`` sweep placement, and the process boundary a memo
must never cross.
"""

import itertools
import pickle
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Scenario
from repro.api.backends import ProcessBackend, SimulatedBackend
from repro.api.faults import FaultPlan, MessageDuplication, MessageLoss
from repro.clusters import uniform_cluster
from repro.core.aiac import AIACOptions
from repro.core.effects import Compute, Iterate
from repro.envs.base import CommPolicy
from repro.problems import chemical
from repro.simgrid.process import ProcessState
from repro.simgrid.world import ProcessFailure, World
from repro.sweep import run_sweep
from repro.sweep.placement import MegaPlacement, PlacementContext
from repro.testing.generator import generate_scenarios
from repro.testing.invariants import work_counters


def _assert_parity(single, many):
    assert work_counters(single) == work_counters(many)
    assert np.array_equal(single.solution(), many.solution())


@pytest.fixture
def memos(monkeypatch):
    """Every memo ``run_many`` builds while the test runs, in order."""
    built = []

    class Recorded(chemical.SolveMemo):
        def __init__(self):
            super().__init__()
            built.append(self)

    monkeypatch.setattr(chemical, "SolveMemo", Recorded)
    return built


def _alone(scenario):
    """One scenario under ``run_many``: its world has the memo to itself."""
    return SimulatedBackend().run_many([scenario])[0]


# ----------------------------------------------------------------------
# one world under run_many
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
def test_batched_parity_generated_scenarios(seed):
    """Each generator seed's first scenario: ``run_many`` == ``run``
    bitwise, event total included.

    Six seeds cover both problems, async and lockstep environments,
    fault plans and balancing -- the same grid ``repro conformance``
    sweeps.
    """
    scenario = generate_scenarios(1, seed=seed)[0]
    _assert_parity(SimulatedBackend().run(scenario), _alone(scenario))


def test_batched_parity_async_chemical(memos):
    """Asynchronous ranks repeat solves inside one world too (a rank
    spinning on unchanged inputs): those hit the memo, bit-identically."""
    scenario = Scenario(
        problem="chemical",
        problem_params={"nx": 8, "nz": 12, "t_end": 360.0},
        environment="pm2",
        n_ranks=3,
    )
    single = SimulatedBackend().run(scenario)
    _assert_parity(single, _alone(scenario))
    (memo,) = memos
    assert memo.hits > 0


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
        yield Compute(seconds)  # unit-speed hosts: flops are seconds
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
    first world fills the memo and the other three only read it."""
    grid_kwargs = dict(
        problem="chemical",
        problem_params={"nx": 8, "nz": 12, "t_end": 360.0},
        environment="sync_mpi",
        n_ranks=4,
    )
    singles = [
        SimulatedBackend().run(s) for s in _speed_grid(4, **grid_kwargs)
    ]
    many = SimulatedBackend().run_many(_speed_grid(4, **grid_kwargs))
    assert len(many) == 4
    for single, mega in zip(singles, many):
        _assert_parity(single, mega)
    (memo,) = memos
    assert len(memo) > 0 and memo.hits >= 3 * len(memo)


class _Recording(SimulatedBackend):
    """A simulated backend that keeps every result ``run_many`` built,
    so a test can inspect the healthy worlds of a run that raised."""

    def __init__(self):
        super().__init__()
        self.wrapped = []

    def _wrap(self, scenario, world, injector, started):
        result = super()._wrap(scenario, world, injector, started)
        self.wrapped.append(result)
        return result


def _poison_world(problem, index, after=2):
    """A ``make_solver`` over ``problem`` whose ``index``-th world
    (``run_many`` builds them in order, rank 0 first) has rank 0 raise
    on its ``after + 1``-th iterate."""
    worlds = [-1]

    def make_solver(rank, size):
        solver = problem.make_local(rank, size)
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

    return make_solver


def test_run_many_isolates_failures():
    """A failing world must not poison its siblings: the worlds after
    it still run to completion before the failure is raised."""
    good = Scenario(problem="sparse_linear", environment="sync_mpi", n_ranks=2)
    backend = _Recording()
    with pytest.raises(ProcessFailure) as failure:
        backend.run_many(
            [good, good], make_solver=_poison_world(good.build_problem(), 0)
        )
    assert isinstance(failure.value.__cause__, _Boom)
    (healthy,) = backend.wrapped
    assert healthy.makespan == SimulatedBackend().run(good).makespan


@pytest.mark.parametrize("fails_last", [False, True])
def test_run_many_isolates_a_failing_stackable_world(fails_last):
    """Two worlds of one asynchronous chemical scenario share the memo.
    The one whose rank 0 raises runs first (failing at once, after
    filling the memo with its first solves) or last (failing near its
    end, after reading the healthy world's entries).  Either way the
    healthy world equals its own run."""
    # Two machines of different speeds: asynchronous ranks.
    scenario = Scenario(
        problem="chemical",
        problem_params={"nx": 6, "nz": 8, "t_end": 180.0},
        environment="pm2",
        n_ranks=2,
        cluster="ethernet_wan",
        cluster_params={"n_sites": 2, "machine_mix": ["duron_800", "p4_2400"]},
    )
    reference = SimulatedBackend().run(scenario)
    fuse = reference.reports[0].iterations - 10 if fails_last else 2
    poisoned = _poison_world(scenario.build_problem(), int(fails_last), fuse)
    backend = _Recording()
    with pytest.raises(ProcessFailure) as failure:
        backend.run_many([scenario, scenario], make_solver=poisoned)
    assert isinstance(failure.value.__cause__, _Boom)
    (healthy,) = backend.wrapped
    _assert_parity(reference, healthy)


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


def _grid_orders(n):
    """Every order of a small grid; for a larger one every rotation and
    its reversal, so each world runs first, last and in between."""
    if n <= 3:
        return list(itertools.permutations(range(n)))
    rotations = [tuple(range(k, n)) + tuple(range(k)) for k in range(n)]
    return rotations + [order[::-1] for order in rotations]


@settings(max_examples=12, deadline=None, derandomize=True)
@given(grid=st.lists(_grid_points, min_size=1, max_size=6))
def test_run_many_equals_per_scenario_runs_in_every_grid_order(grid):
    """``run_many(grid)`` == ``[run(s) for s in grid]`` member by member
    (every work counter, solution bytes), whatever the order: which
    world fills the memo and which reads it must not matter."""
    backend = SimulatedBackend()
    singles = [backend.run(scenario) for scenario in grid]
    for order in _grid_orders(len(grid)):
        many = backend.run_many([grid[i] for i in order])
        for i, mega in zip(order, many):
            _assert_parity(singles[i], mega)


# ----------------------------------------------------------------------
# the process boundary
# ----------------------------------------------------------------------
def test_a_memo_never_crosses_a_process_boundary(monkeypatch):
    """A pickled solver carries no memo, and neither the ``pool``
    placement nor the ``process`` backend builds one: with the memo's
    constructor poisoned (forked children inherit it) both still run,
    while ``run_many`` -- the control -- raises."""
    solver = chemical.make_chemical_problem(nx=6, nz=8, t_end=180.0).make_local(0, 2)
    solver.memo = chemical.SolveMemo()
    assert pickle.loads(pickle.dumps(solver)).memo is None

    def refuse(self):
        raise _Boom("a memo was built")

    monkeypatch.setattr(chemical.SolveMemo, "__init__", refuse)
    point = dict(
        problem="chemical",
        problem_params={"nx": 6, "nz": 8, "t_end": 180.0},
        environment="pm2",
        n_ranks=2,
    )
    with pytest.raises(_Boom):
        SimulatedBackend().run_many([Scenario.from_dict(point)])
    pooled = run_sweep([point], placement="pool", processes=1, timeout=60.0)
    assert not pooled.errors and pooled.records[0]["converged"]
    result = ProcessBackend(timeout=60.0, start_method="fork").run(
        Scenario.from_dict(point)
    )
    assert result.converged


# ----------------------------------------------------------------------
# mega placement
# ----------------------------------------------------------------------
def _record_essence(record):
    """A record with every wall-clock field removed."""
    rec = {k: v for k, v in record.items() if k != "elapsed"}
    rec["reports"] = [
        {k: v for k, v in rep.items() if k != "elapsed"}
        for rep in rec.get("reports", [])
    ]
    return rec


def test_mega_placement_records_match_local():
    grid = [
        dict(
            problem="chemical",
            problem_params={"nx": 8, "nz": 12, "t_end": 360.0},
            environment="sync_mpi",
            n_ranks=4,
            cluster="local_cluster",
            cluster_params={"speed_scale": 0.8 + 0.05 * i, "n_hosts": 4},
        )
        for i in range(4)
    ]
    local = run_sweep(grid, placement="local", include_solution=True)
    mega = run_sweep(grid, placement="mega", include_solution=True)
    assert mega.counters["executed"] == 4
    assert not mega.errors
    for a, b in zip(local.records, mega.records):
        assert _record_essence(a) == _record_essence(b)


def test_mega_placement_attributes_failures_per_unit():
    """A unit that breaks the whole batch settles as *its* error; the
    healthy units still settle done through the per-unit fallback."""
    good = dict(problem="sparse_linear", environment="sync_mpi", n_ranks=2)
    # Valid at validation time, fails inside the backend: more ranks
    # than hosts is only detected when the world is built.
    bad = dict(
        problem="sparse_linear",
        environment="sync_mpi",
        n_ranks=6,
        cluster_params={"n_hosts": 2},
    )
    outcome = run_sweep([good, bad], placement="mega")
    assert "error" not in outcome.records[0]
    assert "error" in outcome.records[1]
    assert "hosts" in outcome.records[1]["error"]


def test_mega_placement_refuses_non_simulated_backends():
    placement = MegaPlacement(PlacementContext(backend="threaded"))
    with pytest.raises(ValueError, match="run_many"):
        placement.start()


def test_mega_placement_keeps_the_backend_it_was_given():
    """The placement has no flag to force, and its per-unit fallback
    runs the backend as-is."""
    backend = SimulatedBackend()
    placement = MegaPlacement(PlacementContext(backend=backend))
    placement.start()
    assert placement._backend is backend
