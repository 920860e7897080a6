"""Batched tick mode: parity, the park rule, stats and the mega placement.

The batched engine (:mod:`repro.simgrid.batch`) promises *bit-identical*
results to the scalar simulator -- same iteration counts, virtual
makespans, message counts, fault outcomes and solutions -- with only the
engine's event total allowed to differ (one flush event per tick that
parked).  These tests pin that promise across generated seeds, both
worker families (async AIAC and lockstep SISC), the cross-world
mega-run in every grid order, and the ``mega`` sweep placement; and
they pin the park rule itself: what cannot stack never parks, what can
parks only when a sibling can still join it.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Scenario
from repro.api.backends import SimulatedBackend
from repro.api.faults import FaultPlan, MessageDuplication, MessageLoss
from repro.clusters import uniform_cluster
from repro.core.aiac import AIACOptions
from repro.simgrid.batch import ComputeBatcher, run_worlds_batched
from repro.simgrid.comm import CommPolicy
from repro.simgrid.effects import Compute, Iterate
from repro.simgrid.process import ProcessState
from repro.simgrid.world import ProcessFailure, World
from repro.sweep import run_sweep
from repro.sweep.placement import MegaPlacement, PlacementContext
from repro.testing.generator import generate_scenarios
from repro.testing.invariants import work_counters


def _parity_counters(result):
    """Work counters minus the event total (flush events differ)."""
    return {k: v for k, v in work_counters(result).items() if k != "events"}


def _assert_parity(scalar, batched):
    assert _parity_counters(scalar) == _parity_counters(batched)
    assert np.array_equal(scalar.solution(), batched.solution())


def _batched(scenario):
    """One scenario alone under ``run_many``: the in-world batched mode."""
    return SimulatedBackend(trace=False).run_many([scenario])[0]


# ----------------------------------------------------------------------
# in-world parity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
def test_batched_parity_generated_scenarios(seed):
    """Each generator seed's first scenario: batched == scalar bitwise.

    Six seeds cover both problems, async and lockstep environments,
    fault plans and balancing -- the same grid ``repro conformance``
    sweeps.
    """
    scenario = generate_scenarios(1, seed=seed)[0]
    scalar = SimulatedBackend(trace=False).run(scenario)
    batched = _batched(scenario)
    _assert_parity(scalar, batched)


def test_batched_parity_async_chemical():
    scenario = Scenario(
        problem="chemical",
        problem_params={"nx": 8, "nz": 12, "t_end": 360.0},
        environment="pm2",
        n_ranks=3,
    )
    scalar = SimulatedBackend(trace=False).run(scenario)
    batched = _batched(scenario)
    _assert_parity(scalar, batched)


def test_batched_lockstep_stacks_full_width():
    """Lockstep ranks park at the same tick: stacked groups reach
    ``n_ranks`` width and the scalar path is never taken."""
    scenario = Scenario(
        problem="chemical",
        problem_params={"nx": 8, "nz": 12, "t_end": 360.0},
        environment="sync_mpi",
        n_ranks=3,
    )
    scalar = SimulatedBackend(trace=False).run(scenario)
    batched = _batched(scenario)
    _assert_parity(scalar, batched)
    stats = batched.backend_stats["batched"]
    assert stats["max_width"] == 3
    assert stats["parked"] == stats["stacked"] + stats["scalar"]
    assert stats["ticks"] >= 1


def test_batched_scalar_fallback_without_iterate_batch():
    """sparse_linear has no ``iterate_batch``: it can never stack, so it
    never parks -- every iteration runs inline, results unchanged."""
    scenario = Scenario(problem="sparse_linear", environment="sync_mpi", n_ranks=3)
    scalar = SimulatedBackend(trace=False).run(scenario)
    batched = _batched(scenario)
    _assert_parity(scalar, batched)
    stats = batched.backend_stats["batched"]
    assert stats["stacked"] == 0
    assert stats["parked"] == 0
    assert stats["inline"] == batched.total_iterations


# ----------------------------------------------------------------------
# the park rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize("environment", ["sync_mpi", "pm2"])
def test_unstackable_solvers_never_park(environment):
    """A batched sparse run *is* the scalar run, event total included."""
    scenario = Scenario(
        problem="sparse_linear", problem_params={"n": 120},
        environment=environment, n_ranks=3,
    )
    scalar = SimulatedBackend().run(scenario)
    batched = _batched(scenario)
    _assert_parity(scalar, batched)
    stats = batched.backend_stats["batched"]
    assert stats["parked"] == stats["ticks"] == 0
    assert stats["inline"] == batched.total_iterations
    assert batched.backend_stats["events"] == scalar.backend_stats["events"]


def test_unstackable_worlds_finish_in_their_first_pump():
    """Inside ``run_many`` a sparse world never halts for the
    coordinator: no cross-world round is ever evaluated."""
    backend = SimulatedBackend(trace=False)
    scenario = Scenario(problem="sparse_linear", environment="pm2", n_ranks=3)
    worlds = [backend._bind(scenario, None)[0] for _ in range(2)]
    assert run_worlds_batched(worlds) == 0
    reference = backend.run(scenario)
    for world in worlds:
        assert world.finish() == reference.makespan
        assert world.engine.events_processed == reference.backend_stats["events"]


def test_flush_events_are_the_whole_event_difference():
    """An asynchronous chemical world parks only where ranks collide at
    a tick; each flush is one event and nothing else differs."""
    scenario = Scenario(
        problem="chemical",
        problem_params={"nx": 8, "nz": 12, "t_end": 360.0},
        environment="pm2",
        n_ranks=3,
    )
    scalar = SimulatedBackend().run(scenario)
    batched = _batched(scenario)
    _assert_parity(scalar, batched)
    stats = batched.backend_stats["batched"]
    assert (
        batched.backend_stats["events"] - scalar.backend_stats["events"]
        == stats["ticks"]
    )
    assert stats["inline"] > stats["parked"] > 0
    assert stats["parked"] == stats["stacked"] + stats["scalar"]
    assert stats["inline"] + stats["parked"] == batched.total_iterations


@dataclass(frozen=True)
class _ToyIteration:
    """The toy solver's result: its iteration count, costing no flops."""

    k: int
    flops: float = 0.0


class _ToySolver:
    """A stackable stand-in that logs the width of every evaluation."""

    batch_key = ("toy",)

    def __init__(self):
        self.widths = []

    def iterate(self):
        self.widths.append(1)
        return _ToyIteration(len(self.widths))

    @staticmethod
    def iterate_batch(solvers):
        for solver in solvers:
            solver.widths.append(len(solvers))
        return [_ToyIteration(len(solver.widths)) for solver in solvers]


def _toy_world(programs, batched=True):
    """One rank per program on unit-speed hosts (``Compute(f)`` lasts
    exactly ``f`` virtual seconds); returns the world and its solvers."""
    world = World(
        uniform_cluster(n_hosts=len(programs), speed=1.0, latency=1e-3),
        CommPolicy(name="test", send_base=1e-4, recv_base=1e-4),
        trace=False,
    )
    if batched:
        world.compute_batcher = ComputeBatcher(world)
    solvers = [_ToySolver() for _ in programs]
    for program, solver in zip(programs, solvers):
        world.spawn(program(solver))
    return world, solvers


def _compute_then_iterate(flops):
    def program(solver):
        yield Compute(flops)
        return (yield Iterate(solver))

    return program


def test_ranks_arriving_at_the_same_instant_stack():
    world, solvers = _toy_world([_compute_then_iterate(1.0)] * 2)
    world.run()
    assert [s.widths for s in solvers] == [[2], [2]]
    stats = world.compute_batcher.stats
    assert (stats["parked"], stats["stacked"], stats["max_width"]) == (2, 2, 2)
    assert stats["inline"] == 0 and stats["ticks"] == 1


def test_ranks_one_ulp_apart_park_neither():
    later = math.nextafter(1.0, 2.0)
    world, solvers = _toy_world(
        [_compute_then_iterate(1.0), _compute_then_iterate(later)]
    )
    world.run()
    assert [s.widths for s in solvers] == [[1], [1]]
    stats = world.compute_batcher.stats
    assert stats["parked"] == stats["ticks"] == 0
    assert stats["inline"] == 2


def test_two_iterations_at_one_tick_are_served_in_order():
    """A zero-flop iteration and ``Compute`` bring a rank back to
    ``Iterate`` at the tick it was just served at: a second flush
    serves it again."""

    def program(solver):
        first = yield Iterate(solver)
        yield Compute(0.0)
        second = yield Iterate(solver)
        return [first, second]

    world, solvers = _toy_world([program] * 2)
    world.run()
    assert world.results == {r: [_ToyIteration(1), _ToyIteration(2)] for r in (0, 1)}
    assert [s.widths for s in solvers] == [[2, 2], [2, 2]]
    stats = world.compute_batcher.stats
    assert (stats["ticks"], stats["parked"], stats["stacked"]) == (2, 4, 4)
    assert world.engine.now == 0.0
    reference, _ = _toy_world([program] * 2, batched=False)
    reference.run()
    assert reference.results == world.results


class _Boom(RuntimeError):
    pass


@pytest.mark.parametrize("batched", [False, True])
def test_inline_iterate_failure_fails_the_process(batched):
    """Batched mode's inline path is the scalar path: the exception
    belongs to the iterating process and its coroutine stays suspended
    at the ``Iterate`` (nothing is thrown into it)."""

    def program(solver):
        yield Compute(1.0)
        yield Iterate(solver)
        return "unreachable"

    world, solvers = _toy_world([program, _compute_then_iterate(2.0)], batched)

    def boom():
        raise _Boom("poisoned solver")

    solvers[0].iterate = boom
    with pytest.raises(ProcessFailure, match="p0@") as failure:
        world.run()
    assert isinstance(failure.value.__cause__, _Boom)
    proc = world.processes[0]
    assert proc.state is ProcessState.FAILED
    assert isinstance(proc.exception, _Boom)
    assert proc.coroutine.gi_frame is not None  # suspended, not closed
    assert world.engine.now == 1.0  # the sibling never got to run on
    assert solvers[1].widths == []


# ----------------------------------------------------------------------
# cross-world mega-run
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


def test_run_many_matches_run_per_scenario():
    grid_kwargs = dict(
        problem="chemical",
        problem_params={"nx": 8, "nz": 12, "t_end": 360.0},
        environment="sync_mpi",
        n_ranks=4,
    )
    singles = [
        SimulatedBackend(trace=False).run(s) for s in _speed_grid(4, **grid_kwargs)
    ]
    many = SimulatedBackend(trace=False).run_many(
        _speed_grid(4, **grid_kwargs)
    )
    assert len(many) == 4
    for scalar, mega in zip(singles, many):
        _assert_parity(scalar, mega)


def test_run_many_isolates_failures():
    """A failing world must not poison its siblings: the good worlds'
    results are complete before the failure is raised."""
    backend = SimulatedBackend(trace=False)
    good = Scenario(problem="sparse_linear", environment="sync_mpi", n_ranks=2)
    inner = good.build_problem().make_local

    def make_failing(rank, size):
        solver = inner(rank, size)
        calls = {"n": 0}
        original = solver.iterate

        def iterate():
            calls["n"] += 1
            if calls["n"] > 2:
                raise RuntimeError("poisoned solver")
            return original()

        solver.iterate = iterate
        return solver

    worlds = [backend._bind(good, None)[0], backend._bind(good, make_failing)[0]]
    run_worlds_batched(worlds)
    assert worlds[0].finish() == backend.run(good).makespan
    with pytest.raises(ProcessFailure):
        worlds[1].finish()


def _chem(t_end):
    # Two machines of different speeds: asynchronous ranks meet at a
    # tick only a handful of times, everything else is evaluated alone.
    return Scenario(
        problem="chemical",
        problem_params={"nx": 6, "nz": 8, "t_end": t_end},
        environment="pm2",
        n_ranks=2,
        cluster="ethernet_wan",
        cluster_params={"n_sites": 2, "machine_mix": ["duron_800", "p4_2400"]},
    )


@pytest.mark.parametrize("fails_last", [False, True])
def test_run_many_isolates_a_failing_stackable_world(fails_last):
    """A chemical world whose solver raises stays isolated whether it
    fails while its sibling is still live (the sibling then finishes
    in-world) or as the last live world (it fails in-world, inline)."""
    backend = SimulatedBackend(trace=False)
    healthy, doomed = _chem(180.0), _chem(360.0)
    reference = backend.run(healthy)
    doomed_iterations = backend.run(doomed).reports[0].iterations

    # A rank evaluated alone (inline, or as a width-1 group) goes through
    # ``iterate``, so rank 0's own call count decides when the poison
    # fires: at once, or near the end of a run twice as long as the
    # healthy world's.
    fuse = doomed_iterations - 10 if fails_last else 2
    inner = doomed.build_problem().make_local

    def make_failing(rank, size):
        solver = inner(rank, size)
        if rank == 0:
            original, calls = solver.iterate, [0]

            def iterate():
                calls[0] += 1
                if calls[0] > fuse:
                    raise _Boom("poisoned solver")
                return original()

            solver.iterate = iterate
        return solver

    worlds = [
        backend._bind(healthy, None)[0],
        backend._bind(doomed, make_failing)[0],
    ]
    run_worlds_batched(worlds)
    # Whichever world outlived the other was switched to in-world mode.
    assert worlds[1].compute_batcher.external is not fails_last
    assert worlds[0].compute_batcher.external is fails_last
    worlds[0].finish()
    assert worlds[0].makespan == reference.makespan
    assert {
        r: rep.iterations for r, rep in worlds[0].results.items()
    } == {r: rep.iterations for r, rep in reference.reports.items()}
    with pytest.raises(ProcessFailure) as failure:
        worlds[1].finish()
    assert isinstance(failure.value.__cause__, _Boom)
    assert worlds[1].processes[0].coroutine.gi_frame is not None


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
    its reversal, so each world is pumped first, last and in between."""
    if n <= 3:
        return list(itertools.permutations(range(n)))
    rotations = [tuple(range(k, n)) + tuple(range(k)) for k in range(n)]
    return rotations + [order[::-1] for order in rotations]


@settings(max_examples=12, deadline=None, derandomize=True)
@given(grid=st.lists(_grid_points, min_size=1, max_size=6))
def test_run_many_equals_per_scenario_runs_in_every_grid_order(grid):
    """``run_many(grid)`` == ``[run(s) for s in grid]`` member by member
    (counters minus events, solution bytes), whatever the order: which
    world is pumped first and which is left as the last live one must
    not matter."""
    backend = SimulatedBackend(trace=False)
    singles = [backend.run(scenario) for scenario in grid]
    for order in _grid_orders(len(grid)):
        many = backend.run_many([grid[i] for i in order])
        for i, mega in zip(order, many):
            _assert_parity(singles[i], mega)
            stats = mega.backend_stats["batched"]
            assert stats["parked"] == stats["stacked"] + stats["scalar"]
            assert stats["inline"] + stats["parked"] == mega.total_iterations


# ----------------------------------------------------------------------
# mega placement
# ----------------------------------------------------------------------
def _record_essence(record):
    """A record with every wall-clock/batched-only field removed."""
    rec = {k: v for k, v in record.items() if k != "elapsed"}
    stats = {
        k: v
        for k, v in (rec.get("backend_stats") or {}).items()
        if k not in ("events", "batched")
    }
    rec["backend_stats"] = stats
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
    """``run_many`` always builds batched worlds; the placement has no
    flag to force, and its per-unit fallback runs the backend as-is."""
    backend = SimulatedBackend(trace=False)
    placement = MegaPlacement(PlacementContext(backend=backend))
    placement.start()
    assert placement._backend is backend
