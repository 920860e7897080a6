"""Tests for the speed-proportional load-balancing extension."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Scenario, SimulatedBackend
from repro.core.aiac import AIACOptions
from repro.linalg.partition import BlockPartition
from repro.problems.sparse_linear import (
    MigratableSparseLinearLocal,
    SparseLinearConfig,
    SparseLinearProblem,
    balanced_local_factory,
)


def _sizes(part):
    return [hi - lo for lo, hi in part]


# ----------------------------------------------------------------------
# speed-weighted partition
# ----------------------------------------------------------------------
def test_weighted_partition_proportional_sizes():
    assert _sizes(BlockPartition.weighted(100, [1.0, 2.0, 1.0])) == [25, 50, 25]


def test_weighted_partition_covers_range_contiguously():
    part = BlockPartition.weighted(37, [3.0, 1.0, 2.0, 5.0])
    cursor = 0
    for b in range(part.m):
        lo, hi = part.bounds(b)
        assert lo == cursor and hi > lo
        cursor = hi
    assert cursor == 37


def test_weighted_partition_minimum_one_element():
    assert _sizes(BlockPartition.weighted(5, [1000.0, 1.0, 1.0])) == [3, 1, 1]


def test_weighted_partition_equal_weights_match_block_partition():
    for n, m in ((22, 4), (7, 7), (100, 3)):
        assert list(BlockPartition.weighted(n, [2.5] * m)) == list(BlockPartition(n, m))


def test_weighted_partition_validation():
    for weights, n, message in (
        ([], 10, "at least one weight"),
        ([1.0, -1.0], 10, "positive"),
        ([1.0, 1.0, 1.0], 2, "more blocks"),
        ([1.0], 0, r"more blocks \(1\) than elements \(0\)"),
    ):
        with pytest.raises(ValueError, match=message):
            BlockPartition.weighted(n, weights)
    part = BlockPartition.weighted(10, [1.0, 3.0])
    for block in (-1, 2):
        with pytest.raises(IndexError):
            part.bounds(block)


@given(
    n=st.integers(1, 300),
    weights=st.lists(st.floats(0.1, 10.0), min_size=1, max_size=5),
)
@settings(max_examples=60, deadline=None)
def test_weighted_partition_properties(n, weights):
    weights = weights[:n]
    sizes = _sizes(BlockPartition.weighted(n, weights))
    assert sum(sizes) == n and all(s >= 1 for s in sizes)
    # Proportionality within rounding: |size - ideal| <= m + 1.
    for size, w in zip(sizes, weights):
        assert abs(size - n * w / sum(weights)) <= len(weights) + 1
    # Equal weights give exactly the uniform bounds.
    m = len(weights)
    assert list(BlockPartition.weighted(n, [weights[0]] * m)) == list(BlockPartition(n, m))


# ----------------------------------------------------------------------
# uniform partition: empty trailing blocks and bad shapes
# ----------------------------------------------------------------------
def test_block_partition_allows_more_blocks_than_elements():
    part = BlockPartition(3, 5)
    assert list(part) == [(0, 1), (1, 2), (2, 3), (3, 3), (3, 3)]
    assert part.bounds(3) == (3, 3) and part.bounds(4) == (3, 3)


def test_block_partition_still_rejects_bad_shapes():
    for n, m in ((-1, 2), (5, 0)):
        with pytest.raises(ValueError):
            BlockPartition(n, m)


# ----------------------------------------------------------------------
# balanced runs
# ----------------------------------------------------------------------
PROBLEM_PARAMS = dict(n=600, dominance=0.8, eps=1e-6)
PROBLEM = SparseLinearProblem(SparseLinearConfig(**PROBLEM_PARAMS))


def test_balanced_factory_produces_consistent_locals():
    speeds = [1.0, 2.0, 3.0]
    factory = balanced_local_factory(PROBLEM, speeds)
    locals_ = [factory(r, 3) for r in range(3)]
    sizes = [s.hi - s.lo for s in locals_]
    assert sum(sizes) == PROBLEM.n
    assert sizes[2] > sizes[0]  # fastest host owns the biggest block
    with pytest.raises(ValueError):
        factory(0, 4)


def test_balanced_run_converges_correctly():
    scenario = Scenario(
        problem="sparse_linear",
        problem_params=PROBLEM_PARAMS,
        environment="pm2",
        algorithm="aiac",
        cluster="ethernet_wan",
        cluster_params=dict(n_sites=3, speed_scale=0.003, wan_latency=0.018),
        n_ranks=6,
        options=AIACOptions(eps=1e-6, stability_count=8, max_iterations=20_000),
    )
    speeds = [h.speed for h in scenario.build_network().hosts]
    factory = balanced_local_factory(PROBLEM, speeds)
    result = SimulatedBackend().run(scenario, make_solver=factory)
    assert result.converged
    assert PROBLEM.solution_error(result.solution()) < 1e-3


def test_balanced_equalises_per_iteration_compute():
    """Block flops proportional to speed => equal iteration times."""
    speeds = [1.0, 2.0, 4.0]
    factory = balanced_local_factory(PROBLEM, speeds)
    locals_ = [factory(r, 3) for r in range(3)]
    times = [
        s._flops_per_iter / speed for s, speed in zip(locals_, speeds)
    ]
    assert max(times) / min(times) < 1.6  # vs 4.0 unbalanced


# ----------------------------------------------------------------------
# row migration rebuilds the prepared row-block update
# ----------------------------------------------------------------------
def _fresh_migratable(problem, rank, size, sizes, x):
    solver = MigratableSparseLinearLocal(
        problem, rank, size, partition=BlockPartition.from_sizes(sizes)
    )
    solver.x[:] = x
    return solver


def test_migrated_solver_iterates_like_a_fresh_one_on_the_new_range():
    problem = SparseLinearProblem(
        SparseLinearConfig(n=90, n_diagonals=8, sign_structure="random")
    )
    x = np.random.default_rng(0).standard_normal(problem.n)
    left = _fresh_migratable(problem, 0, 3, [30, 30, 30], x)
    mid = _fresh_migratable(problem, 1, 3, [30, 30, 30], x)
    # mid gives 12 rows to the left, then everything else (empty block).
    for count, sizes in [(12, [42, 18, 30]), (18, [60, 0, 30])]:
        lo, hi, values = mid.give_rows(count, to_rank=0)
        left.take_rows(lo, hi, values)
        assert left.row_range == (0, sizes[0])
        assert mid.row_range == (sizes[0], sizes[0] + sizes[1])
        for moved, rank in ((left, 0), (mid, 1)):
            assert moved.x.tobytes() == x.tobytes()  # x carried over
            fresh = _fresh_migratable(problem, rank, 3, sizes, x)
            for _ in range(3):
                a, b = moved.iterate(), fresh.iterate()
                assert a.residual == b.residual and a.flops == b.flops
                (pa, sa), (pb, sb) = a.outgoing[2], b.outgoing[2]
                assert pa[:2] == pb[:2] and sa == sb
                assert pa[2].tobytes() == pb[2].tobytes()
                assert moved.x.tobytes() == fresh.x.tobytes()
            moved.x[:] = x
