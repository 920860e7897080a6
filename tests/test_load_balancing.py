"""Tests for the speed-proportional load-balancing extension."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aiac import AIACOptions
from repro.core.run import simulate
from repro.clusters import ethernet_wan
from repro.envs import get_environment
from repro.linalg.partition import WeightedPartition
from repro.problems.sparse_linear import (
    MigratableSparseLinearLocal,
    SparseLinearConfig,
    SparseLinearProblem,
    balanced_local_factory,
)


# ----------------------------------------------------------------------
# weighted partition
# ----------------------------------------------------------------------
def test_weighted_partition_proportional_sizes():
    part = WeightedPartition(100, [1.0, 2.0, 1.0])
    sizes = [part.size(b) for b in range(3)]
    assert sum(sizes) == 100
    assert sizes[1] == 50
    assert sizes[0] == sizes[2] == 25


def test_weighted_partition_covers_range_contiguously():
    part = WeightedPartition(37, [3.0, 1.0, 2.0, 5.0])
    cursor = 0
    for b in range(part.m):
        lo, hi = part.bounds(b)
        assert lo == cursor and hi > lo
        cursor = hi
    assert cursor == 37


def test_weighted_partition_minimum_one_element():
    part = WeightedPartition(5, [1000.0, 1.0, 1.0])
    assert all(part.size(b) >= 1 for b in range(3))
    assert sum(part.size(b) for b in range(3)) == 5


def test_weighted_partition_owner_and_local():
    part = WeightedPartition(30, [1.0, 3.0])
    for idx in range(30):
        b = part.owner(idx)
        lo, hi = part.bounds(b)
        assert lo <= idx < hi
        assert part.to_local(b, idx) == idx - lo


def test_weighted_partition_scatter_gather():
    part = WeightedPartition(20, [2.0, 1.0, 1.0])
    x = np.arange(20.0)
    assert np.array_equal(part.gather(part.scatter(x)), x)


def test_weighted_partition_equal_weights_match_block_partition():
    from repro.linalg.partition import BlockPartition

    weighted = WeightedPartition(22, [1.0] * 4)
    uniform = BlockPartition(22, 4)
    sizes_w = sorted(weighted.size(b) for b in range(4))
    sizes_u = sorted(uniform.size(b) for b in range(4))
    assert sizes_w == sizes_u


def test_weighted_partition_validation():
    with pytest.raises(ValueError):
        WeightedPartition(10, [])
    with pytest.raises(ValueError):
        WeightedPartition(10, [1.0, -1.0])
    with pytest.raises(ValueError):
        WeightedPartition(2, [1.0, 1.0, 1.0])
    with pytest.raises(IndexError):
        WeightedPartition(10, [1.0]).bounds(1)


# ----------------------------------------------------------------------
# empty blocks (what dynamic migration can legitimately produce)
# ----------------------------------------------------------------------
def test_block_partition_allows_more_blocks_than_elements():
    from repro.linalg.partition import BlockPartition

    part = BlockPartition(3, 5)
    assert part.sizes() == [1, 1, 1, 0, 0]
    assert part.bounds(3) == (3, 3) and part.bounds(4) == (3, 3)
    # Translation around a zero-width block stays coherent.
    for idx in range(3):
        owner = part.owner(idx)
        assert part.to_local(owner, idx) == idx - part.bounds(owner)[0]
    with pytest.raises(IndexError):
        part.to_local(3, 3)  # nothing is local to an empty block
    x = np.arange(3.0)
    pieces = part.scatter(x)
    assert [len(p) for p in pieces] == [1, 1, 1, 0, 0]
    assert np.array_equal(part.gather(pieces), x)


def test_block_partition_still_rejects_bad_shapes():
    from repro.linalg.partition import BlockPartition

    with pytest.raises(ValueError):
        BlockPartition(-1, 2)
    with pytest.raises(ValueError):
        BlockPartition(5, 0)


def test_weighted_partition_from_sizes_with_zero_blocks():
    part = WeightedPartition.from_sizes([3, 0, 2])
    assert part.n == 5 and part.m == 3
    assert part.sizes() == [3, 0, 2]
    assert part.bounds(1) == (3, 3)
    assert part.owner(3) == 2  # empty block owns nothing
    x = np.arange(5.0)
    assert np.array_equal(part.gather(part.scatter(x)), x)
    with pytest.raises(ValueError):
        WeightedPartition.from_sizes([])
    with pytest.raises(ValueError):
        WeightedPartition.from_sizes([2, -1])


@given(
    n=st.integers(5, 300),
    weights=st.lists(st.floats(0.1, 10.0), min_size=1, max_size=5),
)
@settings(max_examples=40, deadline=None)
def test_weighted_partition_properties(n, weights):
    if len(weights) > n:
        weights = weights[:n]
    part = WeightedPartition(n, weights)
    sizes = [part.size(b) for b in range(part.m)]
    assert sum(sizes) == n
    assert all(s >= 1 for s in sizes)
    # Proportionality within rounding: |size - ideal| <= m.
    total_w = sum(weights)
    for size, w in zip(sizes, weights):
        assert abs(size - n * w / total_w) <= len(weights) + 1


# ----------------------------------------------------------------------
# balanced runs
# ----------------------------------------------------------------------
PROBLEM = SparseLinearProblem(SparseLinearConfig(n=600, dominance=0.8, eps=1e-6))


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
    opts = AIACOptions(eps=1e-6, stability_count=8, max_iterations=20_000)
    env = get_environment("pm2")
    net = ethernet_wan(n_hosts=6, n_sites=3, speed_scale=0.003, wan_latency=0.018)
    factory = balanced_local_factory(PROBLEM, [h.speed for h in net.hosts])
    result = simulate(
        factory, 6, net, env.comm_policy("sparse_linear", 6),
        worker="aiac", opts=opts,
    )
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
        problem, rank, size, partition=WeightedPartition.from_sizes(sizes)
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
