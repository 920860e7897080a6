"""Tests for norms, partitioning and matrix splittings."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.linalg.norms import max_norm, max_norm_diff
from repro.linalg.partition import BlockPartition
from repro.linalg.splitting import (
    block_column_dependencies,
    block_ranges_dependencies,
    jacobi_splitting,
)
from repro.problems.sparse_linear import SparseLinearConfig, SparseLinearProblem


# ----------------------------------------------------------------------
# norms
# ----------------------------------------------------------------------
def test_max_norm_basics():
    assert max_norm(np.array([1.0, -3.0, 2.0])) == 3.0
    assert max_norm(np.array([])) == 0.0


def test_max_norm_reduces_over_every_axis_like_np_max():
    grid = np.array([[1.0, -7.0], [3.0, 2.0]])
    assert max_norm(grid) == 7.0 == float(np.max(np.abs(grid)))
    assert max_norm_diff(grid, np.zeros((2, 2))) == 7.0
    assert max_norm_diff(np.empty((0, 2)), np.empty((0, 2))) == 0.0
    assert np.isnan(max_norm(np.array([np.nan, 1.0])))


def test_max_norm_diff_is_paper_residual():
    x = np.array([1.0, 2.0, 3.0])
    y = np.array([1.5, 2.0, 1.0])
    assert max_norm_diff(x, y) == pytest.approx(2.0)


def test_max_norm_diff_shape_mismatch():
    with pytest.raises(ValueError):
        max_norm_diff(np.zeros(3), np.zeros(4))


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
def test_max_norm_nonnegative_and_triangle(values):
    x = np.array(values)
    assert max_norm(x) >= 0.0
    assert max_norm(x + x) <= 2 * max_norm(x) + 1e-9


@given(
    st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=30),
    st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=30),
)
def test_max_norm_diff_symmetry(a, b):
    n = min(len(a), len(b))
    x, y = np.array(a[:n]), np.array(b[:n])
    assert max_norm_diff(x, y) == pytest.approx(max_norm_diff(y, x))


# ----------------------------------------------------------------------
# partition: the uniform, speed-weighted and explicit-sizes constructors
# ----------------------------------------------------------------------
def _sizes(part):
    return [hi - lo for lo, hi in part]


@st.composite
def _partitions(draw):
    """A partition from any of the three constructors."""
    n = draw(st.integers(0, 200))
    build = draw(st.sampled_from(["uniform", "weighted", "sizes"]))
    if build == "uniform":
        return BlockPartition(n, draw(st.integers(1, 20)))
    if build == "weighted":
        n = max(n, 1)
        weights = st.floats(0.1, 10.0)
        return BlockPartition.weighted(n, draw(st.lists(weights, min_size=1, max_size=min(n, 8))))
    return BlockPartition.from_sizes(draw(st.lists(st.integers(0, 30), min_size=1, max_size=8)))


@given(part=_partitions())
def test_partition_bounds_cover_range(part):
    """Blocks tile ``range(n)`` in order: contiguous, no gap, no overlap."""
    assert list(part) == [part.bounds(b) for b in range(part.m)]
    cursor = 0
    for lo, hi in part:
        assert lo == cursor <= hi
        cursor = hi
    assert cursor == part.n


@given(st.integers(1, 200), st.integers(1, 20))
def test_partition_owner_consistent_with_bounds(n, m):
    if m > n:
        m = n
    part = BlockPartition(n, m)
    # The owner of an index, looked up from the block ends, is monotone
    # and its block's bounds hold the index.
    ends = [hi for _, hi in part]
    owners = np.searchsorted(ends, np.arange(n), side="right").tolist()
    assert owners == sorted(owners)
    for i, b in enumerate(owners):
        lo, hi = part.bounds(b)
        assert lo <= i < hi


@given(st.integers(0, 200), st.integers(1, 20))
def test_partition_balanced_within_one(n, m):
    sizes = _sizes(BlockPartition(n, m))
    assert len(sizes) == m and sum(sizes) == n
    # The larger blocks come first; m > n leaves zero-width trailing blocks.
    assert sizes == sorted(sizes, reverse=True) and sizes[0] - sizes[-1] <= 1
    assert list(BlockPartition(10, 3)) == [(0, 4), (4, 7), (7, 10)]


def test_partition_from_sizes_keeps_zero_width_blocks():
    # A middle block emptied by row migration: m > n cannot give this.
    part = BlockPartition.from_sizes([3, 0, 2])
    assert (part.n, part.m) == (5, 3)
    assert list(part) == [(0, 3), (3, 3), (3, 5)]


def test_partition_validation():
    # The uniform and weighted constructors' own errors are checked in
    # tests/test_load_balancing.py.
    for sizes in ([], [2, -1]):
        with pytest.raises(ValueError):
            BlockPartition.from_sizes(sizes)
    for part in (BlockPartition(10, 2), BlockPartition.weighted(10, [1.0, 3.0])):
        for block in (-1, 2):
            with pytest.raises(IndexError):
                part.bounds(block)


# ----------------------------------------------------------------------
# splittings and dependencies
# ----------------------------------------------------------------------
def _small_problem(n=60, m=4):
    problem = SparseLinearProblem(SparseLinearConfig(n=n, n_diagonals=10))
    part = BlockPartition(n, m)
    return problem, part


def test_jacobi_splitting_inverts_diagonal():
    problem, _ = _small_problem()
    diag = jacobi_splitting(problem.matrix)
    assert np.array_equal(diag, problem.matrix.diagonal()) and np.all(diag != 0.0)


def test_dependencies_are_consistent_both_ways():
    problem, part = _small_problem()
    providers, receivers = block_ranges_dependencies(problem.matrix, part)
    for consumer, sources in providers.items():
        for src in sources:
            assert consumer in receivers[src]
    for src, consumers in receivers.items():
        for consumer in consumers:
            assert src in providers[consumer]


def test_dependencies_match_matrix_structure():
    problem, part = _small_problem()
    providers = block_column_dependencies(problem.matrix, part)
    dense = problem.matrix.to_dense()
    starts = [lo for lo, _ in part]
    for block, sources in providers.items():
        lo, hi = part.bounds(block)
        truth = set()
        rows, cols = np.nonzero(dense[lo:hi])
        for col in cols:
            owner = int(np.searchsorted(starts, col, side="right")) - 1
            if owner != block:
                truth.add(owner)
        assert truth <= sources  # model may be conservative, never missing


def test_spread_offsets_give_all_to_all_dependencies():
    """The paper's sparse problem has an all-to-all communication scheme."""
    problem = SparseLinearProblem(SparseLinearConfig(n=1200, n_diagonals=30))
    part = BlockPartition(1200, 12)
    providers, _ = block_ranges_dependencies(problem.matrix, part)
    for block, sources in providers.items():
        assert len(sources) >= 9  # nearly every other block
