"""Tests for norms, partitioning and matrix splittings."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg.norms import max_norm, max_norm_diff
from repro.linalg.partition import BlockPartition
from repro.linalg.splitting import (
    block_column_dependencies,
    block_ranges_dependencies,
    dependency_graph,
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
# partition
# ----------------------------------------------------------------------
def test_partition_bounds_cover_range():
    part = BlockPartition(10, 3)
    assert [part.bounds(b) for b in range(3)] == [(0, 4), (4, 7), (7, 10)]


def test_partition_balanced_within_one():
    part = BlockPartition(11, 4)
    sizes = [part.size(b) for b in range(4)]
    assert max(sizes) - min(sizes) <= 1
    assert sum(sizes) == 11


def test_partition_owner_and_local():
    part = BlockPartition(10, 3)
    for idx in range(10):
        b = part.owner(idx)
        lo, hi = part.bounds(b)
        assert lo <= idx < hi
        assert part.to_local(b, idx) == idx - lo


def test_partition_scatter_gather_roundtrip():
    part = BlockPartition(9, 4)
    x = np.arange(9.0)
    assert np.array_equal(part.gather(part.scatter(x)), x)


def test_partition_validation():
    # m > n is legal since row migration can empty a block: the extra
    # blocks are zero-width (see tests/test_load_balancing.py).
    assert BlockPartition(3, 5).sizes() == [1, 1, 1, 0, 0]
    with pytest.raises(ValueError):
        BlockPartition(3, 0)
    with pytest.raises(ValueError):
        BlockPartition(-1, 2)
    with pytest.raises(IndexError):
        BlockPartition(10, 2).bounds(2)
    with pytest.raises(IndexError):
        BlockPartition(10, 2).owner(10)


@given(st.integers(1, 200), st.integers(1, 20))
def test_partition_owner_consistent_with_bounds(n, m):
    if m > n:
        m = n
    part = BlockPartition(n, m)
    # Owners are monotone and every index belongs to its block.
    owners = [part.owner(i) for i in range(n)]
    assert owners == sorted(owners)
    for i, b in enumerate(owners):
        lo, hi = part.bounds(b)
        assert lo <= i < hi


@given(st.integers(1, 100), st.integers(1, 10))
def test_partition_gather_inverse_of_scatter(n, m):
    if m > n:
        m = n
    part = BlockPartition(n, m)
    x = np.arange(float(n))
    assert np.array_equal(part.gather(part.scatter(x)), x)


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
    for block, sources in providers.items():
        lo, hi = part.bounds(block)
        truth = set()
        rows, cols = np.nonzero(dense[lo:hi])
        for col in cols:
            owner = part.owner(int(col))
            if owner != block:
                truth.add(owner)
        assert truth <= sources  # model may be conservative, never missing


def test_dependency_graph_nodes_and_edges():
    nx = pytest.importorskip("networkx")
    problem, part = _small_problem()
    graph = dependency_graph(problem.matrix, part)
    assert isinstance(graph, nx.DiGraph)
    assert set(graph.nodes) == set(range(part.m))
    providers = block_column_dependencies(problem.matrix, part)
    for consumer, sources in providers.items():
        for src in sources:
            assert graph.has_edge(src, consumer)
    assert graph.number_of_edges() == sum(len(s) for s in providers.values())


def test_spread_offsets_give_all_to_all_dependencies():
    """The paper's sparse problem has an all-to-all communication scheme."""
    problem = SparseLinearProblem(SparseLinearConfig(n=1200, n_diagonals=30))
    part = BlockPartition(1200, 12)
    providers, _ = block_ranges_dependencies(problem.matrix, part)
    for block, sources in providers.items():
        assert len(sources) >= 9  # nearly every other block
