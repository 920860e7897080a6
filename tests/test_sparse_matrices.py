"""Tests for the DIA sparse matrix layout."""

import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg.gradient import FixedStepGradient
from repro.linalg.partition import BlockPartition, WeightedPartition
from repro.linalg.sparse import MultiDiagonalMatrix
from repro.linalg.splitting import block_column_dependencies, jacobi_splitting


# ----------------------------------------------------------------------
# the Jacobi splitting M = diag(A)
# ----------------------------------------------------------------------
def test_diagonal_singular_solve_raises():
    m = MultiDiagonalMatrix(2, (0, 1))
    m.set_diagonal(0, np.array([1.0, 0.0]))
    with pytest.raises(ZeroDivisionError):
        jacobi_splitting(m)


# ----------------------------------------------------------------------
# MultiDiagonalMatrix
# ----------------------------------------------------------------------
def _random_multidiag(n=20, offsets=(-7, -2, 0, 3, 11), seed=0):
    rng = np.random.default_rng(seed)
    m = MultiDiagonalMatrix(n, offsets)
    for off in offsets:
        lo = max(0, -off)
        hi = min(n, n - off)
        m.set_diagonal(off, rng.standard_normal(hi - lo))
    return m


def test_multidiag_matvec_matches_dense():
    m = _random_multidiag()
    x = np.random.default_rng(1).standard_normal(m.n)
    assert np.allclose(m.matvec(x), m.to_dense() @ x)


def test_csr_cross_checks_multidiag():
    """Two independent sparse implementations must agree: the DIA layout
    against scipy's CSR built from the same entries."""
    import scipy.sparse as sps

    m = _random_multidiag(n=25, offsets=(-9, -1, 0, 4, 17), seed=9)
    csr = sps.csr_matrix(m.to_dense())
    x = np.random.default_rng(10).standard_normal(25)
    assert np.allclose(m.matvec(x), csr @ x)


def test_multidiag_row_block_matches_full():
    m = _random_multidiag()
    x = np.random.default_rng(2).standard_normal(m.n)
    full = m.matvec(x)
    for lo, hi in [(0, 5), (5, 13), (13, 20), (0, 20)]:
        assert np.allclose(m.row_block_matvec(lo, hi, x), full[lo:hi])


def test_multidiag_diagonal_accessors():
    m = _random_multidiag()
    assert np.array_equal(m.diagonal(), m.data[m.offsets.tolist().index(0)])
    with pytest.raises(KeyError):
        m.set_diagonal(99, 1.0)


def test_multidiag_no_main_diagonal_returns_zeros():
    m = MultiDiagonalMatrix(4, (1, -1))
    assert np.array_equal(m.diagonal(), np.zeros(4))


def test_multidiag_offdiagonal_row_sums():
    m = MultiDiagonalMatrix(4, (0, 1))
    m.set_diagonal(0, 5.0)
    m.set_diagonal(1, -2.0)
    sums = m.offdiagonal_row_sums()
    assert np.allclose(sums, [2.0, 2.0, 2.0, 0.0])


def test_multidiag_spectral_bound_diagonally_dominant():
    m = MultiDiagonalMatrix(6, (0, 1, -1))
    m.set_diagonal(0, 4.0)
    m.set_diagonal(1, 1.0)
    m.set_diagonal(-1, 1.0)
    assert m.jacobi_spectral_bound() == pytest.approx(0.5)


def test_multidiag_spectral_bound_zero_diagonal_is_inf():
    m = MultiDiagonalMatrix(3, (0, 1))
    m.set_diagonal(1, 1.0)
    assert m.jacobi_spectral_bound() == float("inf")


def test_multidiag_validation():
    with pytest.raises(ValueError):
        MultiDiagonalMatrix(0, (0,))
    with pytest.raises(ValueError):
        MultiDiagonalMatrix(3, (0, 0))
    with pytest.raises(ValueError):
        MultiDiagonalMatrix(3, (5,))
    m = MultiDiagonalMatrix(3, (0,))
    with pytest.raises(ValueError):
        m.matvec(np.zeros(4))
    with pytest.raises(ValueError):
        m.row_block_matvec(2, 1, np.zeros(3))


def test_multidiag_column_dependencies_ranges():
    m = MultiDiagonalMatrix(10, (0, 3))
    deps = m.column_dependencies(0, 5)
    assert (0, 5) in deps           # main diagonal reads own columns
    assert (3, 8) in deps           # offset +3 reads shifted columns


@given(
    n=st.integers(2, 30),
    seed=st.integers(0, 1000),
)
@settings(max_examples=30, deadline=None)
def test_multidiag_matvec_dense_property(n, seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, min(n, 6)))
    offsets = rng.choice(np.arange(-(n - 1), n), size=k, replace=False)
    m = MultiDiagonalMatrix(n, [int(o) for o in offsets])
    for off in offsets:
        off = int(off)
        lo, hi = max(0, -off), min(n, n - off)
        m.set_diagonal(off, rng.standard_normal(hi - lo))
    x = rng.standard_normal(n)
    assert np.allclose(m.matvec(x), m.to_dense() @ x, atol=1e-10)


# ----------------------------------------------------------------------
# RowBlockOperator (the prepared row-block product)
# ----------------------------------------------------------------------
def _gather_oracle(m, lo, hi, x):
    """The pre-operator formula, kept as the bit-for-bit reference: gather
    *every* diagonal of a sentinel-padded ``x`` through an index table
    (out-of-matrix positions read the trailing 0.0), then one einsum."""
    index = np.arange(m.n)[None, :] + m.offsets[:, None]
    np.copyto(index, m.n, where=(index < 0) | (index >= m.n))
    padded = np.append(np.asarray(x, dtype=float), 0.0)
    if hi == lo or not len(m.offsets):
        return np.zeros(hi - lo)
    return np.einsum("ij,ij->j", m.data[:, lo:hi], padded[index[:, lo:hi]])


@st.composite
def _matrix_and_block(draw):
    n = draw(st.integers(1, 24))
    # Extremes first: |k| = n-1 overhangs by a whole block on each side.
    candidates = [n - 1, -(n - 1)] + list(range(-(n - 2), n - 1))
    offsets = draw(st.lists(st.sampled_from(candidates), unique=True, max_size=7))
    seed = draw(st.integers(0, 2**16))
    lo = draw(st.integers(0, n))
    hi = draw(st.sampled_from([lo, min(n, lo + 1), n]) | st.integers(lo, n))
    if draw(st.booleans()):
        lo, hi = 0, n
    rng = np.random.default_rng(seed)
    m = MultiDiagonalMatrix(n, offsets)
    for off in offsets:
        vlo, vhi = max(0, -off), min(n, n - off)
        m.set_diagonal(off, rng.standard_normal(vhi - vlo))
    return m, lo, hi, rng.standard_normal(n)


@given(case=_matrix_and_block())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_row_block_operator_matches_dense_and_gather_oracle(case):
    m, lo, hi, x = case
    block = m.row_block(lo, hi)
    block.x[:] = x
    prepared, one_shot = block.matvec(), m.row_block_matvec(lo, hi, x)
    oracle = _gather_oracle(m, lo, hi, x)
    assert prepared.shape == (hi - lo,)
    assert prepared.tobytes() == one_shot.tobytes() == oracle.tobytes()
    assert np.allclose(prepared, (m.to_dense() @ x)[lo:hi], atol=1e-12)
    if (lo, hi) == (0, m.n):
        assert m.matvec(x).tobytes() == oracle.tobytes()


@pytest.mark.parametrize("poison", [np.inf, -np.inf, np.nan])
def test_row_block_never_reads_outside_its_column_dependencies(poison):
    # Windows of the kept diagonals overhang both ends of x, and some
    # diagonals miss the block entirely: neither may leak a foreign
    # entry into the rows through 0 * inf.
    m = _random_multidiag(n=20, offsets=(-19, -12, -3, 0, 4, 9, 19))
    x = np.random.default_rng(3).standard_normal(m.n)
    for lo, hi in [(0, 4), (6, 11), (10, 11), (15, 20), (0, 20)]:
        needed = np.zeros(m.n, dtype=bool)
        for clo, chi in m.column_dependencies(lo, hi):
            needed[clo:chi] = True
        poisoned = np.where(needed, x, poison)
        expected = (m.to_dense() @ np.where(needed, x, 0.0))[lo:hi]
        block = m.row_block(lo, hi)
        block.x[:] = poisoned
        for got in (block.matvec(), m.row_block_matvec(lo, hi, poisoned)):
            assert np.all(np.isfinite(got))
            assert np.allclose(got, expected)


def test_row_block_sees_set_diagonal_made_after_it_was_built():
    m = _random_multidiag()
    x = np.random.default_rng(4).standard_normal(m.n)
    block = m.row_block(5, 13)
    block.x[:] = x
    before = block.matvec()
    m.set_diagonal(3, 2.5)
    after = block.matvec()
    assert not np.array_equal(before, after)
    assert np.allclose(after, (m.to_dense() @ x)[5:13])


def test_row_block_validation_and_edges():
    m = _random_multidiag()
    for lo, hi in [(-1, 3), (3, 2), (0, 21)]:
        with pytest.raises(ValueError):
            m.row_block(lo, hi)
    with pytest.raises(ValueError):
        m.row_block_matvec(0, 5, np.zeros(m.n + 1))
    assert m.row_block(7, 7).matvec().shape == (0,)
    assert m.row_block(0, m.n).x.shape == (m.n,)
    empty = MultiDiagonalMatrix(4, ())
    assert np.array_equal(empty.matvec(np.ones(4)), np.zeros(4))


def test_row_block_operators_of_one_shared_matrix_run_concurrently():
    # Four rank threads (more than this host's cores), one matrix, an
    # operator each: nothing on the matrix may be a shared buffer.
    m = _random_multidiag(n=400, offsets=(-399, -130, -7, 0, 5, 90, 250), seed=5)
    x = np.random.default_rng(6).standard_normal(m.n)
    ranges = [(0, 100), (100, 200), (200, 300), (300, 400)]
    serial = [m.row_block_matvec(lo, hi, x).tobytes() for lo, hi in ranges]
    mismatches, finished = [], []
    start = threading.Barrier(len(ranges), timeout=30)

    def rank(i):
        block = m.row_block(*ranges[i])
        block.x[:] = x
        start.wait()
        for _ in range(200):
            if block.matvec().tobytes() != serial[i]:
                mismatches.append(i)
            if m.row_block_matvec(*ranges[i], x).tobytes() != serial[i]:
                mismatches.append(i)
        finished.append(i)

    threads = [threading.Thread(target=rank, args=(i,)) for i in range(len(ranges))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(finished) == [0, 1, 2, 3]
    assert not mismatches


def test_row_block_pickles_without_the_window_view():
    m = _random_multidiag(n=2000, offsets=(-1999, -600, 0, 700, 1999), seed=7)
    block = m.row_block(500, 1500)
    block.x[:] = np.random.default_rng(8).standard_normal(m.n)
    blob = pickle.dumps(block)
    # matrix data + x, not (positions x rows) window values (~16 MB).
    assert len(blob) < 8 * (m.data.size + 2 * m.n)
    clone = pickle.loads(blob)
    assert clone.matvec().tobytes() == block.matvec().tobytes()
    clone.x[:] = 0.0  # still wired to its own buffer
    assert not clone.matvec().any()


# ----------------------------------------------------------------------
# dependency and flop maps against the dense pattern
# ----------------------------------------------------------------------
def _dense_column_spans(dense, lo, hi):
    """Per diagonal meeting rows [lo, hi), in offset order, the columns
    its non-zeros there occupy -- read off the dense matrix."""
    rows, cols = np.nonzero(dense[lo:hi])
    diagonal = cols - (rows + lo)
    return [
        (int(cols[diagonal == k].min()), int(cols[diagonal == k].max()) + 1)
        for k in np.unique(diagonal)
    ]


def _owner_loop_dependencies(matrix, partition):
    """The per-diagonal ``partition.owner`` loop the array form replaced."""
    deps = {}
    for block in range(partition.m):
        needed = set()
        for clo, chi in matrix.column_dependencies(*partition.bounds(block)):
            needed.update(range(partition.owner(clo), partition.owner(chi - 1) + 1))
        needed.discard(block)
        deps[block] = needed
    return deps


@st.composite
def _pattern_and_partition(draw):
    n = draw(st.integers(1, 24))
    offsets = draw(st.lists(st.integers(-(n - 1), n - 1), unique=True, max_size=7))
    m = MultiDiagonalMatrix(n, offsets)
    for off in offsets:
        m.set_diagonal(off, 1.0)  # every stored entry non-zero
    lo = draw(st.integers(0, n))
    hi = draw(st.integers(lo, n))
    # Up to n + 3 blocks: m > n leaves trailing zero-width blocks.
    blocks = draw(st.integers(1, n + 3))
    # Arbitrary cut points, repeats included: zero-width blocks anywhere.
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=5)))
    sizes = np.diff([0] + cuts + [n]).tolist()
    return m, lo, hi, BlockPartition(n, blocks), WeightedPartition.from_sizes(sizes)


@given(case=_pattern_and_partition())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_structure_maps_match_the_dense_pattern(case):
    m, lo, hi, balanced, cut = case
    dense = m.to_dense()
    assert m.column_dependencies(lo, hi) == _dense_column_spans(dense, lo, hi)
    # Balanced blocks are contiguous with no zero-width block between
    # two owners, so the maps are exactly the owners of the columns read.
    providers = block_column_dependencies(m, balanced)
    for block, (blo, bhi) in enumerate(balanced):
        cols = np.nonzero(dense[blo:bhi])[1]
        assert providers[block] == {balanced.owner(int(c)) for c in cols} - {block}
    for partition in (balanced, cut):
        assert block_column_dependencies(m, partition) == _owner_loop_dependencies(m, partition)
    with_main = MultiDiagonalMatrix(m.n, sorted(set(m.offsets.tolist()) | {0}))
    for off in with_main.offsets.tolist():
        with_main.set_diagonal(off, 1.0)
    flops = FixedStepGradient(with_main, np.zeros(m.n)).update_flops(lo, hi)
    nnz = np.count_nonzero(with_main.to_dense()[lo:hi])
    assert flops == 2.0 * nnz + 3.0 * (hi - lo)


def test_structure_maps_of_a_block_no_diagonal_meets():
    m = MultiDiagonalMatrix(10, (-9, 9))  # the two corners only
    m.set_diagonal(-9, 1.0)
    m.set_diagonal(9, 1.0)
    assert m.column_dependencies(2, 8) == []
    assert m.column_dependencies(0, 10) == [(0, 1), (9, 10)]
    providers = block_column_dependencies(m, BlockPartition(10, 5))
    assert providers == {0: {4}, 1: set(), 2: set(), 3: set(), 4: {0}}
    # Seven blocks over three rows: four of them zero-width.
    small = MultiDiagonalMatrix(3, (-2, 0, 1))
    assert block_column_dependencies(small, BlockPartition(3, 7)) == {
        0: {1}, 1: {2}, 2: {0}, 3: set(), 4: set(), 5: set(), 6: set(),
    }
