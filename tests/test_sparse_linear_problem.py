"""Tests for the sparse linear problem instance (Section 4.1)."""

import hashlib
import pickle

import numpy as np
import pytest

from repro.core.effects import Message
from repro.linalg.partition import BlockPartition, WeightedPartition
from repro.problems.sparse_linear import (
    PAPER_SPARSE_LINEAR,
    SparseLinearConfig,
    SparseLinearProblem,
    spread_offsets,
)


def test_paper_parameters_match_table1():
    assert PAPER_SPARSE_LINEAR.n == 2_000_000
    assert PAPER_SPARSE_LINEAR.n_diagonals == 30


def test_instance_has_requested_diagonals():
    p = SparseLinearProblem(SparseLinearConfig(n=500, n_diagonals=30))
    assert len(p.matrix.offsets) == 31  # 30 off-diagonals + main


def test_spread_offsets_symmetric_and_spread():
    offsets = spread_offsets(1000, 30)
    assert len(offsets) == 30
    assert sorted(offsets) == sorted(-o for o in offsets)  # symmetric
    positive = sorted(o for o in offsets if o > 0)
    assert positive[-1] > 1000 // 2  # reaches across the matrix


def test_spread_offsets_small_matrix():
    offsets = spread_offsets(10, 6)
    assert len(offsets) == 6
    assert all(abs(o) < 10 for o in offsets)
    assert len(set(offsets)) == 6


def test_spread_offsets_validation():
    with pytest.raises(ValueError):
        spread_offsets(100, 1)


def test_rhs_is_consistent_with_true_solution():
    p = SparseLinearProblem(SparseLinearConfig(n=200))
    assert np.allclose(p.matrix.matvec(p.x_true), p.b)
    assert p.solution_error(p.x_true) == 0.0


def test_instance_generation_is_deterministic():
    a = SparseLinearProblem(SparseLinearConfig(n=100, seed=5))
    b = SparseLinearProblem(SparseLinearConfig(n=100, seed=5))
    assert np.array_equal(a.b, b.b)
    assert np.array_equal(a.matrix.data, b.matrix.data)
    c = SparseLinearProblem(SparseLinearConfig(n=100, seed=6))
    assert not np.array_equal(a.b, c.b)


@pytest.mark.parametrize(
    "params, matrix_sha1, b_sha1, x_true_sha1",
    [
        (
            {},
            "8e90c415ab1ab2fd5cbec8880c928dc42e5cdf52",
            "ff7ebc61305e5aa789fd1550f7d73bafc1d2008e",
            "7534ab5dd7c7b53c9c03ee32b67a498d7a5169ba",
        ),
        (
            {"sign_structure": "random"},
            "ae7fcb99a1b1cf1f0601e828e8adc0afdeb77c96",
            "8e21c131fe9e1ed6f8079ac9854e2e23e22f7415",
            "5dd61ff5e3d95783d7e809b8e1a9d15bea88484d",
        ),
        (
            {"n_diagonals": 100},
            "e7f99a16f67de75476c4eea035b353832cf33a83",
            "8fa5f27bfd23c60227df7b421c0877a885ac48c3",
            "e6961404e9856b853fa2714ec79da2fc33537e83",
        ),
        (   # the benchmark's tiny sweep / serve unit
            {"n": 40, "seed": 821},
            "e74086f9786e3d377479864afa988f2ee6fd5a10",
            "c2f4b60368876d599dbb344594e1adb813dfd2e8",
            "b7d34b9ada64fbe9581f827933a7a95f2be71b4b",
        ),
        (   # sim_async_sparse's instance
            {"n": 1200, "dominance": 0.6, "eps": 1e-3, "seed": 1},
            "93df51fc3bee40dba67342dcff09fd0f5c32e199",
            "61ceca37beafef1eb2e46a4b82b65228222bfb30",
            "31a8aecae764fb73d3920737256937ec5d329bed",
        ),
        (   # threads_compute_sparse's instance
            {"n": 20_000, "n_diagonals": 100, "dominance": 0.85, "seed": 1},
            "ab51753e66ddee20c4ea49986e58b847715ad753",
            "4b928565c5366ad0efa20ef23f6d86cb7634084b",
            "3e25fe5768885e314a5a4c83a060c69cbc1db6b4",
        ),
        (
            {"n": 130, "sign_structure": "random", "gamma": 0.9, "seed": 3},
            "de84e61dd8a62d94100b58f69010079b842b2b41",
            "26819057ff33ee21d8513a96a9f8aa7b37c806b0",
            "b61e2eb6b33f69090628f12cb56f283ffbbb3b57",
        ),
        (   # n < n_diagonals: spread_offsets de-duplicates down to 22
            {"n": 12, "n_diagonals": 30, "seed": 5},
            "b8abf3e4fe215b32caeda2ef7b6ade8791f4609a",
            "1f07b0de54aa9c19d927a1b99aa89c04af735811",
            "f97b5b11070999b790df8259eaec891f6889b63b",
        ),
    ],
    ids=["default", "random_signs", "100_diagonals", "tiny_unit", "sim_async_sparse",
         "threads_compute_sparse", "random_signs_gamma", "n_below_n_diagonals"],
)
def test_generated_instance_bytes_are_pinned(params, matrix_sha1, b_sha1, x_true_sha1):
    """The instance a config names never changes (the first three hashes
    predate the first faster build, the other five the one-pass build).

    Every recorded makespan, cache key and sim-identity fingerprint is
    a function of these bytes, so construction may get faster but not
    draw or place a value differently.
    """
    p = SparseLinearProblem(SparseLinearConfig(**params))
    digests = [
        hashlib.sha1(np.ascontiguousarray(a).tobytes()).hexdigest()
        for a in (p.matrix.data, p.b, p.x_true)
    ]
    assert digests == [matrix_sha1, b_sha1, x_true_sha1]


def test_local_solver_dependency_lists():
    p = SparseLinearProblem(SparseLinearConfig(n=240))
    local = p.make_local(1, 4)
    assert 1 not in local.providers()
    assert 1 not in local.receivers()
    assert local.providers() <= set(range(4))


def test_local_iterate_matches_sequential_block():
    """A local iteration on fully fresh data equals the global Jacobi
    update restricted to that block -- SISC does the same iterations
    as the sequential algorithm."""
    p = SparseLinearProblem(SparseLinearConfig(n=120))
    size = 3
    locals_ = [p.make_local(r, size) for r in range(size)]
    x = np.zeros(p.n)
    global_next = p.kernel.update_block(0, p.n, x)
    results = [s.iterate() for s in locals_]
    part = BlockPartition(p.n, size)
    for r, (solver, res) in enumerate(zip(locals_, results)):
        lo, hi = part.bounds(r)
        assert np.allclose(solver.local_solution(), global_next[lo:hi])
        assert res.flops > 0
        assert res.residual >= 0


def test_local_iterate_is_bit_identical_to_the_written_out_update():
    """The in-place update keeps the operation order of Eq. 4 as it was
    always evaluated: x + (gamma * (b - A x)) / d, residual max|new - x|."""
    p = SparseLinearProblem(SparseLinearConfig(n=130, gamma=0.9, sign_structure="random"))
    local = p.make_local(1, 3)
    local.x[:] = np.random.default_rng(0).standard_normal(p.n)
    for _ in range(3):
        x = local.x.copy()
        own = x[local.lo : local.hi]
        ax = p.matrix.row_block_matvec(local.lo, local.hi, x)
        residual = p.b[local.lo : local.hi] - ax
        expected = own + p.config.gamma * residual / p.kernel.diag[local.lo : local.hi]
        res = local.iterate()
        (_, sent), _ = next(iter(res.outgoing.values()))
        assert sent.tobytes() == expected.tobytes() == local.local_solution().tobytes()
        assert res.residual == float(np.max(np.abs(expected - own)))
        assert np.array_equal(local.x[: local.lo], x[: local.lo])
        assert np.array_equal(local.x[local.hi :], x[local.hi :])


def test_dependency_maps_are_computed_once_per_partition():
    p = SparseLinearProblem(SparseLinearConfig(n=240))
    maps = p.block_dependencies(BlockPartition(p.n, 4))
    assert p.block_dependencies(BlockPartition(p.n, 4)) is maps
    assert p.block_dependencies(WeightedPartition(p.n, [1, 1, 1, 1])) is maps
    assert p.block_dependencies(BlockPartition(p.n, 3)) is not maps
    assert p.block_dependencies(WeightedPartition(p.n, [3, 1, 1, 1])) is not maps
    # Solvers hand out fresh sets: mutating one must not reach the shared maps.
    local = p.make_local(1, 4)
    expected = set(maps[0][1])
    local.providers().clear()
    local.receivers().clear()
    assert local.providers() == expected == p.make_local(1, 4).providers()


def test_solver_and_message_payload_round_trip_through_pickle():
    p = SparseLinearProblem(SparseLinearConfig(n=3000, sign_structure="random"))
    local = p.make_local(1, 3)
    local.x[:] = np.random.default_rng(1).standard_normal(p.n)
    res = local.iterate()
    payload, size = next(iter(res.outgoing.values()))
    wire = pickle.dumps(Message(src=1, dst=0, tag="data", payload=payload, size=size))
    # The block's 1000 values, not a view dragging a padded buffer along.
    assert len(wire) < 8 * 1000 + 1000
    assert np.array_equal(pickle.loads(wire).payload[1], payload[1])

    blob = pickle.dumps(local)
    # Matrix + b + x_true + x ..., never the (positions x rows) window view.
    assert len(blob) < 8 * (p.matrix.data.size + 8 * p.n)
    clone = pickle.loads(blob)
    assert clone.iterations_done == 1
    assert clone.x.tobytes() == local.x.tobytes()
    # The clone's x, own block and operator are wired together again.
    clone.integrate(0, (0, np.full(1000, 0.5)))
    local.integrate(0, (0, np.full(1000, 0.5)))
    a, b = clone.iterate(), local.iterate()
    assert a.residual == b.residual
    assert clone.local_solution().tobytes() == local.local_solution().tobytes()
    assert clone.x.tobytes() == local.x.tobytes()


def test_local_integrate_updates_foreign_entries():
    p = SparseLinearProblem(SparseLinearConfig(n=90))
    local = p.make_local(0, 3)
    part = BlockPartition(p.n, 3)
    lo, hi = part.bounds(1)
    values = np.full(hi - lo, 3.14)
    local.integrate(1, (1, values))
    assert np.allclose(local.x[lo:hi], 3.14)


def test_local_integrate_rejects_bad_length():
    p = SparseLinearProblem(SparseLinearConfig(n=90))
    local = p.make_local(0, 3)
    with pytest.raises(ValueError):
        local.integrate(1, (1, np.zeros(3)))


def test_local_outgoing_payload_sizes():
    p = SparseLinearProblem(SparseLinearConfig(n=120))
    local = p.make_local(0, 4)
    res = local.iterate()
    for dst, (payload, nbytes) in res.outgoing.items():
        block_id, values = payload
        assert block_id == 0
        assert nbytes == 8.0 * len(values)
        assert dst in local.receivers()


def test_emulated_synchronous_exchange_converges():
    """Driving the local solvers in lockstep (fresh data each round)
    reproduces the sequential solution."""
    p = SparseLinearProblem(SparseLinearConfig(n=150, dominance=0.6, eps=1e-10))
    size = 3
    locals_ = [p.make_local(r, size) for r in range(size)]
    for _ in range(400):
        results = [s.iterate() for s in locals_]
        for solver, res in zip(locals_, results):
            for dst, (payload, _) in res.outgoing.items():
                locals_[dst].integrate(solver.rank, payload)
        if max(r.residual for r in results) < 1e-10:
            break
    solution = np.concatenate([s.local_solution() for s in locals_])
    assert p.solution_error(solution) < 1e-7


def test_rank_out_of_range_rejected():
    p = SparseLinearProblem(SparseLinearConfig(n=60))
    with pytest.raises(ValueError):
        p.make_local(4, 4)
    with pytest.raises(ValueError):
        p.make_local(-1, 4)


def test_static_solver_rejects_more_ranks_than_rows():
    # BlockPartition itself allows m > n (zero-width blocks, for row
    # migration), but the *static* solver has no empty-block handling:
    # it must keep failing fast instead of spinning to the cap.
    p = SparseLinearProblem(SparseLinearConfig(n=40, n_diagonals=4))
    with pytest.raises(ValueError, match="owns no rows"):
        p.make_local(44, 45)
    # The migratable solver accepts the same shape.
    migratable = p.make_migratable(44, 45)
    assert migratable.n_rows == 0
