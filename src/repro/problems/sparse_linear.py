"""The sparse linear problem of the paper (Section 4.1).

``A x = b`` with a square sparse matrix whose non-zeros sit on the main
diagonal plus a fixed number of sub/super-diagonals ("repartition of
non-zero values: 30 sub-diagonals", Table 1), built strictly
diagonally dominant so the Jacobi-type fixed point has spectral radius
below one ("the sparse matrix is designed to have a spectral radius
less than one", Section 5.1) -- the convergence condition of
asynchronous iterations.

The diagonals are *spread* across the bandwidth of the matrix, so a
row-block decomposition produces the all-to-all dependency pattern the
paper describes ("the communication scheme is all to all according to
data dependencies", Section 5.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Set, Tuple

import numpy as np

from repro.linalg.gradient import FixedStepGradient, GradientResult, gradient_descent
from repro.linalg.norms import max_norm_diff
from repro.linalg.partition import BlockPartition
from repro.linalg.sparse import MultiDiagonalMatrix
from repro.linalg.splitting import block_ranges_dependencies
from repro.problems.base import LocalIteration, LocalSolver

BYTES_PER_VALUE = 8.0
_SIGNS = np.array([-1.0, 1.0])
#: Most magnitudes a ``"negative"`` instance build draws at once.
_DRAW_ENTRIES = 1 << 16


@dataclass(frozen=True)
class SparseLinearConfig:
    """Parameters of the sparse linear problem.

    ``n_diagonals`` counts off-diagonals (the paper's "30
    sub-diagonals"); they are placed symmetrically around the main
    diagonal and spread over the whole matrix so that every row block
    depends on (almost) every other block.
    """

    n: int = 2_000
    n_diagonals: int = 30
    dominance: float = 0.80      # bound on the Jacobi spectral radius
    gamma: float = 1.0           # the paper's fixed step (Jacobi for 1.0)
    eps: float = 1e-6            # convergence threshold (Eq. 5)
    max_iterations: int = 20_000
    seed: int = 12004            # deterministic instance generation
    stability_count: int = 3     # consecutive under-threshold iterations
                                 # required before local convergence is
                                 # believed (Section 4.3, oscillation guard)
    # Sign structure of the off-diagonals.  "negative" (Laplacian-like)
    # makes the Jacobi iteration matrix non-negative, so its spectral
    # radius actually *equals* the dominance bound (Perron-Frobenius)
    # and the iteration count matches the paper's long runs; "random"
    # signs cause cancellation and converge an order of magnitude
    # faster -- useful for quick tests.
    sign_structure: str = "negative"


#: Parameters used in the paper's experiments (Table 1).  Far too large
#: to run here -- kept as documentation and for parameter tests.
PAPER_SPARSE_LINEAR = SparseLinearConfig(n=2_000_000, n_diagonals=30)


def spread_offsets(n: int, n_diagonals: int) -> Tuple[int, ...]:
    """Symmetric diagonal offsets spread across the matrix width.

    Half the diagonals sit below the main diagonal and half above, at
    (approximately) evenly spaced offsets, producing the all-to-all
    block dependency pattern of the paper.
    """
    if n_diagonals < 2:
        raise ValueError("need at least 2 off-diagonals")
    half = n_diagonals // 2
    max_offset = n - 1
    offsets = []
    for j in range(1, half + 1):
        off = max(1, round(j * max_offset / (half + 1)))
        offsets.append(off)
    offsets = sorted(set(offsets))
    # De-duplicate (tiny n) by perturbing until we have ``half`` distinct.
    candidate = 1
    while len(offsets) < half and candidate < n:
        if candidate not in offsets:
            offsets.append(candidate)
        candidate += 1
    offsets = sorted(offsets[:half])
    return tuple([-o for o in reversed(offsets)] + offsets)


class SparseLinearProblem:
    """An instance of the problem: matrix, right-hand side, true solution."""

    def __init__(self, config: SparseLinearConfig) -> None:
        self.config = config
        rng = np.random.default_rng(config.seed)
        offsets = spread_offsets(config.n, config.n_diagonals)
        matrix = MultiDiagonalMatrix(config.n, (0,) + offsets)
        if config.sign_structure not in ("negative", "random"):
            raise ValueError(
                f"unknown sign_structure {config.sign_structure!r}; "
                "expected 'negative' or 'random'"
            )
        # The draws are the |A[i, i+off]|, diagonal by diagonal in
        # ascending offset order; the row sums add them up in that
        # order, as offdiagonal_row_sums does, bit for bit.
        row_sums = np.zeros(config.n)
        index = matrix._offset_index
        if config.sign_structure == "negative":
            # Whole diagonals, <= _DRAW_ENTRIES draws a group (later calls continue
            # the stream), stored row-major over in-matrix entries off the main row.
            n, cols = config.n, np.arange(config.n)
            step = max(1, _DRAW_ENTRIES // n)
            for first in range(0, len(matrix.offsets), step):
                k = matrix.offsets[first:first + step, None]
                stored = (cols >= -k) & (cols < n - k) & (k != 0)
                vals = rng.uniform(0.2, 1.0, np.count_nonzero(stored))
                matrix.data[first:first + step][stored] = np.negative(vals, out=vals)
            del cols, k, stored, vals  # none outlives the build into b's product
            # Column sums run down the diagonals in that order (the zeros
            # around them add nothing), and rounding is symmetric in sign:
            # the negated sum of the stored -v is the sum of the draws.
            np.negative(np.add.reduce(matrix.data, axis=0, out=row_sums), out=row_sums)
        else:
            # The uniform and sign draws interleave: one diagonal at a time.
            for off in offsets:
                lo, hi = matrix._valid_range(off)
                vals = rng.uniform(0.2, 1.0, hi - lo)
                row_sums[lo:hi] += vals
                # The draw rng.choice([-1.0, 1.0], k) makes, without its
                # per-call argument checks.
                vals *= _SIGNS[rng.integers(0, 2, hi - lo)]
                matrix.data[index[off], lo:hi] = vals
        # Strict diagonal dominance => Jacobi spectral radius <= dominance,
        # above a floor of np.median's value: the middle sum (x + x is
        # exactly 2x) or the mean of the two middle ones.  Some sum is
        # positive: every diagonal has an entry, and the draws are >= 0.2.
        positive = row_sums[row_sums > 0]
        positive.sort()
        half = len(positive) // 2
        floor = (positive[half - 1 + len(positive) % 2] + positive[half]) / 2
        matrix.data[index[0]] = np.maximum(row_sums, floor) / config.dominance

        self.matrix = matrix
        self.x_true = rng.standard_normal(config.n)
        self.b = matrix.matvec(self.x_true)
        self.kernel = FixedStepGradient(matrix, self.b, config.gamma)
        self._dependencies: Dict[Tuple[Tuple[int, int], ...], Any] = {}

    @property
    def n(self) -> int:
        return self.config.n

    def spectral_bound(self) -> float:
        return self.matrix.jacobi_spectral_bound()

    def solve_sequential(self, **overrides) -> GradientResult:
        """Reference sequential solution (same iterations as SISC)."""
        kwargs = dict(
            gamma=self.config.gamma,
            eps=self.config.eps,
            max_iterations=self.config.max_iterations,
        )
        kwargs.update(overrides)
        return gradient_descent(self.matrix, self.b, **kwargs)

    def block_dependencies(self, partition):
        """``(providers, receivers)`` maps of ``partition``, computed once.

        Every rank of a run asks for the same maps, so they are
        memoised per partition (keyed by its bounds) and shared:
        treat them as read-only.  Rank threads racing on a cold entry
        each compute it; the results are equal and one of them stays.
        """
        key = tuple(partition)
        deps = self._dependencies.get(key)
        if deps is None:
            deps = self._dependencies[key] = block_ranges_dependencies(
                self.matrix, partition
            )
        return deps

    def solution_error(self, x: np.ndarray) -> float:
        """Max-norm error against the known true solution."""
        return max_norm_diff(np.asarray(x), self.x_true)

    def make_local(self, rank: int, size: int) -> "SparseLinearLocal":
        """Local solver for processor ``rank`` of ``size``."""
        return SparseLinearLocal(self, rank, size)

    def make_migratable(self, rank: int, size: int) -> "MigratableSparseLinearLocal":
        """Local solver whose row block can shrink/grow at run time.

        Used by :mod:`repro.balancing`: the returned solver exchanges
        self-describing row updates and supports the ``give_rows`` /
        ``take_rows`` reslicing the migration protocol drives.
        """
        return MigratableSparseLinearLocal(self, rank, size)


class SparseLinearLocal(LocalSolver):
    """Per-processor state of the parallel gradient descent.

    Keeps a full-length working copy of ``x`` (the working vector of
    its prepared :class:`~repro.linalg.gradient.BlockUpdate`) whose
    foreign entries are refreshed from received messages; iterates only
    its own row block (the paper's vertical decomposition, Section 4.3).
    """

    def __init__(
        self,
        problem: SparseLinearProblem,
        rank: int,
        size: int,
        partition=None,
    ) -> None:
        if not 0 <= rank < size:
            raise ValueError(f"rank {rank} out of range for size {size}")
        self.problem = problem
        self.rank = rank
        self.size = size
        self.partition = partition if partition is not None else BlockPartition(problem.n, size)
        if self.partition.m != size or self.partition.n != problem.n:
            raise ValueError("partition does not match problem/size")
        self.lo, self.hi = self.partition.bounds(rank)
        if self.hi <= self.lo:
            # The static solver has no empty-block handling (zero flops
            # would spin the simulator's clock in place, and silent
            # ranks starve the freshness guard).  Empty blocks are the
            # migratable solver's territory (repro.balancing).
            raise ValueError(
                f"rank {rank} owns no rows ({size} ranks over "
                f"{problem.n} rows); the static decomposition needs "
                "n >= n_ranks"
            )
        providers, receivers = problem.block_dependencies(self.partition)
        self._providers = providers[rank]
        self._receivers = receivers[rank]
        self._block = problem.kernel.block(self.lo, self.hi)
        self._flops_per_iter = problem.kernel.update_flops(self.lo, self.hi)
        self._size_bytes = BYTES_PER_VALUE * (self.hi - self.lo)
        self.iterations_done = 0

    # ------------------------------------------------------------------
    @property
    def x(self) -> np.ndarray:
        """Full-length working copy of the solution vector."""
        return self._block.x

    def providers(self) -> Set[int]:
        return set(self._providers)

    def initial_outgoing(self) -> Dict[int, Tuple[np.ndarray, float]]:
        block = self.x[self.lo : self.hi].copy()
        return dict.fromkeys(self._receivers, ((self.rank, block), self._size_bytes))

    def integrate(self, src: int, payload) -> None:
        block_id, values = payload
        lo, hi = self.partition.bounds(block_id)
        if len(values) != hi - lo:
            raise ValueError(
                f"payload from rank {src} has {len(values)} entries, "
                f"block {block_id} needs {hi - lo}"
            )
        self.x[lo:hi] = values

    def iterate(self) -> LocalIteration:
        new_block, residual = self._block.step()
        self.iterations_done += 1
        # ``new_block`` is fresh and not retained here: it is the payload.
        item = ((self.rank, new_block), self._size_bytes)
        return LocalIteration(
            residual=residual,
            flops=self._flops_per_iter,
            outgoing=dict.fromkeys(self._receivers, item),
        )

    def local_solution(self) -> np.ndarray:
        return self.x[self.lo : self.hi].copy()


class MigratableSparseLinearLocal(LocalSolver):
    """Per-processor state whose row block can be resliced at run time.

    The dynamic load-balancing counterpart of
    :class:`SparseLinearLocal` (the paper's companion IPDPS'03 line of
    work couples balancing with asynchronism).  Differences that make
    migration safe:

    * data payloads are *self-describing* -- ``(src_rank, lo, values)``
      with a global row offset -- so receivers integrate them without
      any shared partition table; after a migration, in-flight updates
      from the old owner and fresh ones from the new owner both land at
      the right global rows (stale values are ordinary asynchronous
      staleness, which the convergence theory tolerates);
    * the data exchange is all-to-all (every rank offers its block to
      every other), so dependency sets never have to be recomputed as
      rows move -- the pattern the paper already describes for the
      spread-diagonal matrix;
    * empty blocks are legal: a rank that donated everything keeps
      iterating (at loop-overhead cost) and keeps sending empty,
      self-describing updates so freshness-based convergence guards
      still hear from it.

    ``give_rows`` / ``take_rows`` implement the actual reslicing; the
    two-phase handoff around them lives in
    :class:`repro.balancing.MigrationEngine`.
    """

    def __init__(
        self,
        problem: SparseLinearProblem,
        rank: int,
        size: int,
        partition=None,
    ) -> None:
        if not 0 <= rank < size:
            raise ValueError(f"rank {rank} out of range for size {size}")
        self.problem = problem
        self.rank = rank
        self.size = size
        partition = partition if partition is not None else BlockPartition(problem.n, size)
        if partition.m != size or partition.n != problem.n:
            raise ValueError("partition does not match problem/size")
        self.lo, self.hi = partition.bounds(rank)
        self._others = {r for r in range(size) if r != rank}
        self.iterations_done = 0
        self._reslice(None)

    # ------------------------------------------------------------------
    def _reslice(self, x) -> None:
        """Prepare the update for the current ``[lo, hi)``, carrying ``x`` over."""
        self._block = self.problem.kernel.block(self.lo, self.hi, x)
        self._size_bytes = max(BYTES_PER_VALUE, BYTES_PER_VALUE * self.n_rows)
        if self.hi > self.lo:
            self._flops_per_iter = self.problem.kernel.update_flops(self.lo, self.hi)
        else:
            # Loop overhead of an empty block: protocol bookkeeping,
            # drain, convergence tracking.  Charging roughly one row's
            # work keeps virtual time advancing (a zero-cost iteration
            # would let an empty rank spin to the cap in zero time).
            n = self.problem.n
            self._flops_per_iter = (
                self.problem.kernel.update_flops(0, 1) if n else 3.0
            )

    @property
    def x(self) -> np.ndarray:
        """Full-length working copy of the solution vector."""
        return self._block.x

    @property
    def n_rows(self) -> int:
        """Rows currently owned."""
        return self.hi - self.lo

    @property
    def row_range(self) -> Tuple[int, int]:
        """Current half-open global row range ``[lo, hi)``."""
        return (self.lo, self.hi)

    def migration_bytes_per_row(self) -> float:
        """Wire bytes one migrated row costs.

        A row travels with its solution entry, right-hand-side entry
        and stored matrix entries (one per diagonal).  The in-process
        backends share the immutable problem object, so only ``x`` is
        physically copied -- but the simulator charges the honest
        transfer size.
        """
        stored = self.problem.config.n_diagonals + 1
        return BYTES_PER_VALUE * (2 + stored)

    # ------------------------------------------------------------------
    # LocalSolver protocol
    # ------------------------------------------------------------------
    def providers(self) -> Set[int]:
        return set(self._others)

    def initial_outgoing(self) -> Dict[int, Tuple[Any, float]]:
        payload = (self.rank, self.lo, self.x[self.lo : self.hi].copy())
        return dict.fromkeys(self._others, (payload, self._size_bytes))

    def integrate(self, src: int, payload) -> None:
        _, lo, values = payload
        hi = lo + len(values)
        if lo < 0 or hi > self.problem.n:
            raise ValueError(
                f"payload from rank {src} spans [{lo}, {hi}), outside the "
                f"problem range [0, {self.problem.n})"
            )
        if len(values):
            self.x[lo:hi] = values

    def iterate(self) -> LocalIteration:
        if self.hi > self.lo:
            new_block, residual = self._block.step()
        else:
            # Empty block: trivially stationary, but still heard from.
            new_block, residual = _EMPTY_ROWS, 0.0
        self.iterations_done += 1
        item = ((self.rank, self.lo, new_block), self._size_bytes)
        return LocalIteration(
            residual=residual,
            flops=self._flops_per_iter,
            outgoing=dict.fromkeys(self._others, item),
        )

    def local_solution(self) -> np.ndarray:
        return self.x[self.lo : self.hi].copy()

    # ------------------------------------------------------------------
    # reslicing (driven by the migration protocol)
    # ------------------------------------------------------------------
    def give_rows(self, count: int, to_rank: int) -> Tuple[int, int, np.ndarray]:
        """Detach ``count`` boundary rows facing neighbour ``to_rank``.

        Returns ``(lo, hi, values)`` -- the donated global range and its
        current solution values -- and shrinks this block.  Rows only
        ever move between adjacent ranks, so blocks stay contiguous and
        rank order keeps matching global row order.
        """
        if not 1 <= count <= self.n_rows:
            raise ValueError(
                f"cannot give {count} rows from a block of {self.n_rows}"
            )
        if to_rank == self.rank - 1:
            lo, hi = self.lo, self.lo + count
            self.lo = hi
        elif to_rank == self.rank + 1:
            lo, hi = self.hi - count, self.hi
            self.hi = lo
        else:
            raise ValueError(
                f"rank {self.rank} can only give rows to a neighbour, "
                f"not rank {to_rank}"
            )
        values = self.x[lo:hi].copy()
        self._reslice(self.x)
        return lo, hi, values

    def take_rows(self, lo: int, hi: int, values) -> None:
        """Attach the donated global range ``[lo, hi)`` to this block."""
        values = np.asarray(values, dtype=float)
        if hi - lo != len(values):
            raise ValueError(
                f"range [{lo}, {hi}) carries {len(values)} values"
            )
        if hi <= lo:
            raise ValueError(f"empty migration range [{lo}, {hi})")
        if lo == self.hi:
            self.hi = hi
        elif hi == self.lo:
            self.lo = lo
        else:
            raise ValueError(
                f"migrated range [{lo}, {hi}) is not adjacent to "
                f"block [{self.lo}, {self.hi})"
            )
        self._reslice(self.x)
        self.x[lo:hi] = values


_EMPTY_ROWS = np.empty(0)


def balanced_local_factory(problem: SparseLinearProblem, speeds):
    """Local-solver factory with speed-proportional block sizes.

    The static load-balancing extension: ``speeds[r]`` is processor
    ``r``'s relative speed; each processor receives a row block
    proportional to it, so per-iteration compute times equalise across
    a heterogeneous cluster (the paper's Duron/P4 mix).

    Usage::

        factory = balanced_local_factory(problem, [h.speed for h in hosts])
        SimulatedBackend().run(scenario, make_solver=factory)
    """
    speeds = list(speeds)

    def make_local(rank: int, size: int) -> "SparseLinearLocal":
        if size != len(speeds):
            raise ValueError(
                f"factory built for {len(speeds)} ranks, asked for {size}"
            )
        partition = BlockPartition.weighted(problem.n, speeds)
        return SparseLinearLocal(problem, rank, size, partition=partition)

    return make_local


def make_sparse_linear_problem(
    n: int = 2_000,
    n_diagonals: int = 30,
    seed: int = 12004,
    **kwargs,
) -> SparseLinearProblem:
    """Convenience constructor used by examples and benchmarks."""
    return SparseLinearProblem(
        SparseLinearConfig(n=n, n_diagonals=n_diagonals, seed=seed, **kwargs)
    )


__all__ = [
    "SparseLinearConfig",
    "SparseLinearProblem",
    "SparseLinearLocal",
    "MigratableSparseLinearLocal",
    "PAPER_SPARSE_LINEAR",
    "spread_offsets",
    "make_sparse_linear_problem",
    "balanced_local_factory",
]
