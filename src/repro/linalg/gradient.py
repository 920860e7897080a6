"""Fixed-step gradient descent of the paper (Eq. 4).

    x_{k+1} = x_k + gamma * M^{-1} (b - A x_k)

with ``M`` extracted from ``A`` (here: its diagonal) and ``gamma``
"conveniently chosen (around 1) to accelerate the convergence"; for
``gamma = 1`` this is the Jacobi method.  Convergence is declared when
``||x_k - x_{k-1}||_inf < eps`` (Eqs. 5-6).

Both a sequential driver (:func:`gradient_descent`) and the per-block
update used by the parallel AIAC / SISC workers
(:class:`FixedStepGradient`) are provided; the parallel versions apply
the *same* update restricted to their row block, reading dependency
entries from the last received global vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.linalg.sparse import MultiDiagonalMatrix
from repro.linalg.splitting import jacobi_splitting


@dataclass
class GradientResult:
    """Outcome of a sequential fixed-step gradient run."""

    x: np.ndarray
    iterations: int
    residual: float
    converged: bool


class FixedStepGradient:
    """Reusable update kernel ``x_B <- x_B + gamma * (b_B - (A x)_B) / d_B``.

    Instances are cheap views over the matrix; they own no state other
    than precomputed diagonal slices.
    """

    def __init__(self, matrix: MultiDiagonalMatrix, b: np.ndarray, gamma: float = 1.0) -> None:
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        b = np.asarray(b, dtype=float)
        if b.shape != (matrix.n,):
            raise ValueError(f"b has shape {b.shape}, expected ({matrix.n},)")
        self.matrix = matrix
        self.b = b
        self.gamma = gamma
        self.diag = jacobi_splitting(matrix).diagonal

    def block(self, lo: int, hi: int, x=None) -> "BlockUpdate":
        """Prepared in-place update of rows ``[lo, hi)``; build once per rank.

        Its working vector starts as zeros, or as a copy of ``x``.
        """
        return BlockUpdate(self, lo, hi, x)

    def update_block(self, lo: int, hi: int, x_global: np.ndarray) -> np.ndarray:
        """New values for rows ``[lo, hi)`` given the current global x.

        One-shot form of :meth:`block`; ``x_global`` is left untouched.
        """
        return self.block(lo, hi, x_global).step()[0]

    def update_flops(self, lo: int, hi: int) -> float:
        """Analytic flop count of one block update (used for time charging).

        2 flops per stored non-zero in the block rows (multiply + add)
        plus 3 per row (subtract, divide, add).
        """
        starts, stops = self.matrix.column_spans(lo, hi)
        return 2.0 * int((stops - starts).sum()) + 3.0 * (hi - lo)


class BlockUpdate:
    """The update of rows ``[lo, hi)`` iterated in place on its own ``x``.

    Holds the row block's :class:`~repro.linalg.sparse.RowBlockOperator`
    and the ``b`` / ``diag`` / own-block slices it needs every
    iteration.  :attr:`x` is the operator's full-length working vector:
    foreign entries are written into it as they arrive, :meth:`step`
    advances the own block.
    """

    def __init__(self, kernel: FixedStepGradient, lo: int, hi: int, x=None) -> None:
        self.kernel = kernel
        self.operator = kernel.matrix.row_block(lo, hi, x)
        self.x = self.operator.x
        self._own = self.x[lo:hi]
        self._b = kernel.b[lo:hi]
        self._diag = kernel.diag[lo:hi]
        self._gamma = kernel.gamma

    def step(self) -> Tuple[np.ndarray, float]:
        """Advance the own block once; returns ``(new_block, residual)``.

        ``new_block`` is a fresh array the caller may give away (it is
        not retained here); ``residual`` is ``||new - old||_inf``
        (Eq. 6).
        """
        # own + gamma * (b - A x) / diag, evaluated left to right in the
        # product's buffer (a multiply by 1.0 is exact, so it is skipped).
        step = self.operator.matvec()
        np.subtract(self._b, step, out=step)
        if self._gamma != 1.0:
            step *= self._gamma
        step /= self._diag
        new_block = self._own + step
        np.subtract(new_block, self._own, out=step)
        self._own[:] = new_block
        # ||new - old||_inf on the scratch difference (NaN propagates).
        return new_block, float(np.maximum.reduce(np.abs(step, out=step), initial=0.0))

    def __reduce__(self):
        # ``x`` and the own-block slice alias the operator's buffer;
        # plain pickling would hand back three unrelated copies.
        op = self.operator
        return (BlockUpdate, (self.kernel, op.lo, op.hi, self.x))


def gradient_descent(
    matrix: MultiDiagonalMatrix,
    b: np.ndarray,
    gamma: float = 1.0,
    eps: float = 1e-8,
    max_iterations: int = 100_000,
    x0: Optional[np.ndarray] = None,
) -> GradientResult:
    """Sequential reference solver for ``A x = b`` (Eq. 4 of the paper)."""
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (matrix.n,):
            raise ValueError(f"x0 has shape {x0.shape}, expected ({matrix.n},)")
    block = FixedStepGradient(matrix, b, gamma).block(0, matrix.n, x0)
    residual = float("inf")
    for k in range(1, max_iterations + 1):
        x, residual = block.step()
        if residual < eps:
            return GradientResult(x=x, iterations=k, residual=residual, converged=True)
    return GradientResult(
        x=block.x.copy(), iterations=max_iterations, residual=residual, converged=False
    )


__all__ = ["FixedStepGradient", "BlockUpdate", "GradientResult", "gradient_descent"]
