"""Numerical linear-algebra substrate (built from scratch on numpy).

Contents:

* :mod:`repro.linalg.norms` -- the max norm of the paper's residual
  criterion (Section 1.2),
* :mod:`repro.linalg.sparse` -- multi-diagonal sparse matrices (DIA
  layout) with vectorised mat-vec,
* :mod:`repro.linalg.partition` -- contiguous block partitioning,
* :mod:`repro.linalg.splitting` -- Jacobi/block splittings of a matrix,
* :mod:`repro.linalg.gradient` -- the fixed-step (preconditioned
  Richardson) gradient descent of Eq. (4),
* :mod:`repro.linalg.gmres` -- restarted GMRES with Givens rotations
  (the sequential linear solver of the multisplitting Newton method,
  driven by :func:`repro.problems.chemical.scaled_newton_update`).
"""

from repro.linalg.norms import max_norm, max_norm_diff
from repro.linalg.partition import BlockPartition
from repro.linalg.sparse import MultiDiagonalMatrix
from repro.linalg.splitting import jacobi_splitting, block_ranges_dependencies
from repro.linalg.gradient import FixedStepGradient, gradient_descent
from repro.linalg.gmres import GMRESResult, gmres

__all__ = [
    "max_norm",
    "max_norm_diff",
    "BlockPartition",
    "MultiDiagonalMatrix",
    "jacobi_splitting",
    "block_ranges_dependencies",
    "FixedStepGradient",
    "gradient_descent",
    "GMRESResult",
    "gmres",
]
