"""Norms used by the convergence criteria.

The paper's residual (Section 1.2) is the max norm of the difference
between two consecutive iterates of a block:

    residual_i^t = || X_i^t - X_i^{t-1} ||_inf = max_j | X_{i,j}^t - X_{i,j}^{t-1} |
"""

from __future__ import annotations

import numpy as np


def max_norm(x: np.ndarray) -> float:
    """``||x||_inf``; 0.0 for empty vectors.

    Computed as ``max(max(x), -min(x))`` -- two C-level reductions, no
    ``|x|`` temporary (this runs every solver iteration, so the ufunc
    reductions are called directly, not through ``np.max``/``np.min``).
    """
    x = np.asarray(x)
    if x.size == 0:
        return 0.0
    return float(max(np.maximum.reduce(x, axis=None), -np.minimum.reduce(x, axis=None)))


def max_norm_diff(x: np.ndarray, y: np.ndarray) -> float:
    """``||x - y||_inf`` -- the paper's residual between iterates (Eq. 6)."""
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    return max_norm(x - y)


__all__ = [
    "max_norm",
    "max_norm_diff",
]
