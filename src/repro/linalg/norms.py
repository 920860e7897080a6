"""Norms used by the convergence criteria.

The paper's residual (Section 1.2) is the max norm of the difference
between two consecutive iterates of a block:

    residual_i^t = || X_i^t - X_i^{t-1} ||_inf = max_j | X_{i,j}^t - X_{i,j}^{t-1} |

For the stiff chemical problem the raw max norm is useless because the
two species live at wildly different scales (c1 ~ 1e6, c2 ~ 1e12), so a
CVODE-style weighted RMS norm is also provided.
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


def error_weights(y: np.ndarray, rtol: float, atol: float | np.ndarray) -> np.ndarray:
    """Per-component weights ``1 / (rtol*|y| + atol)`` (CVODE convention)."""
    if rtol < 0:
        raise ValueError("rtol must be >= 0")
    w = rtol * np.abs(y) + atol
    if np.any(w <= 0):
        raise ValueError("weights must be positive; increase atol")
    return 1.0 / w


def weighted_rms(x: np.ndarray, weights: np.ndarray) -> float:
    """Weighted root-mean-square norm ``sqrt(mean((x*w)^2))``."""
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        return 0.0
    scaled = x * weights
    # dot(s, s) is a single BLAS reduction; no squared temporary.
    return float(np.sqrt(np.dot(scaled, scaled) / scaled.size))


def relative_max_norm_diff(x: np.ndarray, y: np.ndarray, floor: float = 1.0) -> float:
    """Max norm of the componentwise relative change.

    ``max_j |x_j - y_j| / max(|y_j|, floor)`` -- a scale-free variant of
    the paper's criterion used for the chemical problem.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    if x.size == 0:
        return 0.0
    diff = x - y
    np.abs(diff, out=diff)
    denom = np.abs(y)
    np.maximum(denom, floor, out=denom)
    diff /= denom
    return float(np.max(diff))


__all__ = [
    "max_norm",
    "max_norm_diff",
    "error_weights",
    "weighted_rms",
    "relative_max_norm_diff",
]
