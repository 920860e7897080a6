"""Restarted GMRES (Saad) -- the sequential linear solver of the
multisplitting Newton method (Section 4.2 of the paper, ref. [18]).

Implemented from scratch: Arnoldi process with modified Gram-Schmidt
orthogonalisation and Givens rotations applied incrementally to the
Hessenberg matrix, so the residual norm is available at every inner
step without forming the solution.

Inside a cycle only the vectors are numpy: the Hessenberg column, the
rotations and the rotated right-hand side are Python floats in lists --
the same IEEE double products and sums, without boxing a numpy scalar
per operand.  Three operations stay numpy because their replacements
round differently (``DESIGN.md``): ``np.hypot`` (not the ``math``
module's), ``np.dot`` on unit-stride row slices in the
back-substitution (not a Python-loop dot), ``V[:k].T @ y`` in the update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

Operator = Callable[[np.ndarray], np.ndarray]


@dataclass
class GMRESResult:
    """Outcome of a GMRES solve."""

    x: np.ndarray
    iterations: int          # total inner (Arnoldi) iterations
    restarts: int
    residual_norm: float     # final ||b - A x||_2 estimate
    converged: bool


def gmres(
    apply_a: Operator,
    b: np.ndarray,
    x0: Optional[np.ndarray] = None,
    tol: float = 1e-10,
    atol: float = 0.0,
    restart: int = 30,
    max_iterations: int = 10_000,
) -> GMRESResult:
    """Solve ``A x = b`` with restarted GMRES.

    Parameters
    ----------
    apply_a:
        Matrix-free operator returning ``A v``.  Its result is only
        read, never written, so it may return (a view of) a buffer it
        reuses or its own input.
    b:
        Right-hand side.
    x0:
        Initial guess (zeros by default).
    tol, atol:
        Convergence when ``||r||_2 <= max(tol * ||b||_2, atol)``.
    restart:
        Krylov subspace dimension per cycle (GMRES(m)).
    max_iterations:
        Cap on total inner iterations.
    """
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    if b.ndim != 1:
        raise ValueError("b must be a vector")
    if restart < 1:
        raise ValueError("restart must be >= 1")
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float, copy=True)
    if x.shape != (n,):
        raise ValueError(f"x0 has shape {x.shape}, expected ({n},)")

    b_norm = math.sqrt(float(np.dot(b, b)))
    target = max(tol * b_norm, atol)
    if b_norm == 0.0 and atol == 0.0:
        # A x = 0 has solution x = 0 for the nonsingular systems we target.
        return GMRESResult(x=np.zeros(n), iterations=0, restarts=0, residual_norm=0.0, converged=True)

    total_inner = 0
    restarts = 0
    residual_norm = float("inf")
    m = min(restart, n)

    # Scratch for the in-place Gram-Schmidt update (one per solve).
    scratch = np.empty(n)

    while total_inner < max_iterations:
        r = b - apply_a(x)
        residual_norm = math.sqrt(float(np.dot(r, r)))
        if residual_norm <= target:
            return GMRESResult(
                x=x, iterations=total_inner, restarts=restarts,
                residual_norm=residual_norm, converged=True,
            )
        # One cycle.  ``V`` is ``empty``: row ``k + 1`` is written
        # before step ``k + 1`` reads it; ``rows`` hoists the row views
        # (no ``V[i]`` per inner product).  ``g``, ``cs``, ``sn`` and the
        # Hessenberg columns are Python floats (module docstring).
        V = np.empty((m + 1, n))
        rows = list(V)
        np.divide(r, residual_norm, out=rows[0])
        g = [residual_norm]
        cs: List[float] = []
        sn: List[float] = []
        columns: List[List[float]] = []  # rotated: column k has k + 1 entries

        for k in range(m):
            if total_inner >= max_iterations:
                break
            # Modified Gram-Schmidt into row ``k + 1``: the first
            # projection reads the product out of place, the rest and
            # the normalisation work in place there.
            p = np.asarray(apply_a(rows[k]), dtype=float)
            total_inner += 1
            w = rows[k + 1]
            h0 = float(np.dot(p, rows[0]))
            h = [h0]
            np.multiply(rows[0], h0, out=scratch)
            np.subtract(p, scratch, out=w)
            for v in rows[1 : k + 1]:
                hik = float(np.dot(w, v))
                h.append(hik)
                np.multiply(v, hik, out=scratch)
                w -= scratch
            sub = math.sqrt(float(np.dot(w, w)))
            # "Happy breakdown": the Krylov space became invariant.
            # Tested on the subdiagonal itself, which the new rotation
            # below eliminates.  Row ``k + 1`` is then never read.
            happy_breakdown = sub <= 1e-300
            if not happy_breakdown:
                w /= sub
            # Apply previous rotations, then compute the new one.
            hi = h[0]
            for i in range(k):
                c, s, hn = cs[i], sn[i], h[i + 1]
                h[i] = c * hi + s * hn
                hi = -s * hi + c * hn
            denom = float(np.hypot(hi, sub))
            if denom == 0.0:
                c, s = 1.0, 0.0
            else:
                c = hi / denom
                s = sub / denom
            h[k] = c * hi + s * sub
            cs.append(c)
            sn.append(s)
            columns.append(h)
            gk = g[k]
            g[k] = c * gk
            g.append(-s * gk)
            residual_norm = abs(g[k + 1])
            if residual_norm <= target or happy_breakdown:
                break

        if columns:
            # Solve the triangular system and update x.  The rotated
            # columns go into a C-ordered array first: ``np.dot`` on
            # unit-stride row slices is part of the rounding contract.
            k_used = len(columns)
            H = np.zeros((k_used, k_used))
            for j, h in enumerate(columns):
                H[: j + 1, j] = h
            y = np.zeros(k_used)
            for i in range(k_used - 1, -1, -1):
                y[i] = (g[i] - float(np.dot(H[i, i + 1 :], y[i + 1 :]))) / H[i, i]
            x = x + V[:k_used].T @ y

        restarts += 1
        if residual_norm <= target:
            break

    # Recompute the true residual to report an honest norm; a cycle
    # whose estimate met the target is allowed a factor 10 on it.
    r = b - apply_a(x)
    true_norm = math.sqrt(float(np.dot(r, r)))
    slack = 10.0 if residual_norm <= target else 1.0
    return GMRESResult(
        x=x, iterations=total_inner, restarts=restarts,
        residual_norm=true_norm, converged=true_norm <= slack * target,
    )


__all__ = ["gmres", "GMRESResult"]
