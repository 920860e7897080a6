"""Sparse matrix implementations (from scratch, numpy-backed).

* :class:`DiagonalMatrix` -- a diagonal matrix (the ``D`` of a Jacobi
  splitting).
* :class:`MultiDiagonalMatrix` -- the structure used by the paper's
  sparse linear problem ("repartition of non-zero values: 30
  sub-diagonals", Table 1).  Diagonals are stored densely (DIA layout)
  and every product goes through one prepared
  :class:`RowBlockOperator` per row block (the row-wise decomposition
  of Section 4.3): the diagonals that meet the block, each read as a
  contiguous window of a zero-padded ``x``, fused by one ``einsum``
  with no per-diagonal Python loop (see the
  ``linalg.dia_row_block_matvec_us`` layer metric of ``benchmarks/perf/``).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np


class DiagonalMatrix:
    """A diagonal matrix ``D`` with O(n) apply/solve."""

    def __init__(self, diagonal: np.ndarray) -> None:
        self.diagonal = np.asarray(diagonal, dtype=float).copy()
        if self.diagonal.ndim != 1:
            raise ValueError("diagonal must be a vector")

    @property
    def n(self) -> int:
        return len(self.diagonal)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.diagonal * x

    def solve(self, b: np.ndarray) -> np.ndarray:
        if np.any(self.diagonal == 0):
            raise ZeroDivisionError("singular diagonal matrix")
        return b / self.diagonal


class MultiDiagonalMatrix:
    """Square matrix whose non-zeros lie on a fixed set of diagonals.

    ``offsets[k]`` gives the diagonal index (0 = main, +k above, -k
    below) and ``data[k][i]`` stores ``A[i, i + offsets[k]]`` (entries
    outside the matrix are kept as zeros so every diagonal has length
    ``n``; they are never touched by the mat-vec).
    """

    def __init__(self, n: int, offsets: Sequence[int], data: np.ndarray | None = None) -> None:
        if n < 1:
            raise ValueError("n must be >= 1")
        offsets = list(offsets)
        if len(set(offsets)) != len(offsets):
            raise ValueError("duplicate diagonal offsets")
        for k in offsets:
            if abs(k) >= n:
                raise ValueError(f"offset {k} out of range for n={n}")
        self.n = n
        self.offsets = np.array(sorted(offsets), dtype=int)
        if data is None:
            self.data = np.zeros((len(offsets), n), dtype=float)
        else:
            data = np.asarray(data, dtype=float)
            if data.shape != (len(offsets), n):
                raise ValueError(
                    f"data shape {data.shape} != ({len(offsets)}, {n})"
                )
            # ``data`` rows must follow the sorted offset order.
            order = np.argsort(offsets)
            self.data = data[order].copy()
            # Enforce the documented contract: positions outside the
            # matrix are kept as zeros.
            for idx, k in enumerate(self.offsets):
                lo, hi = self._valid_range(int(k))
                self.data[idx, :lo] = 0.0
                self.data[idx, hi:] = 0.0
        self._offset_index: Dict[int, int] = {
            int(k): i for i, k in enumerate(self.offsets)
        }

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def set_diagonal(self, offset: int, values: np.ndarray | float) -> None:
        """Assign a whole diagonal (scalar broadcast allowed).

        Out-of-matrix positions are zeroed automatically.
        """
        idx = self._offset_index.get(offset)
        if idx is None:
            raise KeyError(f"matrix has no diagonal at offset {offset}")
        lo, hi = self._valid_range(offset)
        self.data[idx] = 0.0
        self.data[idx, lo:hi] = values

    def _valid_range(self, offset: int) -> Tuple[int, int]:
        """Rows for which ``A[i, i+offset]`` is inside the matrix."""
        lo = max(0, -offset)
        hi = min(self.n, self.n - offset)
        return lo, hi

    # ------------------------------------------------------------------
    # products
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(sum(hi - lo for lo, hi in (self._valid_range(int(k)) for k in self.offsets)))

    def row_block(self, lo: int, hi: int, x=None) -> "RowBlockOperator":
        """Prepared product ``x -> (A x)[lo:hi]`` for rows ``[lo, hi)``.

        This is the local computation of a processor owning those rows
        in the row-wise decomposition of Section 4.3; build it once per
        rank and iterate on its working vector ``.x`` (zeros, or a copy
        of ``x`` when given).
        """
        return RowBlockOperator(self, lo, hi, x)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"vector length {x.shape} != ({self.n},)")
        return self.row_block_matvec(0, self.n, x)

    def row_block_matvec(self, lo: int, hi: int, x: np.ndarray) -> np.ndarray:
        """``(A x)[lo:hi]`` using the *global* vector ``x``.

        One-shot form of :meth:`row_block`: a fresh operator, ``x``
        copied into its working vector, one product.
        """
        return self.row_block(lo, hi, x).matvec()

    def column_spans(self, lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`column_dependencies` as ``(starts, stops)`` arrays."""
        k = self.offsets
        # Each diagonal's rows inside the matrix, clipped to [lo, hi).
        rlo = np.maximum(-k, max(lo, 0))
        rhi = np.minimum(self.n - k, min(hi, self.n))
        meets = rlo < rhi
        return rlo[meets] + k[meets], rhi[meets] + k[meets]

    def column_dependencies(self, lo: int, hi: int) -> List[Tuple[int, int]]:
        """Global column ranges read by rows ``[lo, hi)``, one per diagonal."""
        starts, stops = self.column_spans(lo, hi)
        return list(zip(starts.tolist(), stops.tolist()))

    # ------------------------------------------------------------------
    # conversions / analysis
    # ------------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.n, self.n), dtype=float)
        for idx, k in enumerate(self.offsets):
            k = int(k)
            lo, hi = self._valid_range(k)
            rows = np.arange(lo, hi)
            dense[rows, rows + k] = self.data[idx, lo:hi]
        return dense

    def diagonal(self) -> np.ndarray:
        """Main diagonal (zeros if the matrix has none)."""
        if 0 in self._offset_index:
            return self.data[self._offset_index[0]].copy()
        return np.zeros(self.n, dtype=float)

    def offdiagonal_row_sums(self) -> np.ndarray:
        """``sum_{j != i} |A[i, j]|`` for every row, vectorised."""
        sums = np.zeros(self.n, dtype=float)
        for idx, k in enumerate(self.offsets):
            k = int(k)
            if k == 0:
                continue
            lo, hi = self._valid_range(k)
            sums[lo:hi] += np.abs(self.data[idx, lo:hi])
        return sums

    def jacobi_spectral_bound(self) -> float:
        """Upper bound on the spectral radius of ``D^{-1}(L+U)``.

        Strict diagonal dominance makes this < 1, guaranteeing both
        synchronous and asynchronous convergence of the fixed-point
        iteration (the paper designs its matrix to have spectral radius
        below one, Section 5.1).
        """
        diag = self.diagonal()
        if np.any(diag == 0):
            return float("inf")
        return float(np.max(self.offdiagonal_row_sums() / np.abs(diag)))


class RowBlockOperator:
    """``(A x)[lo:hi]`` of a :class:`MultiDiagonalMatrix`, prepared once.

    Only the diagonals that meet rows ``[lo, hi)`` take part: in sorted
    offset order they are one contiguous slice, kept as the *view*
    ``matrix.data[d0:d1, lo:hi]`` (later ``set_diagonal`` calls stay
    visible).  The operator owns a zero-padded working vector whose
    middle ``n`` entries are :attr:`x` -- callers iterate on ``x`` in
    place, so no product ever copies or pads it -- and diagonal ``k``
    reads its operand as the contiguous window ``x[lo+k : hi+k]`` of
    that buffer: a row memcpy per diagonal instead of an indexed load
    per element.  Where a window overhangs the matrix it reads the
    zero padding, never an ``x`` entry outside the block's
    :meth:`~MultiDiagonalMatrix.column_dependencies` (whose ``inf`` or
    ``NaN`` would otherwise poison the row through ``0 * inf``).

    The buffer belongs to this operator alone: ranks sharing one matrix
    each build their own.
    """

    def __init__(self, matrix: MultiDiagonalMatrix, lo: int, hi: int, x=None) -> None:
        n = matrix.n
        if not 0 <= lo <= hi <= n:
            raise ValueError(f"bad row range [{lo}, {hi})")
        self.matrix = matrix
        self.lo = lo
        self.hi = hi
        rows = hi - lo
        offsets = matrix.offsets
        # Diagonal k holds an entry of some row i in [lo, hi) iff
        # 0 <= i + k < n, i.e. -(hi - 1) <= k <= n - 1 - lo.
        d0 = d1 = left = right = 0
        if rows:
            d0 = int(offsets.searchsorted(1 - hi, "left"))
            d1 = int(offsets.searchsorted(n - 1 - lo, "right"))
        if d1 > d0:
            # Overhang of the lowest / highest window beyond ``x``.
            left = max(0, -(lo + int(offsets[d0])))
            right = max(0, hi + int(offsets[d1 - 1]) - n)
        buffer = np.zeros(left + n + right, dtype=float)
        self.x = buffer[left : left + n]
        if x is not None:
            self.x[:] = x
        self._data = matrix.data[d0:d1, lo:hi]
        # Diagonal k reads x[lo + k : hi + k]: one window start each.
        self._starts = offsets[d0:d1] + (lo + left)
        # Every length-``rows`` window of the buffer, as a read-only
        # strided view (no copy): row ``s`` is ``buffer[s : s + rows]``.
        self._windows = np.ndarray(
            (len(buffer) - rows + 1, rows), float, buffer, 0, 2 * buffer.strides
        )
        self._windows.flags.writeable = False

    def matvec(self) -> np.ndarray:
        """``(A x)[lo:hi]`` for the current contents of :attr:`x`."""
        return np.einsum("ij,ij->j", self._data, self._windows[self._starts])

    def __reduce__(self):
        # Rebuild instead of pickling the window view, which would be
        # materialised at (positions x rows) values.
        return (RowBlockOperator, (self.matrix, self.lo, self.hi, self.x))


__all__ = ["DiagonalMatrix", "MultiDiagonalMatrix", "RowBlockOperator"]
