"""Contiguous block partitioning of index ranges.

The paper decomposes vectors/matrices "vertically" (by rows) over the
processors (Section 4.3).  :class:`BlockPartition` owns that mapping:
``BlockPartition(n, m)`` balances block sizes to within one element,
:meth:`BlockPartition.weighted` sizes them in proportion to processor
speeds, and :meth:`BlockPartition.from_sizes` takes the sizes as given,
zero-width blocks included.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterator, Sequence, Tuple

import numpy as np


class BlockPartition:
    """Partition of ``range(n)`` into ``m`` contiguous blocks.

    ``m > n`` is legal: the trailing blocks are empty (zero-width
    ``[lo, lo)`` bounds).  A block can also be empty in the middle of
    the range (:meth:`from_sizes`): a rank that gave all its rows away
    still owns a well-defined, empty slice of the index range.
    """

    def __init__(self, n: int, m: int) -> None:
        if n < 0:
            raise ValueError("n must be >= 0")
        if m < 1:
            raise ValueError("m must be >= 1")
        base, extra = divmod(n, m)
        self._cover([base + 1] * extra + [base] * (m - extra))

    @classmethod
    def from_sizes(cls, sizes: Sequence[int]) -> "BlockPartition":
        """Partition from explicit per-block element counts.

        Zero-size blocks are allowed anywhere (``from_sizes([3, 0, 2])``
        partitions ``range(5)`` with an empty middle block).
        """
        sizes = [int(s) for s in sizes]
        if not sizes:
            raise ValueError("need at least one block size")
        if any(s < 0 for s in sizes):
            raise ValueError(f"sizes must be >= 0, got {sizes}")
        partition = cls.__new__(cls)
        partition._cover(sizes)
        return partition

    @classmethod
    def weighted(cls, n: int, weights: Sequence[float]) -> "BlockPartition":
        """Partition of ``range(n)`` into blocks proportional to ``weights``.

        The static load-balancing extension the paper points to (Section
        6 mentions AIAC "especially when the algorithms use load
        balancing"): on a heterogeneous cluster each processor gets a
        block proportional to its speed.  Largest-remainder
        apportionment with at least one element per block.
        """
        weights = np.asarray(list(weights), dtype=float)
        if n < 0:
            raise ValueError("n must be >= 0")
        if weights.ndim != 1 or len(weights) < 1:
            raise ValueError("need at least one weight")
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")
        if len(weights) > n:
            raise ValueError(f"more blocks ({len(weights)}) than elements ({n})")
        ideal = weights / weights.sum() * n
        sizes = np.maximum(1, np.floor(ideal).astype(int))
        while sizes.sum() > n:
            # Shrink the most over-allocated block that can still shrink.
            candidates = np.flatnonzero(sizes > 1)
            over = candidates[int(np.argmax((sizes - ideal)[candidates]))]
            sizes[over] -= 1
        while sizes.sum() < n:
            under = int(np.argmin(sizes - ideal))
            sizes[under] += 1
        return cls.from_sizes(sizes)

    def _cover(self, sizes: Sequence[int]) -> None:
        ends = list(accumulate(sizes, initial=0))
        self.n, self.m = ends[-1], len(sizes)
        self._bounds = tuple(zip(ends[:-1], ends[1:]))

    def bounds(self, block: int) -> Tuple[int, int]:
        """Half-open global index range ``[lo, hi)`` of ``block``."""
        if not 0 <= block < self.m:
            raise IndexError(f"block {block} out of range [0, {self.m})")
        return self._bounds[block]

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return iter(self._bounds)


__all__ = ["BlockPartition"]
