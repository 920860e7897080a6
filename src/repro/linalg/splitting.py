"""Matrix splittings for the fixed-point iterations of the paper.

Eq. (4) of the paper iterates ``x <- x + gamma * M^{-1} (b - A x)`` where
``M`` is "the block-diagonal matrix extracted from A".  With ``M`` the
point diagonal and ``gamma = 1`` this is exactly Jacobi.  The helpers
here extract the splitting and compute the dependency structure of a
row-block decomposition (which processor needs whose data), feeding the
dependency-graph construction of Section 4.3.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

import numpy as np

from repro.linalg.partition import BlockPartition
from repro.linalg.sparse import DiagonalMatrix, MultiDiagonalMatrix


def jacobi_splitting(matrix: MultiDiagonalMatrix) -> DiagonalMatrix:
    """Return ``M = diag(A)`` as an invertible operator.

    Raises if any diagonal entry vanishes (the splitting would be
    singular and the iteration undefined).
    """
    diag = matrix.diagonal()
    if np.any(diag == 0.0):
        raise ZeroDivisionError("matrix has zeros on the main diagonal")
    return DiagonalMatrix(diag)


def block_column_dependencies(
    matrix: MultiDiagonalMatrix, partition: BlockPartition
) -> Dict[int, Set[int]]:
    """For every block, the set of *other* blocks whose x-entries it reads.

    This is the "list of its data dependencies from other processors"
    each processor constructs in the first step of the paper's sparse
    linear algorithm (Section 4.3).
    """
    bounds = list(partition)
    m = len(bounds)
    # Column c belongs to the first block ending after it (a zero-width
    # block ends where its successor starts, so it owns nothing).
    ends = np.array([hi for _, hi in bounds])
    deps: Dict[int, Set[int]] = {}
    for block, (lo, hi) in enumerate(bounds):
        starts, stops = matrix.column_spans(lo, hi)
        # Each span reads every block from the owner of its first column
        # to the owner of its last: +1 / -1 marks, then a running sum.
        cover = np.bincount(ends.searchsorted(starts, "right"), minlength=m + 1)
        cover -= np.bincount(ends.searchsorted(stops - 1, "right") + 1, minlength=m + 1)
        needed = set(np.flatnonzero(cover.cumsum()[:m]).tolist())
        needed.discard(block)
        deps[block] = needed
    return deps


def block_ranges_dependencies(
    matrix: MultiDiagonalMatrix, partition: BlockPartition
) -> Tuple[Dict[int, Set[int]], Dict[int, Set[int]]]:
    """Providers and receivers maps for every block.

    Returns ``(providers, receivers)`` where ``providers[i]`` is the set
    of blocks whose data block ``i`` reads and ``receivers[i]`` the set
    of blocks that read block ``i``'s data (to whom updates must be
    sent).
    """
    providers = block_column_dependencies(matrix, partition)
    receivers: Dict[int, Set[int]] = {b: set() for b in range(partition.m)}
    for consumer, sources in providers.items():
        for src in sources:
            receivers[src].add(consumer)
    return providers, receivers


def dependency_graph(
    matrix: MultiDiagonalMatrix, partition: BlockPartition
) -> "nx.DiGraph":
    """The directed dependency graph of Section 1.1 (``graph`` extra).

    Edge ``u -> v`` means block ``v`` depends on data owned by ``u``.
    """
    try:
        import networkx as nx
    except ImportError as exc:
        raise ImportError(
            "dependency_graph() needs the 'graph' extra: "
            "pip install 'repro-aiac[graph]'"
        ) from exc
    providers = block_column_dependencies(matrix, partition)
    g = nx.DiGraph()
    g.add_nodes_from(range(partition.m))
    for consumer, sources in providers.items():
        for src in sources:
            g.add_edge(src, consumer)
    return g


__all__ = [
    "jacobi_splitting",
    "block_column_dependencies",
    "block_ranges_dependencies",
    "dependency_graph",
]
