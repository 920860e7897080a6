"""Protocols binding problems to the parallel workers.

The AIAC and SISC workers of :mod:`repro.core` are generic: they drive
any object implementing :class:`LocalSolver` (single-level iterative
problems, e.g. the sparse linear system) or :class:`SteppedLocalSolver`
(time-stepped problems with an inner iterative process per step, e.g.
the chemical problem).  The solver's shape picks the step loop: a
solver with ``n_steps`` runs one inner process per time step, so each
protocol has one worker for both.  This is the concrete form of the
paper's comparison discipline: the *same* computation scheme runs under
every environment and both synchronisation modes.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Dict, Set, Tuple

import numpy as np


@dataclass(slots=True)
class LocalIteration:
    """Result of one local iteration (one per solver call: slotted).

    Attributes
    ----------
    residual:
        Local residual (max norm between consecutive local iterates,
        Section 1.2), already scaled appropriately for the problem.
    flops:
        Floating-point work actually performed, used by the simulator
        to charge virtual compute time.
    outgoing:
        ``dest_rank -> (payload, size_bytes)``: data updates to offer
        to the communication manager (subject to the skip-send rule).
    meta:
        Free-form diagnostics (Newton iterations, GMRES iterations...).
    """

    residual: float
    flops: float
    outgoing: Dict[int, Tuple[Any, float]] = field(default_factory=dict)
    meta: Dict[str, Any] = field(default_factory=dict)


class LocalSolver(abc.ABC):
    """Per-processor state and update kernel for a block problem."""

    rank: int
    size: int

    @abc.abstractmethod
    def providers(self) -> Set[int]:
        """Ranks whose data this rank reads (its dependency list)."""

    @abc.abstractmethod
    def initial_outgoing(self) -> Dict[int, Tuple[Any, float]]:
        """Initial data to communicate before the first iteration.

        The paper's algorithms start by computing the dependencies on
        each processor "and communicating them to all others".
        """

    @abc.abstractmethod
    def integrate(self, src: int, payload: Any) -> None:
        """Incorporate freshly received data from ``src``.

        Called as soon as messages become visible ("as soon as data are
        received, they are taken into account in the computations").
        """

    @abc.abstractmethod
    def iterate(self) -> LocalIteration:
        """Perform one local iteration on the latest available data."""

    @abc.abstractmethod
    def local_solution(self) -> np.ndarray:
        """Current local part of the global solution vector."""


class SteppedLocalSolver(LocalSolver):
    """Local solver for problems with an outer time-step loop.

    The chemical problem's structure (Section 4.3): a main loop over
    time steps with a synchronisation barrier between steps; inside a
    step, an (a)synchronous iterative process runs to convergence.
    """

    @property
    @abc.abstractmethod
    def n_steps(self) -> int:
        """Number of outer time steps (at least one)."""

    @abc.abstractmethod
    def begin_step(self, step: int) -> None:
        """Prepare the inner iterative process of time step ``step``."""

    @abc.abstractmethod
    def end_step(self, step: int) -> None:
        """Commit the converged state of time step ``step``."""


__all__ = ["LocalIteration", "LocalSolver", "SteppedLocalSolver"]
