"""Termination detection: the whole AIAC stopping policy, in one place.

The paper's protocol (Section 4.3):

* a processor reaches *local convergence* when the residual between two
  consecutive approximations of its local data falls under the
  threshold;
* because of the continuous nature of the computations "oscillations in
  the residual are possible and then local convergence may be
  alternatively detected and canceled", so a processor only *believes*
  its local convergence after a specified number of consecutive
  under-threshold iterations, and sends its state to the coordinator
  **only when it changes** (to avoid overloading the network);
* a *centralized* detector (one designated processor) gathers the
  states; when every processor is locally converged it broadcasts a
  stop signal.  The detection work is "a very small computation", so
  the overloading of the central node is negligible.

:class:`Detector` is that protocol for one rank as an effect-free,
clock-free state machine; what it guarantees, and what it does not, is
in DESIGN.md ("Termination detection").
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

INF = float("inf")

#: The rank that runs the centralised detector.
COORDINATOR = 0


class LocalConvergenceTracker:
    """Tracks one processor's local convergence with an oscillation guard:
    it is believed after ``stability_count`` *consecutive* residuals
    under ``threshold`` (the paper's epsilon of Eq. 5).
    """

    def __init__(self, threshold: float, stability_count: int = 1) -> None:
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        if stability_count < 1:
            raise ValueError("stability_count must be >= 1")
        self.threshold = threshold
        self.stability_count = stability_count
        self.consecutive_under = 0
        self.converged = False
        self.state_changes = 0
        self.last_residual = INF

    def update(self, residual: float) -> bool:
        """Record a new residual; returns True when the state *changed*.

        A state change (either direction) is what triggers a state
        message to the coordinator.
        """
        if residual < 0:
            raise ValueError("residual must be non-negative")
        self.last_residual = residual
        if residual < self.threshold:
            self.consecutive_under += 1
        else:
            self.consecutive_under = 0
        new_state = self.consecutive_under >= self.stability_count
        changed = new_state != self.converged
        if changed:
            self.converged = new_state
            self.state_changes += 1
        return changed

    def reset(self) -> None:
        """Re-arm the tracker (new time step of a stepped problem)."""
        self.consecutive_under = 0
        self.converged = False
        self.last_residual = INF


class CoordinatorPanel:
    """The central node's view of everyone's local convergence.

    Keeps, per rank, the state with the highest stamp seen.  Reordered
    and duplicated delivery is tolerated: an update whose stamp is not
    above the recorded one is ignored.
    """

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError("size must be >= 1")
        self.size = size
        self._state: List[bool] = [False] * size
        self._iteration: List[int] = [-1] * size
        self.messages_processed = 0
        self.stale_messages = 0

    def update(self, rank: int, iteration: int, converged: bool) -> None:
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} out of range")
        self.messages_processed += 1
        if iteration <= self._iteration[rank]:
            self.stale_messages += 1
            return
        self._iteration[rank] = iteration
        self._state[rank] = converged

    def all_converged(self) -> bool:
        return all(self._state)


class Detector:
    """One rank's side of the termination protocol.

    Inputs: :meth:`data` (a data message from ``src`` was integrated),
    :meth:`iterated`, :meth:`migrated`, :meth:`state` (coordinator: a
    report arrived) and :meth:`stop` (worker: the stop signal arrived).
    ``iterated``/``migrated`` return the state report to send to the
    coordinator -- ``(rank, stamp, flag)``, stamps strictly increasing
    per rank -- or ``None``; the coordinator's own report goes straight
    into its panel and is never on the wire.  ``opts`` is read for
    ``eps``, ``stability_count`` and ``freshness_window``; rank
    :data:`COORDINATOR` keeps the panel.
    """

    __slots__ = ("rank", "iterations", "reports", "stopped", "_providers", "_heard",
                 "_all_heard", "_window", "_measured", "_stamp", "_tracker", "_panel")

    def __init__(self, rank: int, size: int, providers: Iterable[int], opts: Any) -> None:
        self.rank = rank
        self.iterations = 0
        self.reports = 0  # state messages handed to the caller to send
        self.stopped = False
        self._providers = frozenset(providers)
        self._heard: Dict[int, int] = {}  # provider -> iteration count at its last arrival
        self._all_heard = False
        self._window: Optional[int] = opts.freshness_window
        self._measured = INF
        self._stamp = 0
        self._tracker = LocalConvergenceTracker(opts.eps, opts.stability_count)
        self._panel = CoordinatorPanel(size) if rank == COORDINATOR else None

    def data(self, src: int) -> None:
        self._heard[src] = self.iterations

    def iterated(self, residual: float, held: bool = False) -> Optional[Tuple[int, int, bool]]:
        """One iteration ended with this update norm; ``held`` vetoes
        convergence (rows of a migration in flight)."""
        self.iterations = k = self.iterations + 1
        self._measured = residual
        # A flag is only believed once every dependency has been heard
        # from in this iterative process -- or a quiescent block declares
        # convergence before its neighbours' transients reach it -- which
        # is monotone, hence the latch; and, under ``freshness_window``,
        # only while each was heard within the last ``window`` iterations.
        if not self._all_heard:
            self._all_heard = self._providers <= self._heard.keys()
        window = self._window
        if held or not self._all_heard or (
            window is not None
            and any(k - self._heard[p] > window for p in self._providers)
        ):
            residual = INF
        if self._tracker.update(residual):
            return self._report(self._tracker.converged)
        return None

    def migrated(self) -> Optional[Tuple[int, int, bool]]:
        """Rows moved: the resized block re-earns its streak, and a flag
        the coordinator holds is taken back so no stop races the redo."""
        was_converged = self._tracker.converged
        self._tracker.reset()
        return self._report(False) if was_converged else None

    def _report(self, flag: bool) -> Optional[Tuple[int, int, bool]]:
        self._stamp += 1
        if self._panel is not None:
            self._panel.update(self.rank, self._stamp, flag)
            return None
        self.reports += 1
        return (self.rank, self._stamp, flag)

    def state(self, rank: int, stamp: int, flag: bool) -> None:
        self._panel.update(rank, stamp, flag)

    def halt(self) -> bool:
        """Coordinator: every rank's newest report is ``True`` -- broadcast the stop."""
        self.stopped = self._panel.all_converged()
        return self.stopped

    def stop(self) -> None:
        self.stopped = True

    @property
    def converged(self) -> bool:
        """This rank's belief in its local convergence; ``True`` once stopped."""
        return self._tracker.converged or self.stopped

    @property
    def residual(self) -> float:
        """The update norm to report at exit.  The tracker's can be an
        *artificial* infinity (hold, freshness veto) that a stop signal
        raced -- the coordinator halted on this rank's earlier, honest
        report -- so a stopped rank reports its last *measured* norm and
        "success implies finite residual" stays truthful."""
        residual = self._tracker.last_residual
        return self._measured if self.stopped and not residual < INF else residual


__all__ = ["COORDINATOR", "LocalConvergenceTracker", "CoordinatorPanel", "Detector"]
