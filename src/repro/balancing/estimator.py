"""Per-rank load estimation from observed iteration rates.

A rank's *speed* is not declared anywhere -- the simulator knows host
speeds, real threads do not, and a fault plan's host-slowdown windows
change them mid-run.  The estimator therefore derives speed the only
way that works on both backends: observe how many rows the rank
actually updated per second of its own clock (virtual seconds on the
simulator via the ``Now`` effect, wall seconds on threads), and smooth
the samples so one noisy scheduling burst does not trigger a
migration.
"""

from __future__ import annotations

from typing import Optional

#: Weight of the newest sample in the exponential moving average.  High
#: enough to track a genuine host slowdown within two probes, low
#: enough to damp thread-scheduling jitter.
EWMA_ALPHA = 0.5


class RateEstimator:
    """Rows-per-second throughput from (time, work) observations.

    Usage: call :meth:`note` once per local iteration with the rows
    just updated, and :meth:`sample` at each probe with the current
    clock reading.  The first sample only arms the window and reports
    ``0.0`` (callers treat a zero rate as "unknown: don't migrate").
    """

    def __init__(self, alpha: float = EWMA_ALPHA) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self._work = 0.0
        self._window_work = 0.0
        self._window_start: Optional[float] = None
        self._rate: Optional[float] = None

    @property
    def rate(self) -> float:
        """Current smoothed throughput estimate (0.0 while unknown)."""
        return self._rate if self._rate is not None else 0.0

    def note(self, rows: int) -> None:
        """Record one completed iteration over ``rows`` rows."""
        if rows > 0:
            self._work += rows

    def sample(self, now: float) -> float:
        """Fold the window since the previous sample into the estimate."""
        if self._window_start is None:
            self._window_start = now
            self._window_work = self._work
            return 0.0
        dt = now - self._window_start
        if dt <= 0:
            return self.rate
        instantaneous = (self._work - self._window_work) / dt
        if self._rate is None:
            self._rate = instantaneous
        else:
            self._rate = (
                self.alpha * instantaneous + (1.0 - self.alpha) * self._rate
            )
        self._window_start = now
        self._window_work = self._work
        return self.rate


__all__ = ["RateEstimator", "EWMA_ALPHA"]
