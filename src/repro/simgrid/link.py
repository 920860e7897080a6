"""Network link model with latency, bandwidth and FIFO contention.

Links are *simplex*: an asymmetric connection such as the paper's ADSL
link (512 Kb/s down, 128 Kb/s up) is modelled as two :class:`Link`
objects with different bandwidths.  Each link serialises transfers in
FIFO order, which captures the head-of-line blocking that makes slow
links so punishing for synchronous algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def mbit(x: float) -> float:
    """Convert megabits/s to bytes/s (convenience for cluster presets)."""
    return x * 1e6 / 8.0


def kbit(x: float) -> float:
    """Convert kilobits/s to bytes/s."""
    return x * 1e3 / 8.0


@dataclass
class Link:
    """A simplex communication link.

    Parameters
    ----------
    name:
        Unique identifier.
    latency:
        One-way propagation + protocol latency in seconds.
    bandwidth:
        Sustained throughput in bytes/s.
    """

    name: str
    latency: float
    bandwidth: float
    # Kept by the transport's cut-through traversal
    # (``repro.simgrid.comm``): a transfer of ``size`` bytes starts FIFO
    # at ``max(now, busy_until)`` and occupies the link ``size /
    # bandwidth`` seconds.  Latency is added once per route, at
    # delivery: folded into each hop it would book links in the future
    # and, with one watermark, block traffic across idle gaps.
    busy_until: float = field(default=0.0, repr=False)
    bytes_carried: float = field(default=0.0, repr=False)
    transfers: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ValueError(f"link {self.name!r}: latency must be >= 0")
        if self.bandwidth <= 0:
            raise ValueError(f"link {self.name!r}: bandwidth must be > 0")


__all__ = ["Link", "mbit", "kbit"]
