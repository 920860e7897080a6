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
    # Time at which the link becomes free for the next transfer.  The
    # FIFO discipline is enforced by always starting a new transfer at
    # ``max(now, busy_until)``.
    busy_until: float = field(default=0.0, repr=False)
    bytes_carried: float = field(default=0.0, repr=False)
    transfers: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ValueError(f"link {self.name!r}: latency must be >= 0")
        if self.bandwidth <= 0:
            raise ValueError(f"link {self.name!r}: bandwidth must be > 0")

    def transmission_time(self, size: float) -> float:
        """Seconds of link occupancy for a message of ``size`` bytes."""
        if size < 0:
            raise ValueError("size must be non-negative")
        return size / self.bandwidth

    def reserve(self, now: float, size: float) -> tuple[float, float]:
        """Reserve the link for one message, FIFO.

        Returns ``(start, end)`` where the transfer occupies the link
        during ``[start, end] = [start, start + size/bandwidth]``.
        Propagation latency is *not* included: the transport adds the
        total route latency once, at delivery (cut-through model).
        Reserving with latency folded into the hop-to-hop handoff would
        make messages book links several milliseconds in the future,
        which -- with a single ``busy_until`` watermark -- would block
        other traffic across gaps where the link is actually idle.
        """
        start = max(now, self.busy_until)
        occupancy = self.transmission_time(size)
        self.busy_until = start + occupancy
        self.bytes_carried += size
        self.transfers += 1
        return start, start + occupancy


__all__ = ["Link", "mbit", "kbit"]
