"""Host (machine) model.

A host executes exactly one simulated process (one instance of the
program per processor, as in the paper) at a given relative speed.  The
speed is expressed in normalised Mflop/s so that the machine catalogue
of the paper (Duron 800 MHz, Pentium IV 1.7 GHz, Pentium IV 2.4 GHz)
maps onto simple relative factors.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Host:
    """A machine of the (simulated) grid.

    Parameters
    ----------
    name:
        Unique identifier, e.g. ``"site0-node3"``.
    speed:
        Compute rate in normalised flop/s.  An ``Iterate`` of ``flops``
        takes ``flops / speed`` virtual seconds on this host.
    site:
        Name of the site (cluster) this host belongs to; used by the
        network topology builders to pick intra- vs inter-site links.
    tags:
        Free-form metadata (machine model, etc.).
    """

    name: str
    speed: float
    site: str = "site0"
    tags: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.speed <= 0:
            raise ValueError(f"host {self.name!r}: speed must be positive")

    def compute_time(self, flops: float) -> float:
        """Virtual seconds needed to execute ``flops`` on this host."""
        if flops < 0:
            raise ValueError("flops must be non-negative")
        return flops / self.speed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Host({self.name!r}, speed={self.speed:g}, site={self.site!r})"


__all__ = ["Host"]
