"""Machine catalogue (the paper's local heterogeneous cluster).

Section 5.1 names three kinds of machines: Duron 800 MHz, Pentium IV
1.7 GHz and Pentium IV 2.4 GHz.  Speeds below are *effective* rates in
the simulator's normalised flop/s, keeping the relative factors of the
real processors (a P4 2.4 is roughly 3x a Duron 800 on this kind of
memory-bound sparse kernel).  Absolute values only matter relative to
the link speeds of the cluster presets; the :mod:`repro.experiments`
package docstring documents the calibration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.simgrid.host import Host


@dataclass(frozen=True)
class MachineSpec:
    """A machine model that can be instantiated into simulator hosts."""

    model: str
    clock_mhz: float
    speed: float  # effective flop/s in the simulator

    def make_host(self, name: str, site: str = "site0") -> Host:
        return Host(
            name=name,
            speed=self.speed,
            site=site,
            tags={"model": self.model, "clock_mhz": self.clock_mhz},
        )


DURON_800 = MachineSpec(model="Duron 800", clock_mhz=800.0, speed=4.0e7)
P4_1700 = MachineSpec(model="Pentium IV 1.7", clock_mhz=1700.0, speed=8.5e7)
P4_2400 = MachineSpec(model="Pentium IV 2.4", clock_mhz=2400.0, speed=1.2e8)

#: The interleaving used by the paper's local cluster ("merely the same
#: number of machines of each type ... types interleaved").
PAPER_MACHINE_MIX: Tuple[MachineSpec, ...] = (DURON_800, P4_1700, P4_2400)

#: Machines addressable by name, so cluster parameters in scenario
#: dicts (e.g. ``machine_mix=["duron_800", "p4_2400"]``) stay JSON.
MACHINES = {
    "duron_800": DURON_800,
    "p4_1700": P4_1700,
    "p4_2400": P4_2400,
}


def get_machine(name: str) -> MachineSpec:
    """Look up a machine model by its catalogue name."""
    try:
        return MACHINES[name]
    except KeyError:
        raise KeyError(
            f"unknown machine {name!r}; known: {sorted(MACHINES)}"
        ) from None


def list_machines():
    """Sorted names of the machine catalogue."""
    return sorted(MACHINES)


__all__ = [
    "MachineSpec",
    "DURON_800",
    "P4_1700",
    "P4_2400",
    "PAPER_MACHINE_MIX",
    "MACHINES",
    "get_machine",
    "list_machines",
]
