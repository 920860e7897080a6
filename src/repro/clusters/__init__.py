"""Cluster presets modelling the paper's three testbeds (Section 5.1).

* :func:`ethernet_wan` -- heterogeneous machines scattered on three
  distinct sites connected by 10 Mb Ethernet links;
* :func:`ethernet_adsl` -- four sites, one of them behind an ADSL link
  (512 Kb/s down, 128 Kb/s up), "representative of a difficult case
  (and probably the most common one) of grid environment";
* :func:`local_cluster` -- a local heterogeneous cluster (100 Mb
  Ethernet) mixing Duron 800 MHz, Pentium IV 1.7 GHz and Pentium IV
  2.4 GHz machines, types interleaved in the logical organisation "in
  order to preserve the scalability feature";
* :func:`uniform_cluster` -- a homogeneous test cluster.
"""

from typing import Any, Callable, List

from repro.clusters.machines import (
    DURON_800,
    MachineSpec,
    P4_1700,
    P4_2400,
    PAPER_MACHINE_MIX,
    get_machine,
)
from repro.clusters.presets import (
    calibrated_cluster,
    ethernet_adsl,
    ethernet_wan,
    local_cluster,
    uniform_cluster,
)
from repro.registry import Registry

CLUSTER_REGISTRY = Registry("cluster")


def register_cluster(name=None, **kwargs) -> Callable:
    """Register a cluster builder (``(**params) -> Network``) by name.

    Like every registry here a taken name raises ``ValueError``
    (unless ``overwrite=True``); registered names are usable in
    :class:`repro.api.Scenario` dicts.
    """
    return CLUSTER_REGISTRY.register(name, **kwargs)


def get_cluster(name: str, **params: Any):
    """Build a :class:`~repro.simgrid.network.Network` from a preset name.

    Unlike an environment, which :func:`repro.envs.get_environment`
    returns as a value, a cluster preset is a builder, so keyword
    parameters are forwarded to it.  A
    ``machine_mix`` given as machine *names* (e.g. ``["duron_800",
    "p4_2400"]``) is resolved through the machine catalogue so scenarios
    stay describable as plain JSON dicts.
    """
    builder = CLUSTER_REGISTRY.get(name)
    mix = params.get("machine_mix")
    if mix is not None:
        params["machine_mix"] = tuple(
            get_machine(m) if isinstance(m, str) else m for m in mix
        )
    return builder(**params)


def list_clusters() -> List[str]:
    """Sorted names of all registered cluster presets."""
    return CLUSTER_REGISTRY.names()


register_cluster("ethernet_wan")(ethernet_wan)
register_cluster("ethernet_adsl")(ethernet_adsl)
register_cluster("local_cluster")(local_cluster)
register_cluster("uniform_cluster")(uniform_cluster)
register_cluster("calibrated")(calibrated_cluster)

# Fitted presets emitted by `repro calibrate` ship inside the
# repro.calibrate package and register themselves here, so scenario
# dicts can name them without any explicit calibrate import.  The
# presets module keeps its top-level imports light (stdlib + this
# package) precisely so this late import cannot cycle.
from repro.calibrate.presets import register_shipped_presets  # noqa: E402

register_shipped_presets()

__all__ = [
    "CLUSTER_REGISTRY",
    "register_cluster",
    "get_cluster",
    "list_clusters",
    "get_machine",
    "MachineSpec",
    "DURON_800",
    "P4_1700",
    "P4_2400",
    "PAPER_MACHINE_MIX",
    "ethernet_wan",
    "ethernet_adsl",
    "local_cluster",
    "uniform_cluster",
    "calibrated_cluster",
]
