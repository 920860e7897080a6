"""Topology builders for the paper's testbeds.

Each site is modelled as a switched LAN: one shared LAN link per site
(carrying both intra-site traffic and the local legs of inter-site
traffic) plus a pair of simplex uplink/downlink WAN links per site.
Intra-site routes use the LAN link; inter-site routes go
LAN -> uplink(src site) -> downlink(dst site) -> LAN, cut-through (the
latencies add up once, at delivery) with FIFO contention on every hop
-- slow uplinks therefore serialise the all-to-all exchanges exactly
the way the paper's 10 Mb / ADSL links did.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.clusters.machines import MachineSpec, PAPER_MACHINE_MIX
from repro.simgrid.host import Host
from repro.simgrid.link import Link, kbit, mbit
from repro.simgrid.network import Network

# Latency constants (one way, seconds).
LAN_LATENCY = 1.0e-4          # 100 Mb switched Ethernet
WAN_LATENCY = 5.0e-3          # inter-site academic network, 2004
ADSL_LATENCY = 3.0e-2         # consumer ADSL


def _interleaved_hosts(
    n_hosts: int,
    machine_mix: Sequence[MachineSpec],
    n_sites: int,
    speed_scale: float = 1.0,
) -> List[Host]:
    """Hosts with machine types interleaved, assigned round-robin to sites.

    ``speed_scale`` uniformly rescales machine speeds: experiments use
    it to keep the computation/communication ratio of a scaled-down
    problem in the same regime as the paper's full-size runs (see the
    :mod:`repro.experiments` package docstring).
    """
    if speed_scale <= 0:
        raise ValueError("speed_scale must be positive")
    # Sites hold *contiguous* rank blocks (the paper's linear network
    # topology for the strip-decomposed problem: a processor's two
    # neighbours are adjacent, so only one strip boundary crosses each
    # inter-site link); machine types still alternate host by host.
    per_site = (n_hosts + n_sites - 1) // n_sites
    hosts = []
    for i in range(n_hosts):
        spec = machine_mix[i % len(machine_mix)]
        site = f"site{i // per_site}"
        host = spec.make_host(name=f"{site}-node{i % per_site}", site=site)
        host.speed = spec.speed * speed_scale
        hosts.append(host)
    return hosts


def _build_sites(
    network: Network,
    hosts: List[Host],
    n_sites: int,
    lan_bandwidth: float,
    uplink: List[Tuple[float, float]],  # per site: (up bytes/s, down bytes/s)
    wan_latency: List[float],
) -> None:
    lans = {}
    ups = {}
    downs = {}
    for s in range(n_sites):
        site = f"site{s}"
        lans[site] = network.add_link(
            Link(name=f"lan-{site}", latency=LAN_LATENCY, bandwidth=lan_bandwidth)
        )
        up_bw, down_bw = uplink[s]
        ups[site] = network.add_link(
            Link(name=f"up-{site}", latency=wan_latency[s], bandwidth=up_bw)
        )
        downs[site] = network.add_link(
            Link(name=f"down-{site}", latency=wan_latency[s], bandwidth=down_bw)
        )
    for host in hosts:
        network.add_host(host)
    for a in hosts:
        for b in hosts:
            if a.name == b.name:
                continue
            if a.site == b.site:
                network.add_route(a, b, [lans[a.site]])
            else:
                network.add_route(
                    a, b, [lans[a.site], ups[a.site], downs[b.site], lans[b.site]]
                )


def ethernet_wan(
    n_hosts: int = 12,
    n_sites: int = 3,
    machine_mix: Sequence[MachineSpec] = PAPER_MACHINE_MIX,
    speed_scale: float = 1.0,
    wan_latency: float = WAN_LATENCY,
) -> Network:
    """Three distant sites connected by 10 Mb Ethernet (first test series)."""
    if n_sites < 1 or n_hosts < n_sites:
        raise ValueError("need at least one host per site")
    network = Network()
    hosts = _interleaved_hosts(n_hosts, machine_mix, n_sites, speed_scale)
    _build_sites(
        network,
        hosts,
        n_sites,
        lan_bandwidth=mbit(100.0),
        uplink=[(mbit(10.0), mbit(10.0))] * n_sites,
        wan_latency=[wan_latency] * n_sites,
    )
    return network


def ethernet_adsl(
    n_hosts: int = 12,
    n_sites: int = 4,
    adsl_site: int = 3,
    machine_mix: Sequence[MachineSpec] = PAPER_MACHINE_MIX,
    speed_scale: float = 1.0,
    wan_latency: float = WAN_LATENCY,
) -> Network:
    """Four sites, one reachable only through ADSL (second test series).

    The ADSL link is the paper's 512 Kb/s in reception and 128 Kb/s in
    sending, "far slower than the Ethernet ones".
    """
    if not 0 <= adsl_site < n_sites:
        raise ValueError("adsl_site out of range")
    network = Network()
    hosts = _interleaved_hosts(n_hosts, machine_mix, n_sites, speed_scale)
    uplink = []
    latencies = []
    for s in range(n_sites):
        if s == adsl_site:
            uplink.append((kbit(128.0), kbit(512.0)))  # (up, down)
            latencies.append(ADSL_LATENCY)
        else:
            uplink.append((mbit(10.0), mbit(10.0)))
            latencies.append(wan_latency)
    _build_sites(
        network, hosts, n_sites,
        lan_bandwidth=mbit(100.0), uplink=uplink, wan_latency=latencies,
    )
    return network


def local_cluster(
    n_hosts: int = 12,
    machine_mix: Sequence[MachineSpec] = PAPER_MACHINE_MIX,
    speed_scale: float = 1.0,
) -> Network:
    """The local heterogeneous cluster of Figure 3 (100 Mb Ethernet).

    One switched LAN; machine types are interleaved host by host, so
    the three types appear in equal numbers (the paper's logical
    organisation, chosen "in order to preserve the scalability
    feature").
    """
    network = Network()
    hosts = _interleaved_hosts(n_hosts, machine_mix, n_sites=1, speed_scale=speed_scale)
    lan = network.add_link(
        Link(name="lan-site0", latency=LAN_LATENCY, bandwidth=mbit(100.0))
    )
    for host in hosts:
        network.add_host(host)
    for a in hosts:
        for b in hosts:
            if a.name != b.name:
                network.add_route(a, b, [lan])
    return network


def uniform_cluster(
    n_hosts: int = 4,
    speed: float = 1.0e8,
    bandwidth: float = mbit(100.0),
    latency: float = LAN_LATENCY,
) -> Network:
    """Homogeneous single-switch cluster for unit tests."""
    network = Network()
    lan = network.add_link(Link(name="lan", latency=latency, bandwidth=bandwidth))
    hosts = [
        network.add_host(Host(name=f"node{i}", speed=speed, site="site0"))
        for i in range(n_hosts)
    ]
    for a in hosts:
        for b in hosts:
            if a.name != b.name:
                network.add_route(a, b, [lan])
    return network


def calibrated_cluster(
    n_hosts: int = 4,
    speed: float = 1.0e8,
    host_speeds: Optional[Sequence[float]] = None,
    latency: float = LAN_LATENCY,
    bandwidth: float = mbit(100.0),
) -> Network:
    """Single-switch cluster whose free parameters are the calibration
    search space (:mod:`repro.calibrate`).

    ``speed`` is the uniform effective host speed in flop/s;
    ``host_speeds`` optionally lists per-host speeds instead (cycled
    when shorter than ``n_hosts``).  ``latency``/``bandwidth`` shape
    the one shared LAN link every route uses.  Every parameter is a
    plain JSON number (or list of numbers), so fitted values embed
    directly in scenario ``cluster_params`` and survive the sweep
    executor's content-hash coalescing.
    """
    if n_hosts < 1:
        raise ValueError("n_hosts must be >= 1")
    if host_speeds is not None and len(host_speeds) == 0:
        raise ValueError("host_speeds must not be empty")
    network = Network()
    lan = network.add_link(
        Link(name="lan-calibrated", latency=latency, bandwidth=bandwidth)
    )
    hosts = []
    for i in range(n_hosts):
        host_speed = (
            float(host_speeds[i % len(host_speeds)])
            if host_speeds is not None
            else float(speed)
        )
        hosts.append(
            network.add_host(
                Host(name=f"cal-node{i}", speed=host_speed, site="site0")
            )
        )
    for a in hosts:
        for b in hosts:
            if a.name != b.name:
                network.add_route(a, b, [lan])
    return network


__all__ = [
    "ethernet_wan",
    "ethernet_adsl",
    "local_cluster",
    "uniform_cluster",
    "calibrated_cluster",
]
