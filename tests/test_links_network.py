"""Unit tests for hosts, links and the network topology."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simgrid.host import Host
from repro.simgrid.link import Link, kbit, mbit
from repro.simgrid.network import Network, NoRouteError


# ----------------------------------------------------------------------
# hosts
# ----------------------------------------------------------------------
def test_host_compute_time():
    host = Host(name="h", speed=2.0e6)
    assert host.compute_time(1.0e6) == pytest.approx(0.5)


def test_host_zero_flops_is_free():
    assert Host(name="h", speed=1.0).compute_time(0.0) == 0.0


def test_host_rejects_nonpositive_speed():
    with pytest.raises(ValueError):
        Host(name="h", speed=0.0)
    with pytest.raises(ValueError):
        Host(name="h", speed=-1.0)


def test_host_rejects_negative_flops():
    with pytest.raises(ValueError):
        Host(name="h", speed=1.0).compute_time(-5.0)


# ----------------------------------------------------------------------
# links
# ----------------------------------------------------------------------
def test_bandwidth_conversions():
    assert mbit(10.0) == pytest.approx(1.25e6)
    assert kbit(512.0) == pytest.approx(64_000.0)


def test_link_transmission_time():
    link = Link(name="l", latency=1e-3, bandwidth=1e6)
    assert link.transmission_time(5e5) == pytest.approx(0.5)


def test_link_reserve_excludes_latency():
    link = Link(name="l", latency=0.5, bandwidth=1e6)
    start, end = link.reserve(now=0.0, size=1e6)
    assert start == 0.0
    assert end == pytest.approx(1.0)  # occupancy only, no latency


def test_link_fifo_serialisation():
    link = Link(name="l", latency=0.0, bandwidth=1e6)
    s1, e1 = link.reserve(0.0, 1e6)
    s2, e2 = link.reserve(0.0, 1e6)
    assert (s1, e1) == (0.0, 1.0)
    assert (s2, e2) == (1.0, 2.0)


def test_link_idle_gap_not_double_counted():
    link = Link(name="l", latency=0.0, bandwidth=1e6)
    link.reserve(0.0, 1e6)        # busy until 1.0
    s, e = link.reserve(5.0, 1e6)  # link idle 1..5
    assert s == 5.0 and e == 6.0


def test_link_counts_transfers_and_bytes():
    link = Link(name="l", latency=0.0, bandwidth=1e6)
    link.reserve(0.0, 100.0)
    link.reserve(0.0, 200.0)
    assert link.transfers == 2
    assert link.bytes_carried == 300.0


def test_link_validation():
    with pytest.raises(ValueError):
        Link(name="l", latency=-1.0, bandwidth=1.0)
    with pytest.raises(ValueError):
        Link(name="l", latency=0.0, bandwidth=0.0)
    with pytest.raises(ValueError):
        Link(name="l", latency=0.0, bandwidth=1.0).transmission_time(-1.0)


# ----------------------------------------------------------------------
# network
# ----------------------------------------------------------------------
def _two_host_network():
    net = Network()
    a = net.add_host(Host(name="a", speed=1.0))
    b = net.add_host(Host(name="b", speed=1.0))
    link = net.add_link(Link(name="l", latency=1e-3, bandwidth=1e6))
    return net, a, b, link


def test_route_lookup_and_latency():
    net, a, b, link = _two_host_network()
    net.add_route(a, b, [link])
    route = net.route("a", "b")
    assert route.links == (link,)
    assert route.latency == pytest.approx(1e-3)


def test_missing_route_raises():
    net, a, b, link = _two_host_network()
    net.add_route(a, b, [link])
    with pytest.raises(NoRouteError):
        net.route("b", "a")


def test_completeness_detection():
    net, a, b, link = _two_host_network()
    net.add_route(a, b, [link])
    assert not net.is_complete()
    net.add_route(b, a, [link])
    assert net.is_complete()


def _network_from_routes(n_hosts, routes):
    net = Network()
    names = [f"h{i}" for i in range(n_hosts)]
    for name in names:
        net.add_host(Host(name=name, speed=1.0))
    link = net.add_link(Link(name="l", latency=1e-3, bandwidth=1e6))
    for i, j in routes:
        net.add_route(names[i], names[j], [link])
    return net, names


@st.composite
def _route_tables(draw):
    """Directed route tables: asymmetric pairs, isolated hosts, any density."""
    n_hosts = draw(st.integers(min_value=1, max_value=7))
    pairs = [(i, j) for i in range(n_hosts) for j in range(n_hosts) if i != j]
    routes = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return n_hosts, sorted(routes)


@given(table=_route_tables())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_reaches_matches_the_transitive_closure_of_the_routes(table):
    n_hosts, routes = table
    net, names = _network_from_routes(n_hosts, routes)
    hosts = {host.name: host for host in net.hosts}
    closure = {(i, i) for i in range(n_hosts)} | set(routes)
    while True:  # compose the relation with itself until it stops growing
        grown = closure | {(i, k) for i, j in closure for j2, k in closure if j == j2}
        if grown == closure:
            break
        closure = grown
    for i, src in enumerate(names):
        for j, dst in enumerate(names):  # self pairs included
            assert net.reaches(src, dst) == ((i, j) in closure)
            assert net.reaches(hosts[src], hosts[dst]) == net.reaches(src, dst)


def test_reaches_follows_route_direction_and_ignores_unknown_hosts():
    net, names = _network_from_routes(4, [(0, 1), (1, 2)])
    assert net.reaches("h0", "h2") and not net.reaches("h2", "h0")
    assert net.reaches("h3", "h3") and not net.reaches("h0", "h3")
    assert not net.reaches("h0", "ghost") and not net.reaches("ghost", "ghost")


def test_duplicate_host_rejected():
    net = Network()
    net.add_host(Host(name="a", speed=1.0))
    with pytest.raises(ValueError):
        net.add_host(Host(name="a", speed=2.0))


def test_route_to_unknown_host_rejected():
    net = Network()
    net.add_host(Host(name="a", speed=1.0))
    link = Link(name="l", latency=0.0, bandwidth=1.0)
    with pytest.raises(KeyError):
        net.add_route("a", "ghost", [link])


def test_self_route_rejected():
    net = Network()
    net.add_host(Host(name="a", speed=1.0))
    link = Link(name="l", latency=0.0, bandwidth=1.0)
    with pytest.raises(ValueError):
        net.add_route("a", "a", [link])
