"""Unit tests for hosts, links and the network topology."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.faults import FaultPlan, LinkDegradation
from repro.core.effects import Message, SendHandle
from repro.envs.base import CommPolicy
from repro.simgrid.comm import Transport
from repro.simgrid.engine import Engine
from repro.simgrid.faults import SimFaultInjector
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


#: Only the links cost anything: no software time, a thread per message,
#: and every send a rendezvous one, so a handle's ``sender_done_at`` is
#: the instant the message cleared its route's links, bit for bit, and
#: its ``completed_at`` the arrival at the destination host.
LINKS_ONLY = CommPolicy(name="links", n_send_threads=None, thread_spawn_cost=0.0,
                        send_base=0.0, recv_base=0.0, blocking_send=True,
                        rendezvous_threshold=0.0)


def _carry(network, sends, plan=None):
    """Send ``(time, src host, dst host, size)`` messages through a
    transport over ``network``; ``(links clear, arrival)`` per send."""
    engine = Engine()
    ranks = {host.name: rank for rank, host in enumerate(network.hosts)}
    transport = Transport(engine, network, LINKS_ONLY,
                          {rank: name for name, rank in ranks.items()})
    if plan is not None:
        SimFaultInjector(plan).install(
            SimpleNamespace(engine=engine, network=network, hosts=[]))
    handles = []
    for when, src, dst, size in sends:
        handle = SendHandle()
        handles.append(handle)
        message = Message(src=ranks[src], dst=ranks[dst], tag="d", payload=None, size=size)
        engine.post_at(when, lambda m=message, h=handle: transport.send(m, h))
    engine.run()
    return [(h.sender_done_at, h.completed_at) for h in handles]


def _one_link(link):
    net = Network()
    a = net.add_host(Host(name="a", speed=1.0))
    b = net.add_host(Host(name="b", speed=1.0))
    net.add_route(a, b, [link])
    return net


def test_link_transmission_time():
    link = Link(name="l", latency=1e-3, bandwidth=1e6)
    ((clear, _),) = _carry(_one_link(link), [(0.0, "a", "b", 5e5)])
    assert clear == pytest.approx(0.5)


def test_link_reserve_excludes_latency():
    link = Link(name="l", latency=0.5, bandwidth=1e6)
    ((clear, arrival),) = _carry(_one_link(link), [(0.0, "a", "b", 1e6)])
    assert clear == pytest.approx(1.0)  # occupancy only, no latency
    assert arrival == pytest.approx(1.5)


def test_link_fifo_serialisation():
    link = Link(name="l", latency=0.0, bandwidth=1e6)
    sends = [(0.0, "a", "b", 1e6), (0.0, "a", "b", 1e6)]
    assert [clear for clear, _ in _carry(_one_link(link), sends)] == [1.0, 2.0]


def test_link_idle_gap_not_double_counted():
    link = Link(name="l", latency=0.0, bandwidth=1e6)
    sends = [(0.0, "a", "b", 1e6), (5.0, "a", "b", 1e6)]  # link idle 1..5
    assert [clear for clear, _ in _carry(_one_link(link), sends)] == [1.0, 6.0]


def test_link_counts_transfers_and_bytes():
    link = Link(name="l", latency=0.0, bandwidth=1e6)
    _carry(_one_link(link), [(0.0, "a", "b", 100.0), (0.0, "a", "b", 200.0)])
    assert link.transfers == 2
    assert link.bytes_carried == 300.0


def test_link_validation():
    with pytest.raises(ValueError):
        Link(name="l", latency=-1.0, bandwidth=1.0)
    with pytest.raises(ValueError):
        Link(name="l", latency=0.0, bandwidth=0.0)
    network = _one_link(Link(name="l", latency=0.0, bandwidth=1.0))
    transport = Transport(Engine(), network, LINKS_ONLY, {0: "a", 1: "b"})
    with pytest.raises(ValueError):
        transport.send(Message(src=0, dst=1, tag="d", payload=None, size=-1.0), SendHandle())


def _reserve(link, now, size):
    """The per-link FIFO reservation the transport's traversal replaced
    (``Link.reserve``), kept as the oracle."""
    start = max(now, link.busy_until)
    occupancy = size / link.bandwidth
    link.busy_until = start + occupancy
    link.bytes_carried += size
    link.transfers += 1
    return start, start + occupancy


_LINK_PARAMS = st.tuples(
    st.floats(0.0, 0.05, allow_subnormal=False),   # latency
    st.floats(1e3, 1e7, allow_subnormal=False),    # bandwidth
)


@settings(max_examples=60, deadline=None)
@given(
    params=st.lists(_LINK_PARAMS, min_size=4, max_size=4),
    routes=st.lists(st.lists(st.integers(0, 3), min_size=1, max_size=4),
                    min_size=3, max_size=3),
    sends=st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 2),
                  st.one_of(st.just(0.0), st.floats(1.0, 1e6, allow_subnormal=False))),
        min_size=1, max_size=25,
    ),
    window=st.tuples(st.integers(0, 5), st.integers(1, 3),
                     st.floats(0.05, 4.0), st.floats(0.0, 0.02), st.integers(0, 3)),
)
def test_cut_through_traversal_matches_a_per_link_oracle(params, routes, sends, window):
    """The one traversal at software-done reserves each link and sums the
    route's live latency exactly as reserving link by link and summing
    ``Route.latency`` did: routes of 1-4 links sharing links, sizes
    including 0, messages interleaved on shared links, and a link
    degraded in place (bandwidth and latency) in mid-stream."""
    def build():
        links = [Link(name=f"l{i}", latency=lat, bandwidth=bw)
                 for i, (lat, bw) in enumerate(params)]
        net = Network()
        for name in ("src", "d0", "d1", "d2"):
            net.add_host(Host(name=name, speed=1.0))
        for dst, route in enumerate(routes):
            net.add_route("src", f"d{dst}", [links[i] for i in route])
        return net, links

    first, length, factor, latency_add, hit = window
    degradation = LinkDegradation(start=first + 0.5, end=first + length + 0.5,
                                  bandwidth_factor=factor, latency_add=latency_add,
                                  links=(f"l{hit}",))
    ordered = sorted(sends, key=lambda send: send[0])  # stable: ties keep send order
    network, links = build()
    carried = _carry(network, [(float(when), "src", f"d{dst}", size)
                               for when, dst, size in ordered],
                     FaultPlan(events=(degradation,)))

    _, oracle_links = build()

    def degrade(link):  # as SimFaultInjector's window edges
        link.bandwidth *= factor
        link.latency += latency_add

    def restore(link):
        link.bandwidth /= factor
        link.latency -= latency_add

    edges = [(degradation.start, degrade), (degradation.end, restore)]
    expected = []
    for when, dst, size in ordered:
        while edges and edges[0][0] < when:
            edges.pop(0)[1](oracle_links[hit])
        route = [oracle_links[i] for i in routes[dst]]
        t = float(when)
        for link in route:
            t = _reserve(link, t, size)[1]
        expected.append((t, t + sum(link.latency for link in route)))
    assert carried == expected
    assert [(l.busy_until, l.bytes_carried, l.transfers) for l in links] == [
        (l.busy_until, l.bytes_carried, l.transfers) for l in oracle_links
    ]


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
    ((clear, arrival),) = _carry(net, [(0.0, "a", "b", 0.0)])
    assert arrival - clear == pytest.approx(1e-3)


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
