"""Network topology: hosts wired together by routes made of links.

A :class:`Network` stores, for every ordered pair of hosts, the sequence
of simplex links a message traverses.  The traversal is *cut-through*:
the transport chains each hop's serialisation FIFO onto the next link
(:meth:`repro.simgrid.link.Link.reserve`) and adds the route's total
latency once, at delivery -- no hop waits for the previous one's
propagation delay.

Connection graphs may be *incomplete*: the paper's Section 5.3 discusses
how PM2 requires a complete interconnection graph while OmniORB
tolerates partial visibility (e.g. firewalls);
:meth:`Network.is_complete` and :meth:`Network.reaches` answer the two
questions the deployment validators in :mod:`repro.envs` ask, and
:meth:`Network.connectivity_graph` exports the visibility graph for
analysis (it needs the ``graph`` extra).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from repro.simgrid.host import Host
from repro.simgrid.link import Link


class NoRouteError(KeyError):
    """Raised when two hosts have no route between them."""


@dataclass(frozen=True)
class Route:
    """An ordered sequence of links from one host to another."""

    src: str
    dst: str
    links: Tuple[Link, ...]

    @property
    def latency(self) -> float:
        """Total one-way latency along the route."""
        return sum(link.latency for link in self.links)


class Network:
    """Hosts plus the routing table between them."""

    def __init__(self) -> None:
        self._hosts: Dict[str, Host] = {}
        self._links: Dict[str, Link] = {}
        self._routes: Dict[Tuple[str, str], Route] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_host(self, host: Host) -> Host:
        if host.name in self._hosts:
            raise ValueError(f"duplicate host {host.name!r}")
        self._hosts[host.name] = host
        return host

    def add_link(self, link: Link) -> Link:
        if link.name in self._links:
            raise ValueError(f"duplicate link {link.name!r}")
        self._links[link.name] = link
        return link

    def add_route(self, src: Host | str, dst: Host | str, links: Iterable[Link]) -> Route:
        """Declare the (ordered) links used from ``src`` to ``dst``."""
        src_name = src.name if isinstance(src, Host) else src
        dst_name = dst.name if isinstance(dst, Host) else dst
        if src_name not in self._hosts:
            raise KeyError(f"unknown host {src_name!r}")
        if dst_name not in self._hosts:
            raise KeyError(f"unknown host {dst_name!r}")
        if src_name == dst_name:
            raise ValueError("no route needed from a host to itself")
        route = Route(src=src_name, dst=dst_name, links=tuple(links))
        for link in route.links:
            self._links.setdefault(link.name, link)
        self._routes[(src_name, dst_name)] = route
        return route

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def hosts(self) -> List[Host]:
        return list(self._hosts.values())

    @property
    def links(self) -> List[Link]:
        return list(self._links.values())

    def host(self, name: str) -> Host:
        try:
            return self._hosts[name]
        except KeyError:
            raise KeyError(f"unknown host {name!r}") from None

    def route(self, src: Host | str, dst: Host | str) -> Route:
        src_name = src.name if isinstance(src, Host) else src
        dst_name = dst.name if isinstance(dst, Host) else dst
        try:
            return self._routes[(src_name, dst_name)]
        except KeyError:
            raise NoRouteError(f"no route {src_name!r} -> {dst_name!r}") from None

    def is_complete(self) -> bool:
        """True when every ordered pair of distinct hosts has a route.

        PM2 and MPI/Madeleine require this (paper Section 5.3); OmniORB
        does not thanks to its client/server architecture.
        """
        names = list(self._hosts)
        return all(
            (a, b) in self._routes for a in names for b in names if a != b
        )

    def reaches(self, src: Host | str, dst: Host | str) -> bool:
        """True when ``dst`` is reachable from ``src`` by chaining routes.

        A host reaches itself; an unknown host reaches nothing.
        """
        src = src.name if isinstance(src, Host) else src
        dst = dst.name if isinstance(dst, Host) else dst
        if src not in self._hosts or dst not in self._hosts:
            return False
        seen = frontier = {src}
        while frontier and dst not in seen:
            frontier = {
                b for a, b in self._routes if a in frontier and b not in seen
            }
            seen = seen | frontier
        return dst in seen

    def connectivity_graph(self) -> "nx.DiGraph":
        """Directed visibility graph over host names (``graph`` extra)."""
        try:
            import networkx as nx
        except ImportError as exc:
            raise ImportError(
                "Network.connectivity_graph() needs the 'graph' extra: "
                "pip install 'repro-aiac[graph]'"
            ) from exc
        g = nx.DiGraph()
        g.add_nodes_from(self._hosts)
        g.add_edges_from(self._routes)
        return g

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Network(hosts={len(self._hosts)}, links={len(self._links)}, "
            f"routes={len(self._routes)})"
        )


__all__ = ["Network", "Route", "NoRouteError"]
