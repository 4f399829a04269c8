"""Network topologies: switches, hosts, ports and unidirectional links.

A topology is pure data shared by the compiler (to place rules), the
runtime semantics (to move packets across links) and the simulator (to
model latency and capacity).  Hosts are modeled as in the paper: a host
attaches to a switch port and can source/sink packets.

All links are unidirectional ``(src_location, dst_location)`` pairs;
:meth:`Topology.add_duplex_link` installs both directions at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from .netkat.packet import Location

__all__ = ["Host", "Topology", "LinkSpec"]


@dataclass(frozen=True)
class Host:
    """A host attached to a switch port."""

    name: str
    attachment: Location

    def __str__(self) -> str:
        return f"{self.name}@{self.attachment}"


LinkSpec = Tuple[Location, Location]


class Topology:
    """A directed multigraph of switch ports plus host attachment points."""

    def __init__(self) -> None:
        self._switches: Set[int] = set()
        self._links: Dict[Location, Set[Location]] = {}
        self._hosts: Dict[str, Host] = {}
        self._host_ports: Dict[Location, Host] = {}

    # -- construction -----------------------------------------------------

    def add_switch(self, switch: int) -> "Topology":
        self._switches.add(switch)
        return self

    def add_link(self, src: str | Location, dst: str | Location) -> "Topology":
        src_loc = src if isinstance(src, Location) else Location.parse(src)
        dst_loc = dst if isinstance(dst, Location) else Location.parse(dst)
        self._switches.add(src_loc.switch)
        self._switches.add(dst_loc.switch)
        self._links.setdefault(src_loc, set()).add(dst_loc)
        return self

    def add_duplex_link(self, a: str | Location, b: str | Location) -> "Topology":
        self.add_link(a, b)
        self.add_link(b, a)
        return self

    def add_host(self, name: str, attachment: str | Location) -> "Topology":
        loc = (
            attachment
            if isinstance(attachment, Location)
            else Location.parse(attachment)
        )
        if name in self._hosts:
            raise ValueError(f"duplicate host name {name!r}")
        if loc in self._host_ports:
            raise ValueError(f"port {loc} already has a host attached")
        host = Host(name, loc)
        self._hosts[name] = host
        self._host_ports[loc] = host
        self._switches.add(loc.switch)
        return self

    # -- queries ------------------------------------------------------------

    @property
    def switches(self) -> FrozenSet[int]:
        return frozenset(self._switches)

    @property
    def hosts(self) -> Tuple[Host, ...]:
        return tuple(self._hosts[name] for name in sorted(self._hosts))

    def host(self, name: str) -> Host:
        return self._hosts[name]

    def host_at(self, location: Location) -> Optional[Host]:
        return self._host_ports.get(location)

    def links(self) -> Iterator[LinkSpec]:
        for src in sorted(self._links, key=lambda l: (l.switch, l.port)):
            for dst in sorted(self._links[src], key=lambda l: (l.switch, l.port)):
                yield (src, dst)

    def link_targets(self, src: Location) -> FrozenSet[Location]:
        return frozenset(self._links.get(src, ()))

    def has_link(self, src: Location, dst: Location) -> bool:
        return dst in self._links.get(src, ())

    def edge_locations(self) -> Tuple[Location, ...]:
        """All host attachment points (network ingress/egress ports)."""
        return tuple(sorted(self._host_ports, key=lambda l: (l.switch, l.port)))

    def __repr__(self) -> str:
        links = ", ".join(f"{s}->{d}" for s, d in self.links())
        hosts = ", ".join(str(h) for h in self.hosts)
        return f"Topology(switches={sorted(self._switches)}, links=[{links}], hosts=[{hosts}])"


# ---------------------------------------------------------------------------
# Topology builders for the paper's evaluation (Figure 8)
# ---------------------------------------------------------------------------


def firewall_topology() -> Topology:
    """Figure 8(a)/(d): H1 -- s1 -- s4 -- H4 (ports: 2 host-facing, 1 inter-switch)."""
    topo = Topology()
    topo.add_duplex_link("1:1", "4:1")
    topo.add_host("H1", "1:2")
    topo.add_host("H4", "4:2")
    return topo


def learning_topology() -> Topology:
    """Figure 8(b): H4 -- s4 with s4 -- s1 (H1) and s4 -- s2 (H2)."""
    topo = Topology()
    topo.add_duplex_link("1:1", "4:1")
    topo.add_duplex_link("2:1", "4:3")
    topo.add_host("H1", "1:2")
    topo.add_host("H2", "2:2")
    topo.add_host("H4", "4:2")
    return topo


def star_topology() -> Topology:
    """Figure 8(c)/(e): s4 hub connecting s1 (H1), s2 (H2), s3 (H3), and H4."""
    topo = Topology()
    topo.add_duplex_link("1:1", "4:1")
    topo.add_duplex_link("2:1", "4:3")
    topo.add_duplex_link("3:1", "4:4")
    topo.add_host("H1", "1:2")
    topo.add_host("H2", "2:2")
    topo.add_host("H3", "3:2")
    topo.add_host("H4", "4:2")
    return topo


def ring_topology(diameter: int) -> Topology:
    """Section 5.2: H1 and H2 on opposite sides of a ring of switches.

    ``diameter`` is the hop distance from H1's switch to H2's switch, so
    the ring has ``2 * diameter`` switches (minimum diameter 1).  Switch
    ``i`` connects clockwise to switch ``(i % n) + 1`` using port 1
    (clockwise out), port 2 (counterclockwise out / clockwise in); hosts
    attach at port 3.
    """
    if diameter < 1:
        raise ValueError("diameter must be at least 1")
    n = 2 * diameter
    topo = Topology()
    for i in range(1, n + 1):
        nxt = (i % n) + 1
        topo.add_duplex_link(Location(i, 1), Location(nxt, 2))
    topo.add_host("H1", Location(1, 3))
    topo.add_host("H2", Location(diameter + 1, 3))
    return topo
