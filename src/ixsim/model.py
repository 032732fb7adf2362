"""Domain model: provider-edge nodes, links, member systems and their ports.

Pure data plus structural queries; protocol behaviour lives in the other
modules.  All types are value objects: state changes are expressed by
building a replacement object, never by mutating in place.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Iterator, Optional

# AS numbers are unsigned 32-bit and 0 is reserved (RFC 7607); the simulator
# also uses 0 to mean "external, no member owns it".
ASN_FIRST = 1
ASN_LAST = 2**32 - 1

# 16-bit private ASN block (RFC 6996).  Members peer across organisational
# boundaries, so they must bring public numbers.
PRIVATE_ASN_FIRST = 64512
PRIVATE_ASN_LAST = 65534

# Identities invented by the simulator sit in the 32-bit documentation ASN
# block (RFC 5398): route-server service ASNs count up from the bottom,
# synthetic origins for external prefixes count down from the top.  Members
# may not use them.
DOC_ASN32_FIRST = 65536
DOC_ASN32_LAST = 65551

# Smallest link MTU that leaves headroom for tunnel headers on top of a
# full-size Ethernet payload.
MIN_FABRIC_MTU = 1600

# The exchange prefix must stay clear of the RFC 1918 space the underlay
# uses for its own loopbacks and links (EXCHANGE_PREFIX_PRIVATE).  Announced
# member prefixes are not checked against it and may lie inside it: every
# prefix scenarios/whix.scn announces is in 10.96.0.0/16.
RFC1918 = (
    ipaddress.IPv4Network("10.0.0.0/8"),
    ipaddress.IPv4Network("172.16.0.0/12"),
    ipaddress.IPv4Network("192.168.0.0/16"),
)


class UnknownNodeError(KeyError):
    """An operation named a PE that is not part of the topology."""


class LinkKind(Enum):
    RADIO = "radio"
    LEASED = "leased"


class LinkState(Enum):
    UP = "up"
    DOWN = "down"


# Default path costs when a scenario omits them: leased circuits form the
# preferred backbone, radio hops are ten times dearer.
DEFAULT_LINK_COST = {LinkKind.RADIO: 10, LinkKind.LEASED: 1}
DEFAULT_LINK_MTU = MIN_FABRIC_MTU


@dataclass(frozen=True)
class PeNode:
    """One provider-edge router at an exchange site."""

    name: str
    loopback: ipaddress.IPv4Address
    is_route_reflector: bool = False
    hosts_route_server: bool = False


@dataclass(frozen=True)
class Link:
    """An undirected adjacency between two PEs.

    Parallel links between the same pair are allowed; identity is positional
    (the index within ``Topology.links``), not structural.
    """

    a: str
    b: str
    cost: int
    mtu: int
    kind: LinkKind
    state: LinkState = LinkState.UP

    @property
    def endpoints(self) -> tuple[str, str]:
        """Endpoint pair in name order, for undirected comparisons."""
        return (self.a, self.b) if self.a <= self.b else (self.b, self.a)


@dataclass(frozen=True)
class Topology:
    nodes: tuple[PeNode, ...]
    links: tuple[Link, ...]

    @staticmethod
    def build(nodes: Iterable[PeNode], links: Iterable[Link] = ()) -> "Topology":
        return Topology(tuple(nodes), tuple(links))

    def node(self, name: str) -> PeNode:
        for n in self.nodes:
            if n.name == name:
                return n
        raise UnknownNodeError(name)

    def node_names(self) -> list[str]:
        return sorted(n.name for n in self.nodes)

    def reflector_names(self) -> list[str]:
        return sorted(n.name for n in self.nodes if n.is_route_reflector)

    def route_server_names(self) -> list[str]:
        return sorted(n.name for n in self.nodes if n.hosts_route_server)

    def up_links(self) -> Iterator[tuple[int, Link]]:
        for i, link in enumerate(self.links):
            if link.state is LinkState.UP:
                yield i, link

    def adjacency(self) -> dict[str, list[tuple[str, int, int]]]:
        """Per-node neighbour list over up links: (neighbour, link index, cost)."""
        adj: dict[str, list[tuple[str, int, int]]] = {n.name: [] for n in self.nodes}
        for i, link in self.up_links():
            adj[link.a].append((link.b, i, link.cost))
            adj[link.b].append((link.a, i, link.cost))
        for entries in adj.values():
            entries.sort()
        return adj

    def links_between(self, a: str, b: str) -> list[int]:
        """Indices of every link joining a and b, regardless of state."""
        pair = (a, b) if a <= b else (b, a)
        return [i for i, l in enumerate(self.links) if l.endpoints == pair]

    def with_link_state(self, index: int, state: LinkState) -> "Topology":
        links = list(self.links)
        links[index] = replace(links[index], state=state)
        return Topology(self.nodes, tuple(links))


@dataclass(frozen=True)
class MemberAs:
    """A member network attached to the exchange."""

    asn: int
    name: str
    is_transit: bool = False
    announced_prefixes: tuple[ipaddress.IPv4Network, ...] = ()


class PortState(Enum):
    QUARANTINE = "quarantine"
    ACTIVE = "active"


@dataclass(frozen=True)
class MemberPort:
    """A member's attachment to the shared fabric at one PE.

    New ports start quarantined: frames are policy-checked but not forwarded
    until the port has shown a clean probation window.
    """

    member_asn: int
    attach_pe: str
    nominated_mac: str
    exchange_ip: ipaddress.IPv4Address
    state: PortState = PortState.QUARANTINE


def is_unicast(mac: str) -> bool:
    # Group bit is the least significant bit of the first octet.
    return not int(mac.split(":", 1)[0], 16) & 1


@dataclass(frozen=True, order=True)
class Violation:
    code: str
    subject: str
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def codes(self) -> list[str]:
        return [v.code for v in self.violations]

    def __iter__(self) -> Iterator[Violation]:
        return iter(self.violations)


def _dup_groups(items: Iterable[tuple[str, str]]) -> Iterator[tuple[str, list[str]]]:
    """Yield (value, [owners...]) for every value claimed more than once."""
    seen: dict[str, list[str]] = {}
    for value, owner in items:
        seen.setdefault(value, []).append(owner)
    for value in sorted(seen):
        owners = sorted(seen[value])
        if len(owners) > 1:
            yield value, owners


def prefix_overlaps(members: Iterable[MemberAs]) -> list[Violation]:
    """PREFIX_OVERLAP for each pair of prefixes of different members that
    share an address, identical prefixes included.

    Entries are numbered in (text, ASN) order and each pair (i, j), i < j,
    is reported in that order.  Two prefixes overlap only when one contains
    the other, so a sweep in address order, shortest prefix first at each
    address, keeps the prefixes containing the current one on a stack.
    """
    announced = sorted(
        ((p, m.asn) for m in members for p in m.announced_prefixes),
        key=lambda e: (str(e[0]), e[1]))
    spans = sorted(
        (int(p.network_address), p.prefixlen, int(p.broadcast_address), i)
        for i, (p, _) in enumerate(announced))
    pairs = []
    open_spans: list[tuple[int, int]] = []  # (last address, index), nested
    for first, _, last, i in spans:
        while open_spans and open_spans[-1][0] < first:
            open_spans.pop()
        asn = announced[i][1]
        for _, j in open_spans:
            if announced[j][1] != asn:
                pairs.append((j, i) if j < i else (i, j))
        open_spans.append((last, i))
    pairs.sort()
    return [Violation("PREFIX_OVERLAP", str(announced[i][0]),
                      "%d %d %s" % (announced[i][1], announced[j][1], announced[j][0]))
            for i, j in pairs]


def validate_topology(
    topo: Topology,
    ports: Iterable[MemberPort] = (),
    members: Iterable[MemberAs] = (),
    exchange_prefix: Optional[ipaddress.IPv4Network] = None,
) -> ValidationReport:
    """Check structural invariants; violations are data, not exceptions.

    The result is a multiset of coded violations and does not depend on the
    ordering of the inputs.
    """
    ports = list(ports)
    members = list(members)
    found: list[Violation] = []

    for name, owners in _dup_groups((n.name, str(n.loopback)) for n in topo.nodes):
        found.append(Violation("DUP_NODE", name, " ".join(owners)))
    for addr, owners in _dup_groups((str(n.loopback), n.name) for n in topo.nodes):
        found.append(Violation("DUP_LOOPBACK", addr, " ".join(owners)))
    if len(topo.nodes) >= 2 and not topo.reflector_names():
        found.append(Violation("NO_REFLECTOR", "topology"))

    names = {n.name for n in topo.nodes}
    for link in topo.links:
        subject = "%s-%s" % link.endpoints
        if link.a == link.b:
            found.append(Violation("SELF_LOOP", subject))
        for end in (link.a, link.b):
            if end not in names:
                found.append(Violation("UNKNOWN_ENDPOINT", subject, end))
        if link.mtu < MIN_FABRIC_MTU:
            found.append(Violation("MTU_TOO_SMALL", subject, str(link.mtu)))
        if link.cost < 1:
            found.append(Violation("BAD_COST", subject, str(link.cost)))

    for m in members:
        if not ASN_FIRST <= m.asn <= ASN_LAST:
            found.append(Violation("BAD_ASN", str(m.asn), m.name))
        if PRIVATE_ASN_FIRST <= m.asn <= PRIVATE_ASN_LAST:
            found.append(Violation("PRIVATE_ASN", str(m.asn), m.name))
        if DOC_ASN32_FIRST <= m.asn <= DOC_ASN32_LAST:
            found.append(Violation("RESERVED_ASN", str(m.asn), m.name))
    for asn, owners in _dup_groups((str(m.asn), m.name) for m in members):
        found.append(Violation("DUP_ASN", asn, " ".join(owners)))
    found.extend(prefix_overlaps(members))

    member_asns = {m.asn for m in members}
    not_hosts = ()  # network and broadcast address; a /31 (RFC 3021) or /32 has none
    if exchange_prefix is not None and exchange_prefix.prefixlen < 31:
        not_hosts = (exchange_prefix.network_address, exchange_prefix.broadcast_address)
    for mac, owners in _dup_groups((p.nominated_mac, str(p.member_asn)) for p in ports):
        found.append(Violation("DUP_MAC", mac, " ".join(owners)))
    for ip, owners in _dup_groups((str(p.exchange_ip), str(p.member_asn)) for p in ports):
        found.append(Violation("DUP_EXCHANGE_IP", ip, " ".join(owners)))
    for port in ports:
        if port.attach_pe not in names:
            found.append(Violation("UNKNOWN_ATTACH", str(port.member_asn), port.attach_pe))
        if members and port.member_asn not in member_asns:
            found.append(Violation("UNKNOWN_MEMBER", str(port.member_asn)))
        if not is_unicast(port.nominated_mac):
            found.append(Violation("MAC_NOT_UNICAST", port.nominated_mac, str(port.member_asn)))
        if exchange_prefix is not None and port.exchange_ip not in exchange_prefix:
            found.append(
                Violation("IP_OUT_OF_EXCHANGE", str(port.exchange_ip), str(port.member_asn)))
        if port.exchange_ip in not_hosts:
            found.append(Violation("IP_NOT_HOST", str(port.exchange_ip), str(port.member_asn)))
    if exchange_prefix is not None:
        if any(exchange_prefix.overlaps(private) for private in RFC1918):
            found.append(Violation("EXCHANGE_PREFIX_PRIVATE", str(exchange_prefix)))
    elif ports:
        found.append(Violation("NO_EXCHANGE_PREFIX", "scenario"))

    return ValidationReport(tuple(sorted(found)))


def full_mesh_size(pe_count: int) -> int:
    """Number of unordered PE pairs: the pseudo-wire count a full mesh needs."""
    if pe_count < 0:
        raise ValueError("pe_count must be non-negative")
    return pe_count * (pe_count - 1) // 2
