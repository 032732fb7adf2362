"""Member peering over the fabric: route servers, transit, reachability.

Members speak BGP to each other across the emulated LAN.  A route server
multiplies one session into reachability from everyone, and it stays out of
the forwarding story entirely: it never prepends its service ASN and never
rewrites the next hop, so traffic flows directly between member ports.

A route server keeps one table of its clients' routes per sweep, as an
RFC 7947 route server's Loc-RIB does, instead of copying every route into
M-1 RIBs: a member's RIB holds only its own bilateral and transit
candidates and composes them with its view of each server table it is a
client of.  A route's AS path starts with its sender, so a client's view
of a table is its own loop rejection (never a route whose AS path holds
its ASN), the only per-client work; selection, lookups and sweep
comparison run over the tables.  Keys stay integers: a RIB keys its
prefixes by ``(network as int, length)`` and looks up supernets with
integer masks.  A route is built in one step, its key and selection rank
with it, so comparing two routes never converts an address, and its RIB
text is written from those integers (``rib_line``).  ``ipaddress``
objects appear only in the routes themselves and in what ``chosen()``
returns.  A route is one object wherever it is delivered: a transit
route is built once per transit member and policy for all its takers.
"""

from __future__ import annotations

import ipaddress
import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from ixsim.dataplane import (
    BROADCAST_MAC,
    EtherType,
    EthernetFrame,
    Fabric,
)
from ixsim.model import DOC_ASN32_FIRST, DOC_ASN32_LAST, MemberAs, MemberPort, PortState

DEFAULT_ROUTE = ipaddress.IPv4Network("0.0.0.0/0")

# Netmask of each prefix length as an integer, /0 to /32.
_MASKS = tuple((0xFFFFFFFF << (32 - n)) & 0xFFFFFFFF for n in range(33))

ARP_PAYLOAD_SIZE = 28
PROBE_PAYLOAD_SIZE = 100


class PeerKind(Enum):
    BILATERAL = "bilateral"
    TRANSIT = "transit"


class TransitPolicy(Enum):
    DEFAULT_ONLY = "default"
    FULL_TABLE = "full"


@dataclass(frozen=True, init=False)
class BgpRoute:
    """One path to one prefix as delivered to a member.

    The AS path ends at the originator and never repeats a number; a
    repeated ASN would mean the loop-prevention rules failed somewhere.
    """

    prefix: ipaddress.IPv4Network
    as_path: Tuple[int, ...]
    next_hop: ipaddress.IPv4Address
    learned_from: str
    # The prefix as (network as int, length): what RIBs are keyed by.
    key: Tuple[int, int] = field(init=False, repr=False, compare=False)
    # Where the route sorts in selection, computed once: shortest AS path,
    # then lowest next hop, then lowest learned-from identifier.  A RIB holds
    # one route per learned-from identifier and prefix, so the order is total.
    rank: Tuple[int, int, str] = field(init=False, repr=False, compare=False)

    def __init__(self, prefix, as_path, next_hop, learned_from):
        if not as_path:
            raise ValueError("empty AS path")
        if len(set(as_path)) != len(as_path):
            raise ValueError("AS path repeats an ASN: %r" % (as_path,))
        fields = self.__dict__  # as frozen, setattr would refuse them
        fields["prefix"] = prefix
        fields["as_path"] = as_path
        fields["next_hop"] = next_hop
        fields["learned_from"] = learned_from
        fields["key"] = (int(prefix.network_address), prefix.prefixlen)
        fields["rank"] = (len(as_path), int(next_hop), learned_from)


def rib_line(route: BgpRoute) -> str:
    """The route's RIB dump text after the member's head, its addresses
    written as dotted quads from ``key`` and the ranked next hop."""
    net, length = route.key
    hop = route.rank[1]
    return "%d.%d.%d.%d/%d|%s|%d.%d.%d.%d|%s" % (
        net >> 24, net >> 16 & 255, net >> 8 & 255, net & 255, length,
        " ".join(map(str, route.as_path)),
        hop >> 24, hop >> 16 & 255, hop >> 8 & 255, hop & 255, route.learned_from)


@dataclass(frozen=True)
class PeeringSession:
    """A configured bilateral or transit peering.  ``a`` is always the
    member; ``b`` is the peer member for bilateral, the upstream's ASN for
    transit.  Route-server sessions are ``RouteServer.client_sessions``.
    """

    a: int
    b: int
    kind: PeerKind
    policy: Optional[TransitPolicy] = None


@dataclass(frozen=True)
class RouteServer:
    host_pe: str
    service_asn: int
    client_sessions: Tuple[int, ...]


class ServerTable:
    """One route server's client routes for one sweep: the Loc-RIB that an
    RFC 7947 route server shares among all of its clients.

    ``offers`` maps each prefix key to its routes in client order, each
    route's AS path starting with its sender.  A client's view of the table
    is one filter, not a copy: at each prefix it is offered the last route
    whose AS path does not hold its ASN, the loop rejection of
    ``MemberRib.add``, which also keeps a route from its sender.
    ``withheld`` names, per ASN, the prefixes where that filter may drop an
    offer; everywhere else a client sees the last offer.  Every route
    carries ``learned_from``.  A table is complete before any RIB views it.
    """

    def __init__(self, server: RouteServer):
        self.learned_from = "rs/%s" % server.host_pe
        self.clients = frozenset(server.client_sessions)
        self.offers: Dict[Tuple[int, int], List[BgpRoute]] = {}
        self.withheld: Dict[int, Set[Tuple[int, int]]] = {}
        self.lengths: Set[int] = set()  # prefix lengths held

    def __len__(self) -> int:
        return sum(len(offers) for offers in self.offers.values())

    def pick(self, key: Tuple[int, int], asn: int) -> Optional[BgpRoute]:
        """The route client ``asn`` is offered at ``key``, if any."""
        for route in reversed(self.offers.get(key, ())):
            if asn not in route.as_path:
                return route
        return None

    def view(self, asn: int) -> Dict[Tuple[int, int], BgpRoute]:
        """Everything client ``asn`` is offered, by prefix key."""
        out = {}
        for key in self.offers:
            route = self.pick(key, asn)
            if route is not None:
                out[key] = route
        return out

    def moved(self, other: "ServerTable") -> Set[Tuple[int, int]]:
        """Prefix keys whose offers differ between this table and ``other``."""
        a, b = self.offers, other.offers
        return {key for key in a.keys() | b.keys() if a.get(key) != b.get(key)}


class MemberRib:
    """Candidate store plus selection for one member: its own bilateral and
    transit candidates, keyed by ``BgpRoute.key`` and then by where they
    were learned, composed with its view of each route server's table it
    is a client of (``views``)."""

    def __init__(self, member_asn: int, views: Sequence[ServerTable] = ()):
        self.member_asn = member_asn
        self.own: Dict[Tuple[int, int], Dict[str, BgpRoute]] = {}
        self.views = tuple(views)
        # Per view: its offers, the keys where this member's filter drops
        # an offer, and the table; elsewhere the last offer is the pick.
        self._views = tuple((t.offers, t.withheld.get(member_asn, frozenset()), t)
                            for t in self.views)
        self._lengths: List[int] = []  # prefix lengths held, longest first
        self._indexed = -1  # len(own) when _lengths was taken

    def add(self, route: BgpRoute) -> None:
        if self.member_asn in route.as_path:
            return  # standard loop rejection on receipt
        self.own.setdefault(route.key, {})[route.learned_from] = route

    @property
    def candidates(self) -> Dict[Tuple[int, int], Dict[str, BgpRoute]]:
        """Own candidates and server views merged, as
        ``{key: {learned_from: route}}``; built on every read."""
        merged = {key: dict(routes) for key, routes in self.own.items()}
        for table in self.views:
            for key, route in table.view(self.member_asn).items():
                merged.setdefault(key, {})[table.learned_from] = route
        return merged

    def best_at(self, key: Tuple[int, int]) -> Optional[BgpRoute]:
        """The selected route at one prefix key, or None."""
        best = None
        routes = self.own.get(key)
        if routes:
            best = min(routes.values(), key=operator.attrgetter("rank"))
        for offers, withheld, table in self._views:
            entry = offers.get(key)
            if entry is None:
                continue
            route = table.pick(key, self.member_asn) if key in withheld else entry[-1]
            if route is not None and (best is None or route.rank < best.rank):
                best = route
        return best

    def revisits(self) -> Set[Tuple[int, int]]:
        """Keys where this member's selection may differ from the best of
        its views' last offers: its own candidates and its withheld keys."""
        return set(self.own).union(*(withheld for _, withheld, _ in self._views))

    def chosen(self) -> Dict[ipaddress.IPv4Network, BgpRoute]:
        out = {}
        for key in set(self.own).union(*(offers for offers, _, _ in self._views)):
            route = self.best_at(key)
            if route is not None:
                out[route.prefix] = route
        return out

    def covering(
        self, target: Union[ipaddress.IPv4Network, ipaddress.IPv4Address]
    ) -> Optional[BgpRoute]:
        """Longest-prefix selection among chosen routes, default included.
        At most one prefix of each length contains the target, so only the
        target's supernets at the lengths the RIB holds are looked up."""
        if isinstance(target, ipaddress.IPv4Address):
            address, target_len = int(target), 32
        else:
            address, target_len = int(target.network_address), target.prefixlen
        if self._indexed != len(self.own):  # own prefixes are never removed
            lengths = {n for _, n in self.own}
            for table in self.views:
                lengths |= table.lengths
            self._lengths = sorted(lengths, reverse=True)
            self._indexed = len(self.own)
        for length in self._lengths:
            if length <= target_len:
                route = self.best_at((address & _MASKS[length], length))
                if route is not None:
                    return route
        return None

    def __eq__(self, other) -> bool:
        return (isinstance(other, MemberRib)
                and self.member_asn == other.member_asn
                and self.candidates == other.candidates)


def ribs_differ(old: Dict[int, MemberRib], new: Dict[int, MemberRib]) -> bool:
    """Whether two sweeps' RIBs differ: other members, or some member with
    other merged candidates.  Exact for RIBs built as the engine builds
    them, whose own candidates and views are learned from different
    sources, so merged candidates differ exactly when the own candidates
    or one view does.  A view is compared only at the keys where its
    server's table moved (``ServerTable.moved``, once per pair of tables),
    or in full where the member is a client in one sweep only; no
    member's RIB is composed."""
    if old.keys() != new.keys():
        return True
    moved: Dict[Tuple[int, int], Set[Tuple[int, int]]] = {}
    for asn, rib in new.items():
        if old[asn].own != rib.own:
            return True
        before = {t.learned_from: t for t in old[asn].views}
        after = {t.learned_from: t for t in rib.views}
        for learned in before.keys() | after.keys():
            a, b = before.get(learned), after.get(learned)
            if a is None or b is None:
                if (a or b).view(asn):
                    return True
                continue
            keys = moved.get((id(a), id(b)))
            if keys is None:
                keys = moved[(id(a), id(b))] = a.moved(b)
            if any(a.pick(key, asn) != b.pick(key, asn) for key in keys):
                return True
    return False


def rs_redistribute(server: RouteServer, routes: Iterable[BgpRoute]) -> ServerTable:
    """Reflect each client's routes to every other client, untouched, by
    collecting them once into the table all of ``server``'s clients share.

    ``routes`` come in client order, each AS path starting with its sender.
    Transparency is the whole point: the AS path and next hop pass through
    verbatim, without the service ASN.  A route is withheld from every
    client whose ASN appears in the path: its sender, and any client it
    would loop back to.
    """
    table = ServerTable(server)
    for route in routes:
        if route.learned_from != table.learned_from:
            raise ValueError("route learned from %s offered to %s"
                             % (route.learned_from, table.learned_from))
        key = route.key
        table.offers.setdefault(key, []).append(route)
        table.lengths.add(key[1])
        for asn in route.as_path:
            table.withheld.setdefault(asn, set()).add(key)
    return table


def transit_deliveries(
    transit: MemberAs,
    transit_ip: ipaddress.IPv4Address,
    sessions: Iterable[PeeringSession],
    external_prefixes: Sequence[ipaddress.IPv4Network],
) -> List[Tuple[int, BgpRoute]]:
    """What the upstream-connected member announces to its customers:
    a bare default, or one route per external prefix for full-table takers.
    Each route is built once and delivered to every taker of its policy."""
    learned = "bgp/%d" % transit.asn
    default = [BgpRoute(DEFAULT_ROUTE, (transit.asn,), transit_ip, learned)]
    full = [BgpRoute(pfx, (transit.asn, external_origin_asn(i)), transit_ip, learned)
            for i, pfx in enumerate(external_prefixes)]
    out: List[Tuple[int, BgpRoute]] = []
    for s in sorted(sessions, key=lambda s: (s.a, s.b)):
        if s.kind is not PeerKind.TRANSIT or s.b != transit.asn:
            continue
        routes = default if s.policy is TransitPolicy.DEFAULT_ONLY else full
        out.extend((s.a, route) for route in routes)
    return out


def external_origin_asn(index: int) -> int:
    asn = DOC_ASN32_LAST - index
    if asn < DOC_ASN32_FIRST:
        raise ValueError("too many external prefixes to number")
    return asn


def upstream_announcements(
    transit: MemberAs,
    rib: MemberRib,
    member_prefixes: Iterable[ipaddress.IPv4Network],
) -> List[BgpRoute]:
    """Member routes the transit party re-announces toward its upstream,
    with itself prepended, in prefix text order.  The RIB is read only at
    the member prefixes.  Purely informational: the upstream side of the
    world is outside the model."""
    keys = {(int(p.network_address), p.prefixlen): p for p in member_prefixes}
    out = []
    for key, prefix in sorted(keys.items(), key=lambda kv: str(kv[1])):
        route = rib.best_at(key)
        if route is None or transit.asn in route.as_path:
            continue
        out.append(BgpRoute(prefix, (transit.asn,) + route.as_path,
                            route.next_hop, "upstream"))
    return out


def _send(src: MemberPort, dst_mac: str, ethertype: EtherType, payload_size: int,
          fabric: Fabric, round_no: int, trace_id: str) -> List[int]:
    """Offer one frame at src's port; the member ports that received it."""
    frame = EthernetFrame(src.nominated_mac, dst_mac, ethertype, payload_size, trace_id)
    return fabric.inject(src.member_asn, frame, round_no).deliveries


def arp_resolve(
    requester: MemberPort,
    target_ip: ipaddress.IPv4Address,
    fabric: Fabric,
    round_no: int = 0,
    trace_prefix: str = "arp",
) -> Optional[str]:
    """Resolve an exchange IP to a MAC with a broadcast request and a
    unicast reply, both as real frames through the fabric.

    None means no answer: the owner is absent, quarantined, or unreachable
    at layer 2.
    """
    heard = _send(requester, BROADCAST_MAC, EtherType.ARP, ARP_PAYLOAD_SIZE,
                  fabric, round_no, "%s-req" % trace_prefix)
    owner = fabric.port_with_ip(target_ip)
    if owner is None or owner.member_asn == requester.member_asn:
        return None
    if owner.member_asn not in heard or requester.member_asn not in _send(
            owner, requester.nominated_mac, EtherType.ARP, ARP_PAYLOAD_SIZE,
            fabric, round_no, "%s-rep" % trace_prefix):
        return None
    return owner.nominated_mac


def reachability_matrix(
    members: Sequence[MemberAs],
    ports: Dict[int, MemberPort],
    ribs: Dict[int, MemberRib],
    external_prefixes: Sequence[ipaddress.IPv4Network],
    fabric: Fabric,
    round_no: int = 0,
) -> Dict[Tuple[int, str], bool]:
    """Control and data plane agreement, cell by cell.

    A cell (member, prefix) is true only when the member's RIB selects a
    covering route, the member's broadcast ARP request reaches the port
    owning the route's next hop, the owner's unicast reply comes back and
    a unicast data frame gets to the owner.  Probing runs on a cloned
    fabric so the real MAC tables and logs stay untouched.

    A member floods its request once, for all of its targets, and each
    (member, owner) pair exchanges its reply and data frame once.  Earlier
    probes cannot change a later outcome: the clone learns each MAC only
    at its own port, so a known-unicast frame goes where a flood would.
    """
    probe = fabric.clone()
    # Keyed by the address as an integer, which hashes in C.
    by_ip: Dict[int, MemberPort] = {}
    for asn, port in sorted(probe.ports.items()):
        by_ip.setdefault(int(port.exchange_ip), port)  # lowest ASN, as port_with_ip
    # (prefix, its text as the cell key has it, owner)
    targets = [(pfx, str(pfx), m.asn) for m in sorted(members, key=lambda m: m.asn)
               for pfx in m.announced_prefixes]
    targets += [(pfx, str(pfx), 0) for pfx in external_prefixes]  # 0: no member owns it

    matrix: Dict[Tuple[int, str], bool] = {}
    legs: Dict[Tuple[int, int], bool] = {}  # (member, owner) -> reply and data got through
    for m in sorted(members, key=lambda m: m.asn):
        port = ports.get(m.asn)
        rib = ribs.get(m.asn)
        active = port is not None and rib is not None and port.state is PortState.ACTIVE
        heard: Optional[Set[int]] = None  # flooded at the first covering route
        for pfx, text, owner in targets:
            if owner == m.asn:
                continue
            key = (m.asn, text)
            matrix[key] = False
            route = rib.covering(pfx) if active else None
            if route is None:
                continue
            if heard is None:
                heard = set(_send(port, BROADCAST_MAC, EtherType.ARP, ARP_PAYLOAD_SIZE,
                                  probe, round_no, "probe%d-req" % m.asn))
            hop = by_ip.get(int(route.next_hop))
            if hop is None or hop.member_asn == m.asn or hop.member_asn not in heard:
                continue
            pair = (m.asn, hop.member_asn)
            if pair not in legs:
                replied = m.asn in _send(hop, port.nominated_mac, EtherType.ARP, ARP_PAYLOAD_SIZE,
                                         probe, round_no, "probe%d-%d-rep" % pair)
                legs[pair] = replied and hop.member_asn in _send(
                    port, hop.nominated_mac, EtherType.IPV4, PROBE_PAYLOAD_SIZE,
                    probe, round_no, "probe%d-%d-data" % pair)
            matrix[key] = legs[pair]
    return matrix
