"""Member peering over the fabric: route servers, transit, reachability.

Members speak BGP to each other across the emulated LAN.  A route server
multiplies one session into reachability from everyone, and it stays out of
the forwarding story entirely: it never prepends its service ASN and never
rewrites the next hop, so traffic flows directly between member ports.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
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

ARP_PAYLOAD_SIZE = 28
PROBE_PAYLOAD_SIZE = 100


class PeerKind(Enum):
    BILATERAL = "bilateral"
    ROUTE_SERVER = "rs"
    TRANSIT = "transit"


class TransitPolicy(Enum):
    DEFAULT_ONLY = "default"
    FULL_TABLE = "full"


@dataclass(frozen=True)
class BgpRoute:
    """One path to one prefix as delivered to a member.

    The AS path ends at the originator and never repeats a number; a
    repeated ASN would mean the loop-prevention rules failed somewhere.
    """

    prefix: ipaddress.IPv4Network
    as_path: Tuple[int, ...]
    next_hop: ipaddress.IPv4Address
    learned_from: str

    def __post_init__(self):
        if not self.as_path:
            raise ValueError("empty AS path")
        if len(set(self.as_path)) != len(self.as_path):
            raise ValueError("AS path repeats an ASN: %r" % (self.as_path,))

    @property
    def origin_asn(self) -> int:
        return self.as_path[-1]


@dataclass(frozen=True)
class PeeringSession:
    """A configured peering: bilateral, via a route server, or transit.

    ``a`` is always the member; ``b`` is the peer member for bilateral, the
    service ASN for route-server sessions, the upstream's ASN for transit.
    """

    a: int
    b: int
    kind: PeerKind
    policy: Optional[TransitPolicy] = None
    rs_node: Optional[str] = None


@dataclass(frozen=True)
class RouteServer:
    host_pe: str
    service_asn: int
    client_sessions: Tuple[int, ...]


def best_path(candidates: Sequence[BgpRoute]) -> BgpRoute:
    """Deterministic selection: shortest AS path, then lowest next hop,
    then lowest learned-from identifier.  Total order, so no hidden state."""
    if not candidates:
        raise ValueError("no candidates")
    return min(candidates,
               key=lambda r: (len(r.as_path), int(r.next_hop), r.learned_from))


class MemberRib:
    """Candidate store plus selection for one member."""

    def __init__(self, member_asn: int):
        self.member_asn = member_asn
        self.candidates: Dict[ipaddress.IPv4Network, Dict[str, BgpRoute]] = {}
        self._lengths: List[int] = []  # prefix lengths held, longest first
        self._indexed = 0  # len(candidates) when _lengths was taken

    def add(self, route: BgpRoute) -> None:
        if self.member_asn in route.as_path:
            return  # standard loop rejection on receipt
        self.candidates.setdefault(route.prefix, {})[route.learned_from] = route

    def chosen(self) -> Dict[ipaddress.IPv4Network, BgpRoute]:
        return {
            prefix: best_path(list(routes.values()))
            for prefix, routes in self.candidates.items()
        }

    def covering(
        self, target: Union[ipaddress.IPv4Network, ipaddress.IPv4Address]
    ) -> Optional[BgpRoute]:
        """Longest-prefix selection among chosen routes, default included.
        At most one prefix of each length contains the target, so only the
        target's supernets at the lengths the RIB holds are looked up."""
        if isinstance(target, ipaddress.IPv4Address):
            target = ipaddress.IPv4Network(target)
        if self._indexed != len(self.candidates):  # prefixes are never removed
            self._lengths = sorted({p.prefixlen for p in self.candidates}, reverse=True)
            self._indexed = len(self.candidates)
        for length in self._lengths:
            if length <= target.prefixlen:
                routes = self.candidates.get(target.supernet(new_prefix=length))
                if routes:
                    return best_path(list(routes.values()))
        return None

    def __eq__(self, other) -> bool:
        return (isinstance(other, MemberRib)
                and self.member_asn == other.member_asn
                and self.candidates == other.candidates)


def rs_redistribute(
    server: RouteServer,
    route: BgpRoute,
    from_asn: int,
    diagnostics: Optional[List[Tuple[str, int, BgpRoute]]] = None,
) -> List[Tuple[int, BgpRoute]]:
    """Reflect a client's route to every other client, untouched.

    Transparency is the whole point: the AS path and next hop pass through
    verbatim, without the service ASN.  A route is withheld from a client
    whose own ASN already appears in the path; that would be a loop.
    """
    out: List[Tuple[int, BgpRoute]] = []
    for client in sorted(server.client_sessions):
        if client == from_asn:
            continue
        if client in route.as_path:
            if diagnostics is not None:
                diagnostics.append(("AS_LOOP", client, route))
            continue
        out.append((client, route))
    return out


def transit_deliveries(
    transit: MemberAs,
    transit_ip: ipaddress.IPv4Address,
    sessions: Iterable[PeeringSession],
    external_prefixes: Sequence[ipaddress.IPv4Network],
) -> List[Tuple[int, BgpRoute]]:
    """What the upstream-connected member announces to its customers:
    a bare default, or one route per external prefix for full-table takers."""
    origin = {
        pfx: external_origin_asn(i)
        for i, pfx in enumerate(external_prefixes)
    }
    learned = "bgp/%d" % transit.asn
    out: List[Tuple[int, BgpRoute]] = []
    for s in sorted(sessions, key=lambda s: (s.a, s.b)):
        if s.kind is not PeerKind.TRANSIT or s.b != transit.asn:
            continue
        if s.policy is TransitPolicy.DEFAULT_ONLY:
            out.append((s.a, BgpRoute(DEFAULT_ROUTE, (transit.asn,), transit_ip, learned)))
        else:
            for pfx in external_prefixes:
                out.append((s.a, BgpRoute(
                    pfx, (transit.asn, origin[pfx]), transit_ip, learned)))
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
    with itself prepended.  Purely informational: the upstream side of the
    world is outside the model."""
    member_prefixes = set(member_prefixes)
    out = []
    for prefix, route in sorted(rib.chosen().items(), key=lambda kv: str(kv[0])):
        if prefix not in member_prefixes or transit.asn in route.as_path:
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
    by_ip: Dict[ipaddress.IPv4Address, MemberPort] = {}
    for asn, port in sorted(probe.ports_by_asn().items()):
        by_ip.setdefault(port.exchange_ip, port)  # lowest ASN, as port_with_ip
    targets = [(pfx, m.asn) for m in sorted(members, key=lambda m: m.asn)
               for pfx in m.announced_prefixes]
    targets += [(pfx, 0) for pfx in external_prefixes]  # 0: no member owns it

    matrix: Dict[Tuple[int, str], bool] = {}
    legs: Dict[Tuple[int, int], bool] = {}  # (member, owner) -> reply and data got through
    for m in sorted(members, key=lambda m: m.asn):
        port = ports.get(m.asn)
        rib = ribs.get(m.asn)
        active = port is not None and rib is not None and port.state is PortState.ACTIVE
        heard: Optional[Set[int]] = None  # flooded at the first covering route
        for pfx, owner in targets:
            if owner == m.asn:
                continue
            key = (m.asn, str(pfx))
            matrix[key] = False
            route = rib.covering(pfx) if active else None
            if route is None:
                continue
            if heard is None:
                heard = set(_send(port, BROADCAST_MAC, EtherType.ARP, ARP_PAYLOAD_SIZE,
                                  probe, round_no, "probe%d-req" % m.asn))
            hop = by_ip.get(route.next_hop)
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
