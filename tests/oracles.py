"""Reference implementations the tests trust instead of the code under test.

Deliberately different algorithms: Floyd-Warshall rather than Dijkstra,
union-find rather than BFS, plain double loops rather than closed formulas,
route reflection run to a fixpoint rather than its closed form, a full ARP
exchange and data probe per reachability cell rather than one
flood per source member, a pairwise prefix-overlap scan rather than a
sweep, route-server routes copied into every other client's RIB rather
than one table per server, a RIB dump formatted line by line from
``chosen()`` rather than once per distinct route, and frame forwarding that derives every port
lookup, flood target, local MAC set and wire path again on each hop
rather than once per fabric, bridge or wire direction.
"""

from __future__ import annotations

import ipaddress
import math
from collections import deque
from itertools import combinations
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ixsim.dataplane import (
    BROADCAST_MAC,
    ETHERNET_OVERHEAD,
    MPLS_OVERHEAD,
    Attachment,
    BridgeState,
    DropReason,
    DropRecord,
    EtherType,
    EthernetFrame,
    Fabric,
    InjectResult,
    MacEntry,
    PortRef,
    PwRef,
    TraceRow,
    ingress_filter,
)
from ixsim.engine import Simulation
from ixsim.exchange_l3 import (
    PROBE_PAYLOAD_SIZE,
    BgpRoute,
    MemberRib,
    PeerKind,
    RouteServer,
    arp_resolve,
    transit_deliveries,
    upstream_announcements,
)
from ixsim.model import (
    LinkState,
    MemberAs,
    MemberPort,
    PortState,
    Topology,
    Violation,
    is_unicast,
)
from ixsim.vpls_signal import IbgpKind, IbgpSession, VplsAdvert


def up_edges(topo: Topology) -> list[tuple[str, str, int]]:
    return [(l.a, l.b, l.cost) for l in topo.links if l.state is LinkState.UP]


def all_pairs_distances(topo: Topology) -> dict[tuple[str, str], float]:
    """Floyd-Warshall over the up links; math.inf where unreachable."""
    names = [n.name for n in topo.nodes]
    dist = {(i, j): math.inf for i in names for j in names}
    for n in names:
        dist[(n, n)] = 0
    for a, b, cost in up_edges(topo):
        if cost < dist[(a, b)]:
            dist[(a, b)] = cost
            dist[(b, a)] = cost
    for k in names:
        for i in names:
            ik = dist[(i, k)]
            if ik is math.inf:
                continue
            for j in names:
                alt = ik + dist[(k, j)]
                if alt < dist[(i, j)]:
                    dist[(i, j)] = alt
    return dist


def union_find_components(topo: Topology) -> list[tuple[str, ...]]:
    parent = {n.name: n.name for n in topo.nodes}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b, _ in up_edges(topo):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups: dict[str, set[str]] = {}
    for name in parent:
        groups.setdefault(find(name), set()).add(name)
    out = [tuple(sorted(g)) for g in groups.values()]
    out.sort(key=lambda g: g[0])
    return out


def same_component(topo: Topology, a: str, b: str) -> bool:
    for comp in union_find_components(topo):
        if a in comp:
            return b in comp
    return False


def count_unordered_pairs(items) -> int:
    return sum(1 for _ in combinations(sorted(items), 2))


def expected_ibgp_sessions(node_names, reflector_names) -> set[tuple[str, str]]:
    """Every non-reflector to every reflector, reflectors fully meshed."""
    reflectors = sorted(reflector_names)
    sessions = set()
    for node in node_names:
        if node in reflectors:
            continue
        for rr in reflectors:
            sessions.add((node, rr))
    for left, right in combinations(reflectors, 2):
        sessions.add((left, right))
    return sessions


def reference_propagate(
    adverts: Dict[str, VplsAdvert],
    sessions: Set[IbgpSession],
) -> Dict[str, Set[VplsAdvert]]:
    """Run reflection to a fixpoint and return each PE's received set.

    Standard reflection rules: a reflector passes client-learned state to
    everyone, and peer-learned state to its clients only.  Clients originate
    and receive but never relay.
    """
    originated = {pe: adverts[pe] for pe in adverts}
    client_learned: Dict[str, Set[VplsAdvert]] = {pe: set() for pe in adverts}
    peer_learned: Dict[str, Set[VplsAdvert]] = {pe: set() for pe in adverts}
    received: Dict[str, Set[VplsAdvert]] = {pe: set() for pe in adverts}

    ordered = sorted(sessions, key=lambda s: (s.a, s.b, s.kind.value))
    changed = True
    while changed:
        changed = False
        for s in ordered:
            if s.kind is IbgpKind.RR_CLIENT:
                client, rr = s.a, s.b
                if originated[client] not in client_learned[rr]:
                    client_learned[rr].add(originated[client])
                    changed = True
                down = {originated[rr]} | client_learned[rr] | peer_learned[rr]
                down.discard(originated[client])
                if not down <= received[client]:
                    received[client] |= down
                    changed = True
            else:
                for left, right in ((s.a, s.b), (s.b, s.a)):
                    out = {originated[left]} | client_learned[left]
                    out.discard(originated[right])
                    if not out <= peer_learned[right]:
                        peer_learned[right] |= out
                        changed = True

    for rr in adverts:
        extra = (client_learned[rr] | peer_learned[rr]) - {originated[rr]}
        received[rr] |= extra
    return received


def mutually_visible_pairs(received: Dict[str, Set[VplsAdvert]]) -> set[tuple[str, str]]:
    """Unordered PE pairs in which each side received the other's advert."""
    origins = {pe: {ad.origin_pe for ad in got} for pe, got in received.items()}
    return {(a, b) for a in origins for b in origins
            if a < b and b in origins[a] and a in origins[b]}


def reference_reachability(
    members: Sequence[MemberAs],
    ports: Dict[int, MemberPort],
    ribs: Dict[int, MemberRib],
    external_prefixes: Sequence[ipaddress.IPv4Network],
    fabric: Fabric,
    round_no: int = 0,
) -> Dict[Tuple[int, str], bool]:
    """Control and data plane agreement, cell by cell.

    A cell (member, prefix) is true only when the member's RIB selects a
    covering route and a traced ARP exchange plus unicast delivery to the
    route's next hop actually succeeds.  Probing runs on a cloned fabric so
    the real MAC tables and logs stay untouched.
    """
    probe = fabric.clone()
    targets: List[Tuple[str, int]] = []  # (prefix text, owner asn or 0)
    for m in sorted(members, key=lambda m: m.asn):
        for pfx in m.announced_prefixes:
            targets.append((str(pfx), m.asn))
    for pfx in external_prefixes:
        targets.append((str(pfx), 0))

    matrix: Dict[Tuple[int, str], bool] = {}
    seq = 0
    for m in sorted(members, key=lambda m: m.asn):
        port = ports.get(m.asn)
        rib = ribs.get(m.asn)
        for text, owner in targets:
            if owner == m.asn:
                continue
            key = (m.asn, text)
            matrix[key] = False
            if port is None or rib is None or port.state is not PortState.ACTIVE:
                continue
            route = rib.covering(ipaddress.IPv4Network(text))
            if route is None:
                continue
            seq += 1
            mac = arp_resolve(port, route.next_hop, probe, round_no,
                              trace_prefix="probe%d" % seq)
            if mac is None:
                continue
            payload = EthernetFrame(
                src_mac=port.nominated_mac,
                dst_mac=mac,
                ethertype=EtherType.IPV4,
                payload_size=PROBE_PAYLOAD_SIZE,
                trace_id="probe%d-data" % seq,
            )
            sent = probe.inject(m.asn, payload, round_no)
            hop_port = probe.port_with_ip(route.next_hop)
            matrix[key] = (hop_port is not None
                           and hop_port.member_asn in sent.deliveries)
    return matrix


def reference_prefix_overlaps(members: Iterable[MemberAs]) -> List[Violation]:
    """PREFIX_OVERLAP by comparing every pair of announced prefixes."""
    found: List[Violation] = []
    announced = sorted(
        ((p, m.asn) for m in members for p in m.announced_prefixes),
        key=lambda e: (str(e[0]), e[1]))
    for i, (pfx, asn) in enumerate(announced):
        for other, other_asn in announced[i + 1:]:
            if asn != other_asn and pfx.overlaps(other):
                found.append(
                    Violation("PREFIX_OVERLAP", str(pfx),
                              "%d %d %s" % (asn, other_asn, other)))
    return found


def reference_rs_redistribute(
    server: RouteServer,
    route: BgpRoute,
    from_asn: int,
    diagnostics: Optional[List[Tuple[str, int, BgpRoute]]] = None,
) -> List[Tuple[int, BgpRoute]]:
    """One copy of a client's route per other client, in client order,
    withheld from a client already in the AS path."""
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


def reference_exchange_routes(
    sim: Simulation,
) -> Tuple[Dict[int, MemberRib], List[BgpRoute]]:
    """One sweep of ``sim``'s active sessions into flat RIBs: every
    route-server route goes into each other client's RIB through
    ``MemberRib.add``.  Returns the RIBs and the upstream announcements."""
    ribs = {asn: MemberRib(asn) for asn in sim.members}
    sessions = sim.active_sessions()

    for s in sorted((x for x in sessions if x.kind is PeerKind.BILATERAL),
                    key=lambda x: (x.a, x.b)):
        for left, right in ((s.a, s.b), (s.b, s.a)):
            for pfx in sim.announced(left):
                ribs[right].add(BgpRoute(
                    pfx, (left,), sim.ports[left].exchange_ip, "bgp/%d" % left))

    for server in sim.active_servers():
        learned = "rs/%s" % server.host_pe
        for client in sorted(server.client_sessions):
            for pfx in sim.announced(client):
                route = BgpRoute(pfx, (client,), sim.ports[client].exchange_ip, learned)
                for to_asn, reflected in reference_rs_redistribute(server, route, client):
                    ribs[to_asn].add(reflected)

    for asn in sorted(sim.members):
        member = sim.members[asn]
        if not member.is_transit or not sim._port_active(asn):
            continue
        for to_asn, route in transit_deliveries(
                member, sim.ports[asn].exchange_ip, sessions,
                sim.scenario.external_prefixes):
            ribs[to_asn].add(route)

    upstream: List[BgpRoute] = []
    member_prefixes = [p for m in sim.members.values() for p in m.announced_prefixes]
    for asn in sorted(sim.members):
        member = sim.members[asn]
        if member.is_transit and sim._port_active(asn):
            upstream.extend(upstream_announcements(member, ribs[asn], member_prefixes))
    return ribs, upstream


def reference_rib_dump(ribs: Dict[int, MemberRib]) -> str:
    """One line per member and chosen route, each formatted on its own."""
    lines = []
    for asn in sorted(ribs):
        for prefix, route in ribs[asn].chosen().items():
            lines.append("%d|%s|%s|%s|%s" % (
                asn, prefix, " ".join(str(n) for n in route.as_path),
                route.next_hop, route.learned_from))
    return "\n".join(sorted(lines)) + ("\n" if lines else "")


def reference_forward(
    bridge: BridgeState,
    frame: EthernetFrame,
    arrived_via: Attachment,
    round_no: int = 0,
) -> List[Attachment]:
    """Learn, then return the attachments the frame leaves by, with the
    targets sorted and built again on every flood and the local MACs
    collected again on every wire arrival."""
    src = frame.src_mac
    if is_unicast(src):
        remote_claims_local = isinstance(arrived_via, PwRef) and src in {
            p.nominated_mac for p in bridge.ports.values()}
        if not remote_claims_local:
            bridge.mac_table[src] = MacEntry(arrived_via, round_no)

    if frame.dst_mac != BROADCAST_MAC:
        entry = bridge.lookup(frame.dst_mac, round_no)
        if entry is not None:
            if entry.where == arrived_via:
                return []
            if isinstance(entry.where, PortRef) and entry.where.asn not in bridge.ports:
                del bridge.mac_table[frame.dst_mac]
            else:
                return [entry.where]

    targets: List[Attachment] = [
        PortRef(asn)
        for asn, port in sorted(bridge.ports.items())
        if port.state is PortState.ACTIVE and PortRef(asn) != arrived_via
    ]
    if not isinstance(arrived_via, PwRef):
        targets += [PwRef(pe) for pe in sorted(bridge.pws)]
    return targets


def reference_inject(
    fabric: Fabric,
    asn: int,
    frame: EthernetFrame,
    round_no: int = 0,
) -> InjectResult:
    """``Fabric.inject`` with nothing cached: the sender's port is found by
    scanning every bridge, every hop goes through ``reference_forward``,
    and every wire crossing sizes the frame again, walks its LSP from the
    label table and checks each link's MTU.  Appends to ``fabric.trace``
    and ``fabric.drops``."""

    def log(pe: str, via: str, action: str) -> None:
        fabric.trace.append(TraceRow(round_no, frame.trace_id, pe, via, action))

    port = next(b.ports[asn] for b in fabric.bridges.values() if asn in b.ports)
    via = "port/%d" % asn
    reason = ingress_filter(port, frame)
    if reason is not None:
        log(port.attach_pe, via, "drop:%s" % reason.value)
        fabric.drops.append(DropRecord(round_no, asn, reason, frame.trace_id))
        return InjectResult(accepted=False, drop_reason=reason)
    log(port.attach_pe, via, "accept")

    result = InjectResult(accepted=True, drop_reason=None)
    queue = deque([(fabric.bridges[port.attach_pe], PortRef(asn))])
    while queue:
        here, arrived = queue.popleft()
        for via in reference_forward(here, frame, arrived, round_no):
            result.emissions += 1
            label = ("port/%d" % via.asn if isinstance(via, PortRef)
                     else "pw/%s" % via.remote_pe)
            log(here.pe, label, "emit")
            if isinstance(via, PortRef):
                log(here.pe, label, "deliver")
                result.deliveries.append(via.asn)
                continue
            # on a wire: Ethernet header and FCS, a transport and a VPLS label
            size = frame.payload_size + ETHERNET_OVERHEAD + MPLS_OVERHEAD
            path = here.pws[via.remote_pe].transport_from(here.pe, fabric.labels)
            bad = next((link for link in
                        (fabric.topo.links[i] for i in path.link_indices())
                        if size > link.mtu), None)
            if bad is not None:
                log(here.pe, label, "drop:%s" % DropReason.MTU_EXCEEDED.value)
                fabric.drops.append(DropRecord(
                    round_no, None, DropReason.MTU_EXCEEDED, frame.trace_id,
                    offending_link=bad))
                continue
            result.pw_traversals += 1
            log(via.remote_pe, "pw/%s" % here.pe, "receive")
            queue.append((fabric.bridges[via.remote_pe], PwRef(here.pe)))
    return result
