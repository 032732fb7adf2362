"""Reference implementations the tests trust instead of the code under test.

Deliberately different algorithms: Floyd-Warshall rather than Dijkstra,
union-find rather than BFS, plain double loops rather than closed formulas,
route reflection run to a fixpoint rather than its closed form, a full ARP
exchange and data probe per reachability cell rather than one
flood per source member, a pairwise prefix-overlap scan rather than a
sweep, route-server routes copied into every other client's RIB rather
than one table per server, transit routes built again for every taker
rather than once per policy, upstream announcements read off ``chosen()``
rather than at the member prefixes, a RIB dump that selects over the
merged candidates by their fields and formats line by line rather than
once per distinct route, frame forwarding that derives every port
lookup, flood target, local MAC set and wire path again on each hop
rather than once per fabric, bridge or wire direction, and reachability
read off RIBs, port states and underlay components rather than off
frames.
"""

from __future__ import annotations

import ipaddress
import math
from collections import deque
from itertools import combinations
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ixsim.dataplane import (
    BROADCAST_MAC,
    DEFAULT_MAC_AGING_ROUNDS,
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
    TraceRow,
    ingress_filter,
)
from ixsim.engine import Simulation
from ixsim.exchange_l3 import (
    DEFAULT_ROUTE,
    PROBE_PAYLOAD_SIZE,
    BgpRoute,
    MemberRib,
    PeerKind,
    RouteServer,
    TransitPolicy,
    arp_resolve,
    external_origin_asn,
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
    names: Iterable[str],
    sessions: Set[Tuple[str, str]],
    reflectors: Iterable[str],
) -> Dict[str, Set[str]]:
    """Run reflection to a fixpoint and return the origin PEs of the adverts
    each PE received.

    A session is a pair of PE names; it is a client session, ``(client,
    reflector)``, when its first PE is not a reflector, and a session
    between reflectors otherwise.  Standard reflection rules: a reflector
    passes client-learned state to everyone, and peer-learned state to its
    clients only.  Clients originate and receive but never relay.
    """
    names = list(names)
    reflectors = set(reflectors)
    client_learned: Dict[str, Set[str]] = {pe: set() for pe in names}
    peer_learned: Dict[str, Set[str]] = {pe: set() for pe in names}
    received: Dict[str, Set[str]] = {pe: set() for pe in names}

    ordered = sorted(sessions)
    changed = True
    while changed:
        changed = False
        for a, b in ordered:
            if a not in reflectors:
                client, rr = a, b
                if client not in client_learned[rr]:
                    client_learned[rr].add(client)
                    changed = True
                down = {rr} | client_learned[rr] | peer_learned[rr]
                down.discard(client)
                if not down <= received[client]:
                    received[client] |= down
                    changed = True
            else:
                for left, right in ((a, b), (b, a)):
                    out = {left} | client_learned[left]
                    out.discard(right)
                    if not out <= peer_learned[right]:
                        peer_learned[right] |= out
                        changed = True

    for rr in names:
        received[rr] |= (client_learned[rr] | peer_learned[rr]) - {rr}
    return received


def mutually_visible_pairs(received: Dict[str, Set[str]]) -> set[tuple[str, str]]:
    """Unordered PE pairs in which each side received the other's advert."""
    return {(a, b) for a in received for b in received
            if a < b and b in received[a] and a in received[b]}


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


def closed_form_reachability(sim: Simulation) -> Dict[Tuple[int, str], bool]:
    """Every reachability cell of ``sim`` in closed form, with no frame
    sent.  Cell (member, prefix) is true exactly when all of these hold:

    - the member's port is active;
    - its RIB covers the prefix: the longest candidate prefix holding it,
      and there the route first in ``field_order``;
    - the lowest-ASN port holding that route's next hop exists, is not
      the member's own, and is active;
    - the two ports sit on one PE, or their PEs are in one component
      over the up links.

    Nothing else can fail a probe: probes are at most 126 bytes on a wire
    while validation keeps every MTU at 1600 or more, and they carry the
    nominated MACs.
    """
    members = sorted(sim.members.values(), key=lambda m: m.asn)
    targets = [(pfx, m.asn) for m in members for pfx in m.announced_prefixes]
    targets += [(pfx, 0) for pfx in sim.scenario.external_prefixes]
    matrix: Dict[Tuple[int, str], bool] = {}
    for m in members:
        port = sim.ports.get(m.asn)
        rib = sim.l3.ribs.get(m.asn)
        active = port is not None and rib is not None and port.state is PortState.ACTIVE
        candidates = list(rib.candidates.values()) if active else []
        for pfx, owner in targets:
            if owner == m.asn:
                continue
            route = _covering_by_scan(candidates, pfx)
            matrix[(m.asn, str(pfx))] = route is not None and _reaches_next_hop(sim, port, route)
    return matrix


def _covering_by_scan(candidates: Sequence[Dict[str, BgpRoute]],
                      pfx: ipaddress.IPv4Network) -> Optional[BgpRoute]:
    """The route selected for ``pfx`` among ``candidates``, one dict of
    routes per prefix: at the longest prefix holding ``pfx``, the route
    first in ``field_order``."""
    best: Optional[BgpRoute] = None
    for routes in candidates:
        route = min(routes.values(), key=field_order)
        if pfx.subnet_of(route.prefix) and (
                best is None or route.prefix.prefixlen > best.prefix.prefixlen):
            best = route
    return best


def _reaches_next_hop(sim: Simulation, port: MemberPort, route: BgpRoute) -> bool:
    """Whether the active ``port`` reaches the lowest-ASN port holding
    ``route``'s next hop: it exists, is another member's, is active, and
    sits on ``port``'s PE or in its underlay component."""
    owners = sorted(asn for asn, p in sim.ports.items() if p.exchange_ip == route.next_hop)
    if not owners or owners[0] == port.member_asn:
        return False
    hop = sim.ports[owners[0]]
    return hop.state is PortState.ACTIVE and (
        hop.attach_pe == port.attach_pe
        or same_component(sim.topo, hop.attach_pe, port.attach_pe))


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

    externals = sim.scenario.external_prefixes
    for asn in sorted(sim.members):
        member = sim.members[asn]
        if not member.is_transit or not sim._port_active(asn):
            continue
        hop, learned = sim.ports[asn].exchange_ip, "bgp/%d" % asn
        for s in sorted(sessions, key=lambda s: (s.a, s.b)):
            if s.kind is not PeerKind.TRANSIT or s.b != asn:
                continue
            if s.policy is TransitPolicy.DEFAULT_ONLY:
                ribs[s.a].add(BgpRoute(DEFAULT_ROUTE, (asn,), hop, learned))
                continue
            for i, pfx in enumerate(externals):
                ribs[s.a].add(BgpRoute(pfx, (asn, external_origin_asn(i)), hop, learned))

    upstream: List[BgpRoute] = []
    member_prefixes = {p for m in sim.members.values() for p in m.announced_prefixes}
    for asn in sorted(sim.members):
        member = sim.members[asn]
        if not member.is_transit or not sim._port_active(asn):
            continue
        for prefix, route in sorted(ribs[asn].chosen().items(), key=lambda kv: str(kv[0])):
            if prefix in member_prefixes and asn not in route.as_path:
                upstream.append(BgpRoute(prefix, (asn,) + route.as_path,
                                         route.next_hop, "upstream"))
    return ribs, upstream


def field_order(route: BgpRoute) -> Tuple[int, int, str]:
    """Selection order read off a route's fields: shortest AS path, lowest
    next hop, lowest learned-from identifier."""
    return (len(route.as_path), int(route.next_hop), route.learned_from)


def reference_rib_dump(ribs: Dict[int, MemberRib]) -> str:
    """One line per member and prefix, selecting over the merged
    candidates by ``field_order``, each line formatted on its own."""
    lines = []
    for asn in sorted(ribs):
        for routes in ribs[asn].candidates.values():
            route = min(routes.values(), key=field_order)
            lines.append("%d|%s|%s|%s|%s" % (
                asn, route.prefix, " ".join(str(n) for n in route.as_path),
                route.next_hop, route.learned_from))
    return "\n".join(sorted(lines)) + ("\n" if lines else "")


def reference_forward(
    bridge: BridgeState,
    macs: Dict[str, MacEntry],
    frame: EthernetFrame,
    arrived_via: Attachment,
    round_no: int = 0,
) -> List[Attachment]:
    """Learn into ``macs``, then return the attachments the frame leaves
    by, with the targets sorted and built again on every flood and the
    local MACs collected again on every wire arrival."""
    src = frame.src_mac
    if is_unicast(src):
        remote_claims_local = isinstance(arrived_via, str) and src in {
            p.nominated_mac for p in bridge.ports.values()}
        if not remote_claims_local:
            macs[src] = MacEntry(arrived_via, round_no)

    if frame.dst_mac != BROADCAST_MAC:
        entry = macs.get(frame.dst_mac)
        if entry is not None and round_no - entry.learned_round >= DEFAULT_MAC_AGING_ROUNDS:
            del macs[frame.dst_mac]  # aged out
            entry = None
        if entry is not None:
            if entry.where == arrived_via:
                return []
            if isinstance(entry.where, int) and entry.where not in bridge.ports:
                del macs[frame.dst_mac]
            else:
                return [entry.where]

    targets: List[Attachment] = [
        asn
        for asn, port in sorted(bridge.ports.items())
        if port.state is PortState.ACTIVE and asn != arrived_via
    ]
    if not isinstance(arrived_via, str):
        targets += sorted(bridge.pws)
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
    next-hop table and checks each link's MTU.  Appends to ``fabric.trace``
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
    queue = deque([(fabric.bridges[port.attach_pe], asn)])
    while queue:
        here, arrived = queue.popleft()
        for via in reference_forward(here, fabric.macs[here.pe], frame, arrived, round_no):
            result.emissions += 1
            label = "port/%d" % via if isinstance(via, int) else "pw/%s" % via
            log(here.pe, label, "emit")
            if isinstance(via, int):
                log(here.pe, label, "deliver")
                result.deliveries.append(via)
                continue
            # on a wire: Ethernet header and FCS, a transport and a VPLS label
            size = frame.payload_size + ETHERNET_OVERHEAD + MPLS_OVERHEAD
            path = here.pws[via].transport_from(here.pe, fabric.labels)
            bad = next((link for link in
                        (fabric.topo.links[i] for i in path)
                        if size > link.mtu), None)
            if bad is not None:
                log(here.pe, label, "drop:%s" % DropReason.MTU_EXCEEDED.value)
                fabric.drops.append(DropRecord(
                    round_no, None, DropReason.MTU_EXCEEDED, frame.trace_id,
                    offending_link=bad))
                continue
            result.pw_traversals += 1
            log(via, "pw/%s" % here.pe, "receive")
            queue.append((fabric.bridges[via], here.pe))
    return result
