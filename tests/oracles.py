"""Reference implementations the tests trust instead of the code under test.

Deliberately different algorithms: Floyd-Warshall rather than Dijkstra,
union-find rather than BFS, plain double loops rather than closed formulas,
route reflection run to a fixpoint rather than its closed form, a full ARP
exchange and data probe per reachability cell rather than one
flood per source member.
"""

from __future__ import annotations

import ipaddress
import math
from itertools import combinations
from typing import Dict, List, Sequence, Set, Tuple

from ixsim.dataplane import EtherType, EthernetFrame, Fabric
from ixsim.exchange_l3 import PROBE_PAYLOAD_SIZE, MemberRib, arp_resolve
from ixsim.model import LinkState, MemberAs, MemberPort, PortState, Topology
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
