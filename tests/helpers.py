"""Builders shared by the test modules."""

from __future__ import annotations

import ipaddress
import random
import sys
import types
from dataclasses import replace
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence

from ixsim.dataplane import BROADCAST_MAC, EtherType, Fabric, build_bridges
from ixsim.engine import Simulation
from ixsim.exchange_l3 import PeerKind, PeeringSession, RouteServer, TransitPolicy
from ixsim.underlay import allocate_labels, compute_all_spf
from ixsim.vpls_signal import (
    build_session_graph,
    derive_pseudowires,
    originate_adverts,
    propagate,
    pseudowire_mesh,
)
from ixsim.model import (
    Link,
    LinkKind,
    MemberAs,
    MemberPort,
    PeNode,
    PortState,
    Topology,
)
from ixsim.scenario import Event, EventKind, Scenario, load_scenario

WHIX = Path(__file__).resolve().parent.parent / "scenarios" / "whix.scn"

EXCHANGE_PREFIX = ipaddress.IPv4Network("192.0.2.0/24")


def load_whix() -> Scenario:
    return load_scenario(str(WHIX))


def load_generator() -> types.ModuleType:
    """The benchmark's scenario generator, read from its file and run in a
    fresh module, so that nothing is written next to it."""
    path = WHIX.parent.parent / "perfbench" / "generate.py"
    module = types.ModuleType("perfbench_generate")
    sys.modules[module.__name__] = module  # dataclasses look their module up
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def make_topology(
    edges: Sequence[tuple],
    reflectors: Iterable[str] = (),
    rs_nodes: Iterable[str] = (),
    extra_nodes: Iterable[str] = (),
    mtu: int = 1600,
) -> Topology:
    """Topology from (a, b[, cost[, mtu]]) tuples; nodes are inferred."""
    reflectors = set(reflectors)
    rs_nodes = set(rs_nodes)
    names = sorted({e[0] for e in edges} | {e[1] for e in edges} | set(extra_nodes))
    nodes = [
        PeNode(
            name=name,
            loopback=ipaddress.IPv4Address("172.16.50.%d" % (i + 1)),
            is_route_reflector=name in reflectors,
            hosts_route_server=name in rs_nodes,
        )
        for i, name in enumerate(names)
    ]
    links = []
    for edge in edges:
        a, b = edge[0], edge[1]
        cost = edge[2] if len(edge) > 2 else 1
        link_mtu = edge[3] if len(edge) > 3 else mtu
        links.append(Link(a, b, cost, link_mtu, LinkKind.RADIO))
    return Topology.build(nodes, links)


def make_port(
    asn: int,
    pe: str,
    index: int,
    state: PortState = PortState.ACTIVE,
) -> MemberPort:
    return MemberPort(
        member_asn=asn,
        attach_pe=pe,
        nominated_mac="02:00:00:00:%02x:%02x" % (index // 256, index % 256),
        exchange_ip=ipaddress.IPv4Address("192.0.2.%d" % (10 + index)),
        state=state,
    )


def make_exchange(
    edges: Sequence[tuple],
    placements: Sequence[tuple],
    reflectors: Iterable[str] = (),
    rs_nodes: Iterable[str] = (),
    all_on_rs: bool = False,
    sessions: Sequence[PeeringSession] = (),
    externals: Sequence[str] = (),
    events: Sequence = (),
    announce: bool = True,
    extra_nodes: Iterable[str] = (),
) -> Scenario:
    """Programmatic scenario: placements are (asn, pe[, state[, transit]])."""
    topo = make_topology(edges, reflectors, rs_nodes, extra_nodes=extra_nodes)
    members = []
    ports = []
    for i, placement in enumerate(sorted(placements)):
        asn, pe = placement[0], placement[1]
        state = placement[2] if len(placement) > 2 else PortState.ACTIVE
        transit = placement[3] if len(placement) > 3 else False
        prefixes = (ipaddress.IPv4Network("10.177.%d.0/24" % (i + 1)),) if announce else ()
        members.append(MemberAs(asn, "as%d" % asn, transit, prefixes))
        ports.append(make_port(asn, pe, i + 1, state))

    clients = tuple(m.asn for m in members) if all_on_rs else ()
    servers = [RouteServer(node, 65536 + i, clients)
               for i, node in enumerate(sorted(set(rs_nodes)))]

    return Scenario(
        topology=topo,
        members=tuple(members),
        ports=tuple(ports),
        sessions=tuple(sessions),
        route_servers=tuple(servers),
        external_prefixes=tuple(ipaddress.IPv4Network(e) for e in externals),
        exchange_prefix=EXCHANGE_PREFIX,
        events=tuple(events),
    )


def hand_fabric(edges: Sequence[tuple], placements: Sequence[tuple],
                reflectors: Iterable[str]) -> Fabric:
    """Fabric without the engine: placements are (asn, pe, index[, state])."""
    topo = make_topology(edges, reflectors=reflectors)
    table = allocate_labels(compute_all_spf(topo))
    adverts = originate_adverts(topo.node_names())
    wires, missing = derive_pseudowires(
        pseudowire_mesh(propagate(adverts, build_session_graph(topo))), table)
    assert missing == ()
    ports = MappingProxyType({p[0]: make_port(*p) for p in placements})
    return Fabric(topo, ports, build_bridges(topo.node_names(), ports, wires), table)


def with_ports(fabric: Fabric, ports: Mapping[int, MemberPort]) -> Fabric:
    """A fresh fabric over ``ports``, with empty MAC tables, on ``fabric``'s
    topology, next hops and standing wires."""
    pairs = sorted((pe, remote) for pe, bridge in fabric.bridges.items()
                   for remote in bridge.wires if pe < remote)
    ports = MappingProxyType(dict(ports))
    return Fabric(fabric.topo, ports, build_bridges(fabric.bridges, ports, pairs),
                  fabric.labels)


def random_event(rng: random.Random, sim: Simulation, at: int,
                 kinds: Sequence[EventKind] = tuple(EventKind)) -> Optional[Event]:
    """An event at round ``at`` of a kind drawn from ``kinds``: a link event
    on one of ``sim``'s links, a promotion check of any port, a withdrawal
    of an announced prefix, or a 64-byte ARP or IPv4 frame from any port to
    broadcast or to a member's MAC.  None when the draw is a withdrawal
    and no member announces anything."""
    asns = sorted(sim.ports)
    kind = rng.choice(list(kinds))
    if kind in (EventKind.LINK_DOWN, EventKind.LINK_UP):
        args = rng.choice(sim.topo.links).endpoints
    elif kind is EventKind.PORT_PROMOTE_CHECK:
        args = (rng.choice(asns),)
    elif kind is EventKind.MEMBER_WITHDRAW:
        announcing = [m for m in sim.members.values() if m.announced_prefixes]
        if not announcing:
            return None
        member = rng.choice(announcing)
        args = (member.asn, rng.choice(member.announced_prefixes))
    else:
        dst = rng.choice([BROADCAST_MAC] + [sim.ports[asn].nominated_mac for asn in asns])
        args = (rng.choice(asns), dst, rng.choice([EtherType.ARP, EtherType.IPV4]), 64)
    return Event(at, kind, args)


def converged(scenario: Scenario) -> Simulation:
    sim = Simulation(scenario)
    sim.converge()
    return sim


def random_connected_topology(rng: random.Random, n: int,
                              mtu: int = 1600) -> Topology:
    """Spanning tree plus a few extra edges; costs 1..20, one reflector."""
    names = ["pe%02d" % i for i in range(1, n + 1)]
    order = names[:]
    rng.shuffle(order)
    edges = []
    for i in range(1, len(order)):
        other = order[rng.randrange(i)]
        edges.append((order[i], other, rng.randint(1, 20), mtu))
    for _ in range(rng.randint(0, n)):
        a, b = rng.sample(names, 2) if n >= 2 else (None, None)
        if a is None:
            break
        edges.append((a, b, rng.randint(1, 20), mtu))
    return make_topology(edges, reflectors={sorted(names)[0]}) if edges \
        else make_topology([], extra_nodes=names)


def random_exchange(rng: random.Random, n: int,
                    route_server: bool = False, externals: int = 0,
                    bilateral: int = 0, quarantined: int = 0,
                    split_clients: bool = False) -> Simulation:
    """Converged fabric over a random topology, one or two members per PE.
    With route_server, the reflector hosts one and every member is its
    client.  With externals, the first member is a transit provider for
    that many external prefixes, and each other member takes a default
    route, the full table or nothing from it.  Then up to ``bilateral``
    random member pairs peer directly and ``quarantined`` random ports
    start in quarantine; both draw from rng only when asked for, after
    everything else.  With split_clients as well as route_server, and at
    least two PEs, a second PE hosts a route server too and each member is
    a client of one of the two or of both; drawn last."""
    topo = random_connected_topology(rng, n)
    placements = []  # [asn, pe, port state, transit]
    asn = 63001
    for name in topo.node_names():
        for _ in range(rng.randint(1, 2)):
            placements.append([asn, name, PortState.ACTIVE, False])
            asn += 1
    sessions = []
    if externals:
        placements[0][3] = True
        transit = placements[0][0]
        for member, *_ in placements[1:]:
            policy = rng.choice([None, TransitPolicy.DEFAULT_ONLY, TransitPolicy.FULL_TABLE])
            if policy is not None:
                sessions.append(PeeringSession(member, transit, PeerKind.TRANSIT, policy))
    asns = [p[0] for p in placements]
    pairs = {tuple(sorted(rng.sample(asns, 2))) for _ in range(bilateral)} \
        if len(asns) > 1 else set()
    for a, b in sorted(pairs):
        sessions.append(PeeringSession(a, b, PeerKind.BILATERAL))
    for k in rng.sample(range(len(placements)), min(quarantined, len(placements))):
        placements[k][2] = PortState.QUARANTINE
    reflectors = [n.name for n in topo.nodes if n.is_route_reflector]
    rs_nodes = reflectors if route_server else []
    split = route_server and split_clients and len(topo.nodes) > 1
    if split:
        rs_nodes = reflectors + [rng.choice([n for n in topo.node_names()
                                             if n not in reflectors])]
    scenario = make_exchange(
        [(l.a, l.b, l.cost, l.mtu) for l in topo.links],
        [tuple(p) for p in placements],
        reflectors=reflectors,
        rs_nodes=rs_nodes,
        all_on_rs=route_server,
        sessions=sessions,
        externals=["198.51.%d.0/24" % i for i in range(externals)],
        extra_nodes=topo.node_names(),  # one PE has no link to infer it from
    )
    if split:
        hosts = {asn: rng.choice([{0}, {1}, {0, 1}]) for asn in asns}
        scenario = replace(scenario, route_servers=tuple(
            replace(server, client_sessions=tuple(
                asn for asn in server.client_sessions if i in hosts[asn]))
            for i, server in enumerate(scenario.route_servers)))
    return converged(scenario)
