"""Convergence engine and reporting for scenario runs.

One Simulation owns all mutable run state.  It builds the underlay and the
signalling once, when it is made: shortest-path trees, the next-hop table,
the signalling session graph, membership adverts and the pseudo-wire mesh.
Every label block starts at FIRST_FREE_LABEL + P, leaving 16 up to
16 + P - 1 for one transport label per loopback (RFC 8402) that the fabric
never reads (see vpls_signal), and route reflection is complete by
construction, so no block, session or advert depends on what the
underlay reaches.  converge() rebuilds the fabric and runs one sweep of
member route exchange.  Route servers only reflect what members announce,
so that sweep reads configuration alone and is already final.  Each route
server collects its clients' routes into one table that every client's
RIB views (see exchange_l3), so a sweep, its comparison with the last one
and the RIB dump all work per server table, not per member and route.

Events mutate configuration and re-converge.  A port promotion or a
withdrawal reruns converge().  A link event keeps the route exchange,
since no RIB depends on a link, and repairs only the shortest-path trees
the flipped links change, each only where the flip moves it (see
underlay).  A repaired tree is a new object with its own maps, so the
next hops of the fabric built before the event never change under it.
The next-hop table is the trees' own first-hop maps, so a repaired tree
brings its node's next hops with it.  The pseudo-wire mesh is built once,
since its labels come from the adverts alone; when some repaired tree
reaches a different set of nodes, a partition or a heal, the wires that
stand are chosen from it again by next hops.  Link events rebuild the
fabric as converge() does, so learned MACs and walked LSPs are reset on
every event that reconverges.  Frame injection exercises only the data
plane.

There is no randomness anywhere, so two runs of the same scenario produce
byte-identical reports, RIB dumps, traces and graph exports.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, field, replace
from typing import Collection, Dict, List, Set, Tuple

from ixsim.dataplane import (
    DEFAULT_PROBATION_ROUNDS,
    BridgeState,
    DropReason,
    EthernetFrame,
    Fabric,
    format_trace,
    promote_port,
)
from ixsim.exchange_l3 import (
    BgpRoute,
    MemberRib,
    PeerKind,
    PeeringSession,
    RouteServer,
    reachability_matrix,
    ribs_differ,
    rs_redistribute,
    selection_key,
    transit_deliveries,
    upstream_announcements,
)
from ixsim.model import (
    LinkKind,
    LinkState,
    MemberAs,
    MemberPort,
    PortState,
    full_mesh_size,
)
from ixsim.scenario import Event, EventKind, Scenario
from ixsim.underlay import (
    LabelTable,
    SpfTree,
    allocate_labels,
    compute_all_spf,
    rerun_stale_spf,
)
from ixsim.vpls_signal import (
    VplsAdvert,
    build_session_graph,
    derive_pseudowires,
    originate_adverts,
    propagate,
    pseudowire_mesh,
)


class UnknownEntityError(Exception):
    """An event referenced something the scenario does not contain."""


@dataclass
class _L3State:
    """Outcome of one full route-exchange sweep."""

    ribs: Dict[int, MemberRib] = field(default_factory=dict)
    upstream: List[BgpRoute] = field(default_factory=list)


class Simulation:
    """All state for one scenario run."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.topo = scenario.topology
        self.members: Dict[int, MemberAs] = {m.asn: m for m in scenario.members}
        self.ports: Dict[int, MemberPort] = {p.member_asn: p for p in scenario.ports}

        self.current_round = 0
        self.rounds_total = 0
        self._trace_seq = 0

        self.trees: Dict[str, SpfTree] = compute_all_spf(self.topo)
        labels = allocate_labels(self.trees)
        self.ibgp_sessions: Set = build_session_graph(self.topo)
        self.adverts: Dict[str, VplsAdvert] = propagate(
            originate_adverts(self.topo.node_names()), self.ibgp_sessions)
        self.mesh = pseudowire_mesh(self.adverts)  # every pair; labels never change
        self.pseudowires, self.missing_transport = derive_pseudowires(self.mesh, labels)
        self.fabric = Fabric(self.topo, {}, labels)  # bridges come with converge()
        self.l3 = _L3State()

    # -- configuration views -------------------------------------------------

    def announced(self, asn: int) -> Tuple[ipaddress.IPv4Network, ...]:
        return self.members[asn].announced_prefixes

    def active_sessions(self) -> List[PeeringSession]:
        """Configured sessions whose two members have active ports."""
        return [s for s in self.scenario.sessions
                if self._port_active(s.a) and self._port_active(s.b)]

    def _port_active(self, asn: int) -> bool:
        port = self.ports.get(asn)
        return port is not None and port.state is PortState.ACTIVE

    def active_servers(self) -> List[RouteServer]:
        """Route servers with quarantined clients filtered out."""
        out = []
        for server in self.scenario.route_servers:
            clients = tuple(c for c in server.client_sessions if self._port_active(c))
            out.append(replace(server, client_sessions=clients))
        return out

    # -- convergence ---------------------------------------------------------

    def converge(self) -> int:
        """Rebuild the fabric over the current ports and exchange routes.
        The underlay and signalling stand from construction and from each
        link event, so a topology change must come as a link event.
        Returns 1 when the member RIBs changed and 0 when they did not."""
        self._rebuild_fabric(self.fabric.labels)
        sweep = self._exchange_routes()
        changed = int(ribs_differ(self.l3.ribs, sweep.ribs))
        self.l3 = sweep
        self.rounds_total += changed
        return changed

    def _relink(self, flapped: Collection[int]) -> None:
        """Bring the link-dependent layers up to date after the ``flapped``
        links (indices into ``self.topo``) changed state: repair the trees
        they change, take each repaired tree's first hops as its node's
        next hops, choose the standing wires from the mesh again if a
        reachable set changed, and rebuild the fabric."""
        fresh = rerun_stale_spf(self.topo, self.trees, flapped)
        labels = {**self.fabric.labels,
                  **{name: tree.first_hop for name, tree in fresh.items()}}
        if any(tree.dist.keys() != self.trees[name].dist.keys()
               for name, tree in fresh.items()):
            self.pseudowires, self.missing_transport = derive_pseudowires(self.mesh, labels)
        self.trees = {**self.trees, **fresh}
        self._rebuild_fabric(labels)

    def _rebuild_fabric(self, labels: LabelTable) -> None:
        """Fresh bridges wired to the current ports and pseudo-wire mesh,
        carried over the next hops of ``labels``; no bridge is rewired after
        this (see BridgeState).  Learned MACs and resolved transport do not
        survive reconvergence; the logs and trace numbering do."""
        bridges = {}
        for name in self.topo.node_names():
            bridges[name] = BridgeState(pe=name)
        for port in self.ports.values():
            bridges[port.attach_pe].ports[port.member_asn] = port
        for pw in self.pseudowires:
            bridges[pw.pe_a].pws[pw.pe_b] = pw
            bridges[pw.pe_b].pws[pw.pe_a] = pw
        self.fabric = Fabric(self.topo, bridges, labels,
                             trace=self.fabric.trace, drops=self.fabric.drops)

    def _exchange_routes(self) -> _L3State:
        """One synchronous sweep of every active session.  Each active
        route server collects its clients' routes into one table, which
        every client's RIB views; bilateral and transit routes are added
        to the receiving RIB."""
        sessions = self.active_sessions()
        tables = []
        for server in self.active_servers():
            learned = "rs/%s" % server.host_pe
            tables.append(rs_redistribute(server, (
                BgpRoute(pfx, (client,), self.ports[client].exchange_ip, learned)
                for client in sorted(server.client_sessions)
                for pfx in self.announced(client))))
        state = _L3State(ribs={
            asn: MemberRib(asn, [t for t in tables if asn in t.clients])
            for asn in self.members})
        ribs = state.ribs

        for s in sorted((x for x in sessions if x.kind is PeerKind.BILATERAL),
                        key=lambda x: (x.a, x.b)):
            for left, right in ((s.a, s.b), (s.b, s.a)):
                for pfx in self.announced(left):
                    ribs[right].add(BgpRoute(
                        pfx, (left,), self.ports[left].exchange_ip, "bgp/%d" % left))

        for asn in sorted(self.members):
            member = self.members[asn]
            if not member.is_transit or not self._port_active(asn):
                continue
            for to_asn, route in transit_deliveries(
                    member, self.ports[asn].exchange_ip, sessions,
                    self.scenario.external_prefixes):
                ribs[to_asn].add(route)

        member_prefixes = [p for m in self.members.values()
                           for p in m.announced_prefixes]
        for asn in sorted(self.members):
            member = self.members[asn]
            if member.is_transit and self._port_active(asn):
                state.upstream.extend(upstream_announcements(
                    member, ribs[asn], member_prefixes))
        return state

    # -- events ----------------------------------------------------------

    def apply_event(self, event: Event) -> None:
        self.current_round = max(self.current_round, event.at_round)
        kind = event.kind
        if kind in (EventKind.LINK_DOWN, EventKind.LINK_UP):
            a, b = event.args
            indices = self.topo.links_between(a, b)
            if not indices:
                raise UnknownEntityError("no link between %s and %s" % (a, b))
            target = LinkState.DOWN if kind is EventKind.LINK_DOWN else LinkState.UP
            flapped = [i for i in indices if self.topo.links[i].state is not target]
            for i in flapped:
                self.topo = self.topo.with_link_state(i, target)
            self._relink(flapped)  # the RIBs never depend on links
        elif kind is EventKind.PORT_PROMOTE_CHECK:
            (asn,) = event.args
            if asn not in self.ports:
                raise UnknownEntityError("no port for member %d" % asn)
            port = self.ports[asn]
            window_start = event.at_round - DEFAULT_PROBATION_ROUNDS
            observed = [d.reason for d in self.fabric.drops
                        if d.port_asn == asn
                        and window_start < d.round_no <= event.at_round]
            promoted = promote_port(port, observed)
            if promoted is not port:
                self.ports[asn] = promoted
                self.converge()
        elif kind is EventKind.INJECT_FRAME:
            asn, dst_mac, ethertype, size = event.args
            if asn not in self.ports:
                raise UnknownEntityError("no port for member %d" % asn)
            self._trace_seq += 1
            frame = EthernetFrame(
                src_mac=self.ports[asn].nominated_mac,
                dst_mac=dst_mac,
                ethertype=ethertype,
                payload_size=size,
                trace_id="t%d" % self._trace_seq,
            )
            self.fabric.inject(asn, frame, event.at_round)
        elif kind is EventKind.MEMBER_WITHDRAW:
            asn, prefix = event.args
            if asn not in self.members:
                raise UnknownEntityError("no member %d" % asn)
            member = self.members[asn]
            if prefix not in member.announced_prefixes:
                raise UnknownEntityError(
                    "member %d does not announce %s" % (asn, prefix))
            self.members[asn] = replace(
                member,
                announced_prefixes=tuple(p for p in member.announced_prefixes
                                         if p != prefix))
            self.converge()
        else:
            raise UnknownEntityError("unhandled event kind %s" % kind)

    def run(self) -> None:
        """Converge, then apply the scenario's events in round order."""
        self.converge()
        for event in self.scenario.events:
            self.apply_event(event)

    # -- outputs ---------------------------------------------------------

    def reachability(self) -> Dict[Tuple[int, str], bool]:
        return reachability_matrix(
            sorted(self.members.values(), key=lambda m: m.asn),
            self.ports,
            self.l3.ribs,
            self.scenario.external_prefixes,
            self.fabric,
            round_no=self.current_round,
        )

    def report(self) -> "Report":
        sessions = self.active_sessions()
        member_count = len(self.members)
        drops = {reason: 0 for reason in DropReason}
        for record in self.fabric.drops:
            drops[record.reason] += 1
        return Report(
            node_count=len(self.topo.nodes),
            member_count=member_count,
            convergence_rounds=self.rounds_total,
            pseudowire_count=len(self.pseudowires),
            missing_transport_count=len(self.missing_transport),
            ibgp_session_count=len(self.ibgp_sessions),
            rs_session_count=sum(
                len(server.client_sessions) for server in self.active_servers()),
            rs_server_count=len(self.scenario.route_servers),
            bilateral_session_count=sum(
                1 for s in sessions if s.kind is PeerKind.BILATERAL),
            transit_session_count=sum(
                1 for s in sessions if s.kind is PeerKind.TRANSIT),
            bilateral_equivalent=full_mesh_size(member_count),
            external_prefix_count=len(self.scenario.external_prefixes),
            drops=drops,
            frame_trace_rows=len(self.fabric.trace),
            reachability=self.reachability(),
            upstream=tuple(self.l3.upstream),
        )

    def rib_dump(self) -> str:
        """One line per selected route, pipe-separated, in plain string
        order.  Members that view the same server tables share the best of
        those tables' last offers at each prefix, so that line is selected
        and formatted once per group of members; a member patches a copy
        of it only at its own candidates and the keys a server withholds
        from it.  Each distinct route is rendered once, keyed by id(): the
        RIBs hold every route until this returns.  Heads "<asn>|" are
        prefix-free, so members taken in head order, each with its lines
        sorted, emit the lines in final order; a group's texts are kept in
        text order, so each member's sort mostly confirms it."""
        rendered: Dict[int, str] = {}

        def render(route: BgpRoute) -> str:
            text = rendered.get(id(route))
            if text is None:
                text = rendered[id(route)] = "%s|%s|%s|%s" % (
                    route.prefix, " ".join(str(n) for n in route.as_path),
                    route.next_hop, route.learned_from)
            return text

        groups: Dict[Tuple[int, ...], Dict[Tuple[int, int], str]] = {}
        lines: List[str] = []
        ribs = self.l3.ribs
        for asn in sorted(ribs, key=lambda n: "%d|" % n):
            rib = ribs[asn]
            views = tuple(map(id, rib.views))
            shared = groups.get(views)
            if shared is None:
                best: Dict[Tuple[int, int], BgpRoute] = {}
                for table in rib.views:
                    for key, offers in table.offers.items():
                        route = offers[-1]
                        if key not in best or selection_key(route) < selection_key(best[key]):
                            best[key] = route
                shared = groups[views] = dict(sorted(
                    ((key, render(route)) for key, route in best.items()),
                    key=lambda item: item[1]))
            texts = dict(shared)
            for key in rib.revisits():
                route = rib.best_at(key)
                if route is None:
                    texts.pop(key, None)
                else:
                    texts[key] = render(route)
            head = "%d|" % asn
            lines.extend(head + text for text in sorted(texts.values()))
        return "\n".join(lines) + ("\n" if lines else "")

    def trace_dump(self) -> str:
        return format_trace(self.fabric.trace)


@dataclass
class Report:
    node_count: int
    member_count: int
    convergence_rounds: int
    pseudowire_count: int
    missing_transport_count: int
    ibgp_session_count: int
    rs_session_count: int
    rs_server_count: int
    bilateral_session_count: int
    transit_session_count: int
    bilateral_equivalent: int
    external_prefix_count: int
    drops: Dict[DropReason, int]
    frame_trace_rows: int
    reachability: Dict[Tuple[int, str], bool]
    upstream: tuple

    def to_text(self) -> str:
        lines = [
            "bilateral_equivalent=%d" % self.bilateral_equivalent,
            "bilateral_session_count=%d" % self.bilateral_session_count,
            "convergence_rounds=%d" % self.convergence_rounds,
            "external_prefix_count=%d" % self.external_prefix_count,
            "frame_trace_rows=%d" % self.frame_trace_rows,
            "ibgp_session_count=%d" % self.ibgp_session_count,
            "member_count=%d" % self.member_count,
            "missing_transport_count=%d" % self.missing_transport_count,
            "node_count=%d" % self.node_count,
            "pseudowire_count=%d" % self.pseudowire_count,
            "rs_server_count=%d" % self.rs_server_count,
            "rs_session_count=%d" % self.rs_session_count,
            "transit_session_count=%d" % self.transit_session_count,
            "upstream_announcement_count=%d" % len(self.upstream),
        ]
        for reason in DropReason:
            lines.append("drop.%s=%d" % (reason.value, self.drops[reason]))
        for (asn, prefix), ok in self.reachability.items():
            lines.append("reach.%d.%s=%d" % (asn, prefix, 1 if ok else 0))
        for route in self.upstream:
            lines.append("upstream.%s=%s" % (
                route.prefix, " ".join(str(n) for n in route.as_path)))
        return "\n".join(sorted(lines)) + "\n"


# -- graph export ----------------------------------------------------------

DOT_LAYERS = ("physical", "vpls", "peering")


def export_dot(sim: Simulation, layer: str) -> str:
    """Graphviz text for one layer of the deployment.  Node and edge order
    are sorted, so output is stable across runs."""
    if layer not in DOT_LAYERS:
        raise ValueError("unknown layer %r" % layer)
    lines = ["graph %s {" % layer]
    if layer == "physical":
        for name in sim.topo.node_names():
            node = sim.topo.node(name)
            marks = []
            if node.is_route_reflector:
                marks.append("rr")
            if node.hosts_route_server:
                marks.append("rs")
            suffix = (" [xlabel=\"%s\"]" % ",".join(marks)) if marks else ""
            lines.append("  \"%s\"%s;" % (name, suffix))
        edges = []
        for i, link in enumerate(sim.topo.links):
            a, b = link.endpoints
            style = "solid" if link.kind is LinkKind.LEASED else "dashed"
            attrs = "label=\"%d\", style=%s" % (link.cost, style)
            if link.state is LinkState.DOWN:
                attrs += ", color=gray"
            edges.append((a, b, i, "  \"%s\" -- \"%s\" [%s];" % (a, b, attrs)))
        for _, _, _, text in sorted(edges):
            lines.append(text)
    elif layer == "vpls":
        for name in sim.topo.node_names():
            lines.append("  \"%s\";" % name)
        for pw in sorted(sim.pseudowires, key=lambda w: (w.pe_a, w.pe_b)):
            lines.append("  \"%s\" -- \"%s\" [label=\"%d/%d\"];"
                         % (pw.pe_a, pw.pe_b, pw.label_a_to_b, pw.label_b_to_a))
    else:
        for asn in sorted(sim.members):
            lines.append("  \"AS%d\";" % asn)
        for server in sim.scenario.route_servers:
            lines.append("  \"RS:%s\";" % server.host_pe)
        edges = ["  \"AS%d\" -- \"RS:%s\" [style=dashed];" % (asn, server.host_pe)
                 for server in sim.active_servers() for asn in server.client_sessions]
        for s in sim.active_sessions():
            if s.kind is PeerKind.BILATERAL:
                edges.append("  \"AS%d\" -- \"AS%d\";" % (s.a, s.b))
            else:
                edges.append("  \"AS%d\" -- \"AS%d\" [style=bold, label=\"%s\"];"
                             % (s.a, s.b, s.policy.value))
        lines.extend(sorted(edges))
    lines.append("}")
    return "\n".join(lines) + "\n"
