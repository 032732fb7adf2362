"""Convergence engine and reporting for scenario runs.

One Simulation owns all mutable run state.  It builds the underlay and the
signalling once, when it is made: shortest-path trees, the next-hop table,
the signalling session graph as PE name pairs, each PE's VE id (1..P in
name order) and the pseudo-wire mesh.  A wire's label toward a receiver is
FIRST_FREE_LABEL + P + ve(sender) - 1, from the block that leaves 16 up to
16 + P - 1 for one transport label per loopback (RFC 8402) that the fabric
never reads (see vpls_signal), and route reflection is complete by
construction, so no label, session or VE id depends on what the underlay
reaches.  Every fabric holds the run's one read-only port map, ``ports``,
and the bridges are built from it and the standing wires with the run;
converge() only runs one sweep of member route exchange, and since route
servers only reflect what members announce, it reads configuration alone
and is final.  Each route server collects its clients' routes into one
table that every client's RIB views (see exchange_l3), so a sweep, its
comparison with the last one and the RIB dump work per server table, not
per member and route.  Bilateral and transit routes are one object per
sender and prefix, whichever RIBs receive it, so the dump renders each
once.  A sweep builds RIBs only; the report reads the transit members'
upstream announcements off them.

Events mutate configuration and re-converge.  A port promotion or a
withdrawal reruns converge(); a promotion that changes a port, the one way
a port changes, first makes a new map with that port replaced and new
bridges from it.  A link event keeps the route exchange, since no RIB
depends on a link, and touches only the shortest-path trees the flipped
links change: a down repairs each below the links it lost, and an up
either restores the state from before its down (below) or reruns each tree
it changes (see underlay).  A new tree has its own maps, so the next hops
of the fabric built before the event never change under it.  The next-hop
table is the trees' own first-hop maps, so a new tree brings its node's
next hops with it.  A pseudo-wire is the pair of its PE names; the mesh,
every pair in name order, is built once, since the labels come from the VE
ids alone and the vpls graph export writes them from those.  When some new
tree reaches a different set of nodes, a partition or a heal, the wires
that stand are chosen from the mesh again by next hops, and each bridge
lists their remote PEs.  The run keeps one record, the link-dependent
state from before the last link event.  Trees are canonical, so when an
event leaves the same links down as that record, as the up of a flap does,
the record is that state exactly and comes back as it was.  An event that
flips no link keeps every table.  Each fabric after the first comes
from one helper, which carries the trace and the drop log over and starts
empty MAC tables: after every link event, every withdrawal and every
promotion that changes a port.  The bridges are wiring only, so each new
fabric keeps them, unless the port map or the standing wires changed.  The
fabric keeps no walked LSP, so no path outlives its table: a frame walks a
wire's LSP from the current next hops only when it is larger than the
topology's narrowest link (see dataplane).  Frame injection exercises only
the data plane.

There is no randomness anywhere, so two runs of the same scenario produce
byte-identical reports, RIB dumps, traces and graph exports.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Collection, Dict, FrozenSet, List, NamedTuple, Set, Tuple

from ixsim.dataplane import (
    DEFAULT_PROBATION_ROUNDS,
    BridgeState,
    DropReason,
    EthernetFrame,
    Fabric,
    build_bridges,
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
    rib_line,
    ribs_differ,
    rs_redistribute,
    transit_deliveries,
    upstream_announcements,
)
from ixsim.model import (
    LinkKind,
    LinkState,
    MemberAs,
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
    build_session_graph,
    derive_pseudowires,
    originate_adverts,
    propagate,
    pseudowire_mesh,
    wire_labels,
)


class UnknownEntityError(Exception):
    """An event referenced something the scenario does not contain."""


@dataclass
class _L3State:
    """Outcome of one full route-exchange sweep."""

    ribs: Dict[int, MemberRib] = field(default_factory=dict)


class _Underlay(NamedTuple):
    """The link-dependent state for one set of down links (indices into
    the topology): the trees, the next-hop table they give, and the wires
    that stand."""

    down: FrozenSet[int]
    trees: Dict[str, SpfTree]
    labels: LabelTable
    pseudowires: Tuple[Tuple[str, str], ...]
    missing_transport: Tuple[Tuple[str, str], ...]


class Simulation:
    """All state for one scenario run.  ``ports``, the read-only port map
    by ASN, is ``fabric.ports``; only a port-changing promotion replaces it."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.topo = scenario.topology
        self.members: Dict[int, MemberAs] = {m.asn: m for m in scenario.members}
        self.ports = MappingProxyType({p.member_asn: p for p in scenario.ports})

        self.current_round = 0
        self.rounds_total = 0
        self._trace_seq = 0

        self.trees: Dict[str, SpfTree] = compute_all_spf(self.topo)
        labels = allocate_labels(self.trees)
        self.ibgp_sessions: Set[Tuple[str, str]] = build_session_graph(self.topo)
        self.ve_ids = propagate(originate_adverts(self.topo.node_names()), self.ibgp_sessions)
        self.mesh = pseudowire_mesh(self.ve_ids)  # every pair; labels never change
        self.pseudowires, self.missing_transport = derive_pseudowires(self.mesh, labels)
        self.fabric = Fabric(self.topo, self.ports, self._bridges(), labels)
        self.l3 = _L3State()
        self._down = frozenset(i for i, link in enumerate(self.topo.links)
                               if link.state is LinkState.DOWN)
        self._before = self._underlay()  # what the last link event replaced

    # -- configuration views -------------------------------------------------

    def announced(self, asn: int) -> Tuple[ipaddress.IPv4Network, ...]:
        return self.members[asn].announced_prefixes

    def active_asns(self) -> Set[int]:
        """Members whose ports are active."""
        return {asn for asn, port in self.ports.items() if port.state is PortState.ACTIVE}

    def active_sessions(self) -> List[PeeringSession]:
        """Configured sessions whose two members have active ports."""
        active = self.active_asns()
        return [s for s in self.scenario.sessions if s.a in active and s.b in active]

    def active_servers(self) -> List[RouteServer]:
        """Route servers with quarantined clients filtered out."""
        active = self.active_asns()
        return [replace(server, client_sessions=tuple(
                    c for c in server.client_sessions if c in active))
                for server in self.scenario.route_servers]

    # -- convergence ---------------------------------------------------------

    def converge(self) -> int:
        """Exchange routes over the current ports and sessions.  The
        underlay, signalling and fabric stand from construction and from
        events, so a topology change must come as a link event.  Returns
        1 when the member RIBs changed and 0 when they did not."""
        sweep = self._exchange_routes()
        changed = int(ribs_differ(self.l3.ribs, sweep.ribs))
        self.l3 = sweep
        self.rounds_total += changed
        return changed

    def _underlay(self) -> _Underlay:
        """The link-dependent state the run holds now."""
        return _Underlay(self._down, self.trees, self.fabric.labels,
                         self.pseudowires, self.missing_transport)

    def _relink(self, flapped: Collection[int]) -> None:
        """Bring the link-dependent layers up to date after the ``flapped``
        links (indices into ``self.topo``) changed state.  When no link
        flipped, every table stands.  When the down links are again those
        of the state kept from before the last link event, that state comes
        back as it was; trees are canonical, so it is what a rerun would
        build.  Otherwise repair or rerun the trees the flip changes, take
        each new tree's first hops as its node's next hops, choose the
        standing wires from the mesh again if a reachable set changed, and
        keep the state from before this event.  The new fabric keeps the
        bridges when the standing wires are the same, and gets fresh ones
        when they are not."""
        if not flapped:
            self._refabric(self.fabric.bridges, self.fabric.labels)
            return
        now = self._underlay()
        down = self._down.symmetric_difference(flapped)
        if self._before.down == down:
            after = self._before
        else:
            fresh = rerun_stale_spf(self.topo, self.trees, flapped)
            labels = {**self.fabric.labels,
                      **{name: tree.first_hop for name, tree in fresh.items()}}
            wires, missing = self.pseudowires, self.missing_transport
            if any(tree.dist.keys() != self.trees[name].dist.keys()
                   for name, tree in fresh.items()):
                wires, missing = derive_pseudowires(self.mesh, labels)
            after = _Underlay(down, {**self.trees, **fresh}, labels, wires, missing)
        self._before = now
        self._down, self.trees = after.down, after.trees
        self.pseudowires, self.missing_transport = after.pseudowires, after.missing_transport
        rewired = after.pseudowires != now.pseudowires
        self._refabric(self._bridges() if rewired else self.fabric.bridges, after.labels)

    def _refabric(self, bridges: Dict[str, BridgeState], labels: LabelTable) -> None:
        """A new fabric over the port map, ``bridges`` and the next hops of
        ``labels``, with empty MAC tables; the trace and drop log go on."""
        self.fabric = Fabric(self.topo, self.ports, bridges, labels,
                             trace=self.fabric.trace, drops=self.fabric.drops)

    def _bridges(self) -> Dict[str, BridgeState]:
        """Bridges built from the port map and the standing wires."""
        return build_bridges(self.topo.node_names(), self.ports, self.pseudowires)

    def _exchange_routes(self) -> _L3State:
        """One synchronous sweep of every active session.  Each active
        route server collects its clients' routes into one table, which
        every client's RIB views; bilateral and transit routes are added
        to the receiving RIB.  A bilateral sender's route to a prefix is
        one object, shared by every RIB it is added to."""
        sessions = self.active_sessions()
        views = {asn: [] for asn in self.members}  # member -> server tables it views
        for server in self.active_servers():
            learned = "rs/%s" % server.host_pe
            table = rs_redistribute(server, (
                BgpRoute(pfx, (client,), self.ports[client].exchange_ip, learned)
                for client in sorted(server.client_sessions)
                for pfx in self.announced(client)))
            for asn in table.clients:
                views[asn].append(table)
        state = _L3State(ribs={asn: MemberRib(asn, tables) for asn, tables in views.items()})
        ribs = state.ribs

        sent: Dict[int, List[BgpRoute]] = {}  # bilateral sender -> its routes
        for s in sorted((x for x in sessions if x.kind is PeerKind.BILATERAL),
                        key=lambda x: (x.a, x.b)):
            for left, right in ((s.a, s.b), (s.b, s.a)):
                routes = sent.get(left)
                if routes is None:
                    ip, learned = self.ports[left].exchange_ip, "bgp/%d" % left
                    routes = sent[left] = [BgpRoute(pfx, (left,), ip, learned)
                                           for pfx in self.announced(left)]
                for route in routes:
                    ribs[right].add(route)

        active = self.active_asns()
        for asn in sorted(self.members):
            member = self.members[asn]
            if not member.is_transit or asn not in active:
                continue
            for to_asn, route in transit_deliveries(
                    member, self.ports[asn].exchange_ip, sessions,
                    self.scenario.external_prefixes):
                ribs[to_asn].add(route)
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
                self.ports = MappingProxyType({**self.ports, asn: promoted})
                self._refabric(self._bridges(), self.fabric.labels)
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
            self._refabric(self.fabric.bridges, self.fabric.labels)
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
            self.l3.ribs,
            self.scenario.external_prefixes,
            self.fabric,
            round_no=self.current_round,
        )

    def upstream(self) -> List[BgpRoute]:
        """What each active transit member re-announces toward its upstream,
        from the last sweep's RIBs; only the report reads it."""
        prefixes = [p for m in self.members.values() for p in m.announced_prefixes]
        active = self.active_asns()
        return [route for asn, rib in sorted(self.l3.ribs.items())
                if self.members[asn].is_transit and asn in active
                for route in upstream_announcements(self.members[asn], rib, prefixes)]

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
            upstream=tuple(self.upstream()),
        )

    def rib_dump(self) -> str:
        """One line per selected route, pipe-separated, in plain string
        order.  Members that view the same server tables share the best of
        those tables' last offers at each prefix, so that line is selected
        and formatted once per group of members; a member patches a copy
        of it only at its own candidates and the keys a server withholds
        from it.  Each distinct route is rendered once, keyed by id(), from
        its integer key and next hop (``rib_line``): the RIBs hold every
        route until this returns, and a bilateral or transit route is one
        object per sender and prefix.  Heads "<asn>|" are prefix-free, so
        members taken in head order, each with its lines sorted, emit the
        lines in final order; a group's texts are kept in text order, so
        each member's sort mostly confirms it; a member's lines are one join."""
        rendered: Dict[int, str] = {}

        def render(route: BgpRoute) -> str:
            text = rendered.get(id(route))
            if text is None:
                text = rendered[id(route)] = rib_line(route)
            return text

        groups: Dict[Tuple[int, ...], Dict[Tuple[int, int], str]] = {}
        chunks: List[str] = []  # one per member with routes
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
                        if key not in best or route.rank < best[key].rank:
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
            if texts:
                head = "%d|" % asn
                chunks.append(head + ("\n" + head).join(sorted(texts.values())))
        return "\n".join(chunks) + ("\n" if chunks else "")

    def trace_dump(self) -> str:
        return format_trace(self.fabric.trace)


@dataclass
class Report:
    """What ``ixsim run`` prints.  Every int field is a report key, printed
    as ``name=value``; the other fields print under their own prefixes."""

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
        lines = ["%s=%d" % (key, value) for key, value in vars(self).items()
                 if isinstance(value, int) and not isinstance(value, bool)]
        lines.append("upstream_announcement_count=%d" % len(self.upstream))
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
        for a, b in sorted(sim.pseudowires):
            lines.append("  \"%s\" -- \"%s\" [label=\"%d/%d\"];"
                         % ((a, b) + wire_labels(sim.ve_ids, a, b)))
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
