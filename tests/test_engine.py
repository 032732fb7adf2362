"""End-to-end engine behaviour: convergence, events, reports, exports."""

from __future__ import annotations

import dataclasses
import hashlib
import ipaddress
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ixsim.engine
from helpers import WHIX, converged, load_generator, load_whix, make_exchange, random_exchange
from ixsim.dataplane import BROADCAST_MAC, DropReason, EtherType, EthernetFrame, Fabric
from ixsim.engine import DOT_LAYERS, Simulation, UnknownEntityError, export_dot
from ixsim.exchange_l3 import PeerKind, PeeringSession
from ixsim.model import LinkState, PortState
from ixsim.scenario import Event, EventKind, parse_scenario
from ixsim.underlay import FIRST_FREE_LABEL, allocate_labels, compute_all_spf
from ixsim.vpls_signal import derive_pseudowires, wire_labels
from oracles import (
    reference_exchange_routes,
    reference_inject,
    reference_rib_dump,
    union_find_components,
)


def _net(text):
    return ipaddress.IPv4Network(text)


def rs_pair_exchange():
    """Three members, one route server, one bilateral pair on the side."""
    return make_exchange(
        [("a", "b", 1)],
        [(64496, "a"), (64497, "b"), (64498, "b")],
        reflectors={"a"},
        rs_nodes={"a"},
        all_on_rs=True,
        sessions=[PeeringSession(64496, 64497, PeerKind.BILATERAL)],
    )


def _assert_converge_is_final(sim):
    """A repeat convergence finds nothing to change."""
    ribs = sim.l3.ribs
    rounds = sim.rounds_total
    assert sim.converge() == 0
    assert sim.l3.ribs == ribs
    assert sim.rounds_total == rounds


def test_converge_reaches_a_fixpoint_and_stays_there():
    sim = converged(rs_pair_exchange())
    assert sim.rounds_total == 1
    _assert_converge_is_final(sim)

    for seed in range(20):
        rng = random.Random(seed)
        sim = random_exchange(rng, rng.randint(2, 8), route_server=True)
        assert sim.rounds_total == 1
        _assert_converge_is_final(sim)
        link = rng.choice(sim.topo.links)
        for at, kind in ((1, EventKind.LINK_DOWN), (2, EventKind.LINK_UP)):
            sim.apply_event(Event(at, kind, (link.a, link.b)))
            _assert_converge_is_final(sim)
        assert sim.rounds_total == 1  # routes never depend on links


def test_empty_scenario_converges_in_zero_rounds():
    sim = Simulation(make_exchange([], [], reflectors=()))
    assert sim.converge() == 0
    assert sim.rib_dump() == ""


def test_route_exchange_prefers_bilateral_over_reflected():
    sim = converged(rs_pair_exchange())
    rib_a = sim.l3.ribs[64496].chosen()
    # 64497 is reachable both ways; the direct session wins the tie
    assert rib_a[_net("10.177.2.0/24")].learned_from == "bgp/64497"
    assert rib_a[_net("10.177.3.0/24")].learned_from == "rs/a"
    assert rib_a[_net("10.177.2.0/24")].as_path == (64497,)
    rib_c = sim.l3.ribs[64498].chosen()
    assert set(rib_c) == {_net("10.177.1.0/24"), _net("10.177.2.0/24")}


def test_quarantined_member_stays_out_until_promoted():
    scn = make_exchange(
        [("a", "b", 1)],
        [(64496, "a"), (64497, "b"), (64498, "b", PortState.QUARANTINE)],
        reflectors={"a"},
        rs_nodes={"a"},
        all_on_rs=True,
    )
    sim = converged(scn)
    assert _net("10.177.3.0/24") not in sim.l3.ribs[64496].chosen()
    assert sim.l3.ribs[64498].chosen() == {}
    (server,) = sim.active_servers()
    assert server.client_sessions == (64496, 64497)
    assert sim.report().rs_session_count == 2

    sim.apply_event(Event(12, EventKind.PORT_PROMOTE_CHECK, (64498,)))
    assert sim.ports[64498].state is PortState.ACTIVE
    assert _net("10.177.3.0/24") in sim.l3.ribs[64496].chosen()
    assert sim.report().rs_session_count == 3


def test_probation_watches_violations_not_quarantine_drops():
    scn = make_exchange(
        [("a", "b", 1)],
        [(64496, "a"), (64497, "b", PortState.QUARANTINE)],
        reflectors={"a"},
        rs_nodes={"a"},
        all_on_rs=True,
    )
    sim = converged(scn)
    sim.apply_event(Event(3, EventKind.INJECT_FRAME,
                          (64497, BROADCAST_MAC, EtherType.IPV4, 64)))
    drops = [d for d in sim.fabric.drops if d.port_asn == 64497]
    assert [d.reason for d in drops] == [DropReason.FORBIDDEN_TRAFFIC]

    sim.apply_event(Event(8, EventKind.PORT_PROMOTE_CHECK, (64497,)))
    assert sim.ports[64497].state is PortState.QUARANTINE  # violation in window

    sim.apply_event(Event(14, EventKind.PORT_PROMOTE_CHECK, (64497,)))
    assert sim.ports[64497].state is PortState.ACTIVE  # round 3 aged out

    # compliant traffic dropped as QUARANTINED would not have blocked it:
    # the reason sits outside the blocking set by design
    assert DropReason.QUARANTINED not in {d.reason for d in drops}


def test_link_events_flip_every_parallel_link():
    scn = make_exchange(
        [("a", "b", 1), ("a", "b", 3)],
        [(64496, "a"), (64497, "b")],
        reflectors={"a"},
        rs_nodes={"a"},
        all_on_rs=True,
    )
    sim = converged(scn)
    assert len(sim.pseudowires) == 1
    sim.apply_event(Event(1, EventKind.LINK_DOWN, ("a", "b")))
    assert all(l.state is LinkState.DOWN for l in sim.topo.links)
    assert sim.pseudowires == ()
    assert sim.missing_transport == (("a", "b"),)
    sim.apply_event(Event(2, EventKind.LINK_UP, ("b", "a")))
    assert all(l.state is LinkState.UP for l in sim.topo.links)
    assert len(sim.pseudowires) == 1
    with pytest.raises(UnknownEntityError):
        sim.apply_event(Event(3, EventKind.LINK_DOWN, ("a", "nessie")))


def test_flap_moves_frames_onto_the_new_path():
    """A frame larger than the narrowest link walks each wire's transport
    from the current next hops, so no path outlives a link event."""
    scn = make_exchange(
        [("a", "c", 1), ("a", "b", 1), ("b", "c", 1, 50)],
        [(64496, "a"), (64497, "c")],
        reflectors={"a"},
    )
    sim = converged(scn)
    narrow = sim.topo.links[sim.topo.links_between("b", "c")[0]]
    dst_mac = sim.ports[64497].nominated_mac

    def send(at):
        sim.apply_event(Event(at, EventKind.INJECT_FRAME,
                              (64496, dst_mac, EtherType.IPV4, 100)))
        return sim.fabric.trace[-1], [d for d in sim.fabric.drops if d.round_no == at]

    # a -> c rides the direct link; the flood to b stays off the narrow one
    last, drops = send(1)
    assert drops == [] and (last.pe, last.action) == ("c", "deliver")

    sim.apply_event(Event(2, EventKind.LINK_DOWN, ("a", "c")))
    last, drops = send(3)
    assert [(d.reason, d.offending_link) for d in drops] == [
        (DropReason.MTU_EXCEEDED, narrow)]
    assert (last.pe, last.via, last.action) == ("a", "pw/c", "drop:MTU_EXCEEDED")

    sim.apply_event(Event(4, EventKind.LINK_UP, ("a", "c")))
    last, drops = send(5)
    assert drops == [] and (last.pe, last.action) == ("c", "deliver")


def test_withdraw_and_announce_adjust_the_tables():
    # The scenario grammar withdraws prefixes at run time; it cannot announce.
    sim = converged(make_exchange(
        [("a", "b", 1)],
        [(64496, "a"), (64497, "b")],
        reflectors={"a"},
        rs_nodes={"a"},
        all_on_rs=True,
    ))
    assert _net("10.177.1.0/24") in sim.l3.ribs[64497].chosen()
    sim.apply_event(Event(1, EventKind.MEMBER_WITHDRAW, (64496, _net("10.177.1.0/24"))))
    assert sim.l3.ribs[64497].chosen() == {}
    with pytest.raises(UnknownEntityError):
        sim.apply_event(Event(2, EventKind.MEMBER_WITHDRAW,
                              (64496, _net("10.177.1.0/24"))))


def test_inject_events_number_their_traces():
    sim = converged(rs_pair_exchange())
    rounds_before = sim.rounds_total
    sim.apply_event(Event(1, EventKind.INJECT_FRAME,
                          (64496, BROADCAST_MAC, EtherType.ARP, 64)))
    sim.apply_event(Event(2, EventKind.INJECT_FRAME,
                          (64497, BROADCAST_MAC, EtherType.ARP, 64)))
    ids = [r.trace_id for r in sim.fabric.trace]
    assert set(ids) == {"t1", "t2"}
    assert sim.rounds_total == rounds_before  # data plane only
    with pytest.raises(UnknownEntityError):
        sim.apply_event(Event(3, EventKind.INJECT_FRAME,
                              (60000, BROADCAST_MAC, EtherType.ARP, 64)))


@pytest.fixture(scope="module")
def whix_run():
    sim = Simulation(load_whix())
    sim.run()
    return sim, sim.report()


def test_bundled_scenario_headline_numbers(whix_run):
    _, report = whix_run
    assert report.node_count == 8
    assert report.member_count == 11
    assert report.pseudowire_count == 28
    assert report.missing_transport_count == 0
    assert report.ibgp_session_count == 13
    assert report.rs_session_count == 22
    assert report.rs_server_count == 2
    assert report.bilateral_session_count == 3
    assert report.transit_session_count == 9
    assert report.bilateral_equivalent == 55
    assert report.external_prefix_count == 3
    assert report.convergence_rounds == 1
    assert report.frame_trace_rows == 75
    assert all(count == 0 for count in report.drops.values())
    assert len(report.upstream) == 10


def test_bundled_scenario_reachability(whix_run):
    _, report = whix_run
    cells = report.reachability
    assert len(cells) == 11 * 13  # 10 foreign member prefixes + 3 externals each
    external = {"198.51.100.0/24", "203.0.113.0/24", "192.88.99.0/24"}
    for (asn, prefix), ok in cells.items():
        if prefix in external:
            # 64505 has no transit session; 64511 is the upstream itself
            assert ok == (asn not in (64505, 64511))
        else:
            assert ok


def test_reachability_floods_once_per_source_and_probes_each_pair_once(monkeypatch):
    sim = Simulation(load_whix())
    sim.run()
    floods, unicast = [], []
    inject = Fabric.inject

    def recorded(fabric, asn, frame, round_no=0):
        if frame.dst_mac == BROADCAST_MAC:
            floods.append(asn)
        else:
            unicast.append((asn, frame.dst_mac, frame.ethertype))
        return inject(fabric, asn, frame, round_no)

    monkeypatch.setattr(Fabric, "inject", recorded)
    sim.reachability()
    targets = [(pfx, m.asn) for m in sim.members.values()
               for pfx in m.announced_prefixes]
    targets += [(pfx, 0) for pfx in sim.scenario.external_prefixes]
    sources = [asn for asn, port in sorted(sim.ports.items())
               if port.state is PortState.ACTIVE
               and any(sim.l3.ribs[asn].covering(pfx) is not None
                       for pfx, owner in targets if owner != asn)]
    assert floods == sources
    # Each (requester, owner) pair gets one ARP reply and one data probe,
    # however many prefixes share the owner as next hop.
    assert unicast and len(unicast) == len(set(unicast))


def test_report_probes_on_a_clone_that_keeps_drops_but_no_trace_rows(monkeypatch):
    """``report()`` leaves the real fabric's trace, drops and MAC tables as
    they were; its probe clone counts the drops probes meet but appends no
    trace row."""
    scn = make_exchange(
        [("a", "b", 1), ("b", "c", 1, 50)],
        [(64496, "a"), (64497, "b"), (64498, "c"), (64499, "a", PortState.QUARANTINE)],
        reflectors={"a"},
        rs_nodes={"a"},
        all_on_rs=True,
    )
    sim = converged(scn)
    for at, asn in enumerate((64496, 64497, 64498, 64499), start=1):
        sim.apply_event(Event(at, EventKind.INJECT_FRAME,
                              (asn, BROADCAST_MAC, EtherType.ARP, 28)))
    fabric = sim.fabric
    trace, drops = list(fabric.trace), list(fabric.drops)
    tables = {pe: dict(table) for pe, table in fabric.macs.items()}
    assert trace and drops and any(tables.values())

    clones = []
    clone = Fabric.clone

    def recorded(real):
        clones.append(clone(real))
        return clones[-1]

    monkeypatch.setattr(Fabric, "clone", recorded)
    report = sim.report()
    (probe,) = clones
    assert probe.trace == []
    narrow = sim.topo.links[sim.topo.links_between("b", "c")[0]]
    assert probe.drops and {(d.reason, d.offending_link) for d in probe.drops} == {
        (DropReason.MTU_EXCEEDED, narrow)}
    assert not report.reachability[(64496, "10.177.3.0/24")]  # 64498 is behind the narrow link
    assert report.frame_trace_rows == len(trace)
    assert sim.fabric is fabric
    assert fabric.trace == trace and fabric.drops == drops
    assert fabric.macs == tables


def test_report_text_is_sorted_and_complete(whix_run):
    _, report = whix_run
    text = report.to_text()
    lines = text.splitlines()
    assert lines == sorted(lines)
    assert "pseudowire_count=28" in lines
    assert "drop.QUARANTINED=0" in lines
    assert "drop.MAC_MISMATCH=0" in lines
    assert "drop.FORBIDDEN_TRAFFIC=0" in lines
    assert "drop.MTU_EXCEEDED=0" in lines
    assert "reach.64505.198.51.100.0/24=0" in lines
    assert "reach.64504.198.51.100.0/24=1" in lines
    assert "upstream.10.96.1.0/24=64511 64496" in lines
    assert sum(1 for l in lines if l.startswith("reach.")) == 143
    assert sum(1 for l in lines if l.startswith("upstream.")) == 10
    assert text.endswith("\n")


def test_rib_dump_lines(whix_run):
    sim, _ = whix_run
    dump = sim.rib_dump()
    assert dump == reference_rib_dump(sim.l3.ribs)
    lines = dump.splitlines()
    assert lines == sorted(lines)
    # direct feed beats the reflected copies of the same announcement
    assert "64496|10.96.5.0/24|64500|192.0.2.15|bgp/64500" in lines
    # with only reflected copies the mallaig server wins on its name
    assert "64497|10.96.5.0/24|64500|192.0.2.15|rs/mallaig" in lines
    assert "64496|0.0.0.0/0|64511|192.0.2.21|bgp/64511" in lines
    # full-table taker sees synthetic origins behind the transit ASN
    assert "64504|198.51.100.0/24|64511 65551|192.0.2.21|bgp/64511" in lines


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), route_server=st.booleans(),
       externals=st.integers(0, 3), bilateral=st.integers(0, 6),
       quarantined=st.integers(0, 2))
def test_rib_dump_matches_the_reference(seed, route_server, externals,
                                        bilateral, quarantined):
    rng = random.Random(seed)
    sim = random_exchange(rng, rng.randint(2, 7), route_server=route_server,
                          externals=externals, bilateral=bilateral,
                          quarantined=quarantined)
    assert sim.rib_dump() == reference_rib_dump(sim.l3.ribs)
    announcing = [m for m in sim.members.values() if m.announced_prefixes]
    if announcing:
        member = rng.choice(announcing)
        sim.apply_event(Event(1, EventKind.MEMBER_WITHDRAW,
                              (member.asn, member.announced_prefixes[0])))
        assert sim.rib_dump() == reference_rib_dump(sim.l3.ribs)


def _assert_matches_the_copying_exchange(sim, ribs, upstream, rng):
    """Every view of ``sim``'s route plane equals the flat RIBs
    ``ribs`` and ``upstream`` of ``reference_exchange_routes``."""
    assert sim.l3.ribs.keys() == ribs.keys()
    targets = [ipaddress.IPv4Address(rng.getrandbits(32)) for _ in range(5)]
    for pfx in [p for m in sim.members.values() for p in m.announced_prefixes] \
            + list(sim.scenario.external_prefixes):
        targets += [pfx, pfx.supernet(rng.randint(1, 8)),
                    pfx.network_address + rng.randrange(pfx.num_addresses)]
    for asn, rib in sim.l3.ribs.items():
        flat = ribs[asn]
        assert rib.candidates == flat.candidates
        assert rib == flat and flat == rib
        assert rib.chosen() == flat.chosen()
        for target in targets:
            assert rib.covering(target) == flat.covering(target)
    assert sim.upstream() == upstream
    assert sim.rib_dump() == reference_rib_dump(ribs) == reference_rib_dump(sim.l3.ribs)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), split_clients=st.booleans(),
       externals=st.integers(0, 3), bilateral=st.integers(0, 6),
       quarantined=st.integers(0, 3))
def test_server_tables_match_per_member_copies(seed, split_clients, externals,
                                               bilateral, quarantined):
    rng = random.Random(seed)
    sim = random_exchange(rng, rng.randint(2, 7), route_server=True,
                          externals=externals, bilateral=bilateral,
                          quarantined=quarantined, split_clients=split_clients)
    ribs, upstream = reference_exchange_routes(sim)
    assert sim.rounds_total == int(ribs != {})  # the first converge()
    _assert_matches_the_copying_exchange(sim, ribs, upstream, rng)
    for at in range(1, rng.randint(2, 7)):
        if rng.random() < 0.5:
            event = Event(at, EventKind.PORT_PROMOTE_CHECK, (rng.choice(sorted(sim.ports)),))
        else:
            announcing = [m for m in sim.members.values() if m.announced_prefixes]
            if not announcing:
                continue
            member = rng.choice(announcing)
            event = Event(at, EventKind.MEMBER_WITHDRAW,
                          (member.asn, rng.choice(member.announced_prefixes)))
        rounds, before = sim.rounds_total, ribs
        sim.apply_event(event)
        ribs, upstream = reference_exchange_routes(sim)
        assert sim.rounds_total - rounds == int(ribs != before)
        _assert_matches_the_copying_exchange(sim, ribs, upstream, rng)


def test_withdraw_at_a_single_client_server_changes_nothing():
    """The lone active client never sees its own route, so withdrawing it
    moves the server's table but no member's RIB; nor does promoting a
    client that announces nothing into the then empty table."""
    sim = converged(make_exchange(
        [("a", "b", 1)], [(64496, "a"), (64497, "b", PortState.QUARANTINE)],
        reflectors={"a"}, rs_nodes={"a"}, all_on_rs=True))
    assert sim.rounds_total == 1
    (table,) = sim.l3.ribs[64496].views
    assert len(table) == 1 and sim.l3.ribs[64496].candidates == {}
    assert sim.l3.ribs[64497].views == ()
    events = [Event(1, EventKind.MEMBER_WITHDRAW, (64497, _net("10.177.2.0/24"))),
              Event(2, EventKind.MEMBER_WITHDRAW, (64496, _net("10.177.1.0/24"))),
              Event(12, EventKind.PORT_PROMOTE_CHECK, (64497,))]
    for event in events:
        sim.apply_event(event)
        assert sim.rounds_total == 1
        assert sim.l3.ribs == reference_exchange_routes(sim)[0]
    assert len(sim.l3.ribs[64496].views[0]) == 0
    assert sim.ports[64497].state is PortState.ACTIVE
    assert sim.l3.ribs[64497].views[0].clients == {64496, 64497}
    assert sim.converge() == 0


def test_rib_dump_selects_across_servers_and_clients_offering_one_prefix():
    """Two servers with different clients, and prefixes offered by two
    clients each: the group viewing both tables takes the second table's
    lower next hop, and a server offers each client the last offer that
    passes its filter."""
    one, two = _net("10.200.0.0/24"), _net("10.201.0.0/24")
    scenario = make_exchange([("a", "b", 1)],
                             [(64496, "a"), (64497, "a"), (64498, "b"), (64499, "b")],
                             reflectors={"a"}, rs_nodes={"a", "b"}, all_on_rs=True)
    clients = {"a": (64497, 64498, 64499), "b": (64496, 64498)}
    announced = {64496: (one,), 64497: (one,), 64498: (two,), 64499: (two,)}
    scenario = dataclasses.replace(
        scenario,
        members=tuple(dataclasses.replace(m, announced_prefixes=announced[m.asn])
                      for m in scenario.members),
        route_servers=tuple(dataclasses.replace(s, client_sessions=clients[s.host_pe])
                            for s in scenario.route_servers))
    sim = converged(scenario)
    ribs, _ = reference_exchange_routes(sim)
    assert sim.l3.ribs == ribs
    assert sim.rib_dump() == reference_rib_dump(ribs)
    assert sim.rib_dump().splitlines() == [
        "64496|10.201.0.0/24|64498|192.0.2.13|rs/b",
        "64497|10.201.0.0/24|64499|192.0.2.14|rs/a",
        "64498|10.200.0.0/24|64496|192.0.2.11|rs/b",
        "64498|10.201.0.0/24|64499|192.0.2.14|rs/a",
        "64499|10.200.0.0/24|64497|192.0.2.12|rs/a",
        "64499|10.201.0.0/24|64498|192.0.2.13|rs/a",
    ]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_link_events_keep_the_route_exchange(seed):
    rng = random.Random(seed)
    sim = random_exchange(rng, rng.randint(2, 8), route_server=True, externals=2)
    rounds, l3 = sim.rounds_total, sim.l3
    for at in range(1, rng.randint(2, 8)):
        link = rng.choice(sim.topo.links)
        kind = rng.choice([EventKind.LINK_DOWN, EventKind.LINK_UP])
        sim.apply_event(Event(at, kind, (link.a, link.b)))
        assert sim.l3 is l3  # kept, not recomputed
        assert sim.l3.ribs == sim._exchange_routes().ribs
        fresh = converged(dataclasses.replace(sim.scenario, topology=sim.topo))
        assert sim.pseudowires == fresh.pseudowires
        assert sim.missing_transport == fresh.missing_transport
    assert sim.rounds_total == rounds


def _fresh(sim):
    """A new Simulation converged on ``sim``'s current topology and ports."""
    return converged(dataclasses.replace(
        sim.scenario, topology=sim.topo, ports=tuple(sim.ports.values())))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), route_server=st.booleans())
def test_flaps_match_a_fresh_convergence(seed, route_server):
    """Random link events on sparse random topologies, so partitions and
    heals are common: after each one the incrementally kept state equals a
    from-scratch convergence on the same topology, the next-hop table is
    the trees' own first-hop maps, shared and not copied, and every label
    block starts above the range one transport label per loopback would
    take."""
    rng = random.Random(seed)
    sim = random_exchange(rng, rng.randint(2, 10), route_server=route_server)
    for at in range(1, 13):
        link = rng.choice(sim.topo.links)
        kind = rng.choice([EventKind.LINK_DOWN, EventKind.LINK_UP])
        sim.apply_event(Event(at, kind, (link.a, link.b)))
        fresh = _fresh(sim)
        assert sim.fabric.labels == fresh.fabric.labels
        assert sim.trees == compute_all_spf(sim.topo)
        assert sim.pseudowires == fresh.pseudowires
        assert sim.missing_transport == fresh.missing_transport
        assert sim.ibgp_sessions == fresh.ibgp_sessions
        for layer in DOT_LAYERS:
            assert export_dot(sim, layer) == export_dot(fresh, layer)
        assert sim.fabric.labels == {n: t.first_hop for n, t in sim.trees.items()}
        assert all(sim.fabric.labels[n] is t.first_hop for n, t in sim.trees.items())
        for a, b in sim.pseudowires:
            assert min(wire_labels(sim.ve_ids, a, b)) >= FIRST_FREE_LABEL + len(sim.topo.nodes)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_bridge_wires_are_the_rest_of_each_component(seed):
    """Random link events on sparse random topologies: after each one,
    every bridge's wires are the other PEs of its underlay component as
    union-find groups them, in name order, and the one next-hop check per
    pair in ``derive_pseudowires`` splits the mesh as checking both
    directions does."""
    rng = random.Random(seed)
    sim = random_exchange(rng, rng.randint(2, 10))
    for at in range(1, 13):
        link = rng.choice(sim.topo.links)
        kind = rng.choice([EventKind.LINK_DOWN, EventKind.LINK_UP])
        sim.apply_event(Event(at, kind, (link.a, link.b)))
        for component in union_find_components(sim.topo):
            for pe in component:
                assert sim.fabric.bridges[pe].wires == tuple(n for n in component if n != pe)
        table = sim.fabric.labels
        both_ways = [(a, b) for a, b in sim.mesh if b in table[a] and a in table[b]]
        assert derive_pseudowires(sim.mesh, table) == (
            tuple(both_ways), tuple(pair for pair in sim.mesh if pair not in both_ways))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_restored_and_repaired_underlays_match_a_rerun(seed):
    """Random link events over few links with mixed MTUs, so that link
    states recur, flaps overlap, some events flip nothing and partitions
    happen: after every event the trees and the standing wires are what a
    rerun from scratch gives, no bridge holds a learned MAC, and a
    1580-byte broadcast from each port crosses and drops as the reference
    walk over the same next hops says.
    Between events each port floods once, so the bridges have learned
    MACs for the next event to reset."""
    rng = random.Random(seed)
    sim = random_exchange(rng, rng.randint(2, 5))
    links = tuple(dataclasses.replace(link, mtu=rng.choice([1580, 1600, 1700, 9000]))
                  for link in sim.topo.links)
    sim = converged(dataclasses.replace(
        sim.scenario, topology=dataclasses.replace(sim.topo, links=links)))
    pairs = sorted({link.endpoints for link in sim.topo.links})
    tid = 0
    for at in range(1, 20):
        kind = rng.choice([EventKind.LINK_DOWN, EventKind.LINK_UP])
        sim.apply_event(Event(at, kind, rng.choice(pairs)))
        trees = compute_all_spf(sim.topo)
        assert sim.trees.keys() == trees.keys()
        for name, tree in trees.items():
            kept = sim.trees[name]
            assert (kept.dist, kept.parent, kept.first_hop) == \
                (tree.dist, tree.parent, tree.first_hop)
        table = allocate_labels(trees)
        assert sim.fabric.labels == table
        assert (sim.pseudowires, sim.missing_transport) == derive_pseudowires(sim.mesh, table)
        assert not any(sim.fabric.macs.values())
        fabric, reference = sim.fabric.clone(), sim.fabric.clone()
        for asn, port in sorted(sim.ports.items()):
            frame = EthernetFrame(port.nominated_mac, BROADCAST_MAC, EtherType.ARP, 1580,
                                  "big%d" % asn)
            assert fabric.inject(asn, frame, at) == reference_inject(reference, asn, frame, at)
            assert fabric.drops == reference.drops  # offending links included
        for asn, port in sorted(sim.ports.items()):
            tid += 1
            frame = EthernetFrame(port.nominated_mac, BROADCAST_MAC, EtherType.ARP, 64,
                                  "t%d" % tid)
            sim.fabric.inject(asn, frame, at)


# SHA-256 of the trace of whix plus the events below, recorded before link
# events reconverged incrementally, when every link event rebuilt the
# whole underlay.
NO_OP_TRACE_DIGEST = "59462b7594e17805f79dc4b27ac2e79534287fcd865b741a672922177a755a9a"


def test_no_op_link_events_keep_the_tables_and_reset_the_fabric():
    scn = load_whix()
    unicast = (64497, "02:00:00:00:00:01", EtherType.IPV4, 1400)
    extra = (
        Event(4, EventKind.LINK_DOWN, ("mallaig", "datacentre")),
        Event(5, EventKind.INJECT_FRAME, unicast),
        Event(6, EventKind.LINK_DOWN, ("mallaig", "datacentre")),  # already down
        Event(7, EventKind.INJECT_FRAME, unicast),
        Event(8, EventKind.LINK_UP, ("smo", "mallaig")),  # already up
        Event(9, EventKind.INJECT_FRAME, (64500, "02:00:00:00:00:07", EtherType.IPV4, 1200)),
        Event(10, EventKind.LINK_UP, ("datacentre", "mallaig")),
        Event(11, EventKind.INJECT_FRAME, (64496, BROADCAST_MAC, EtherType.ARP, 64)),
    )
    sim = Simulation(dataclasses.replace(scn, events=scn.events + extra))
    sim.converge()
    for event in sim.scenario.events:
        fabric, wires = sim.fabric, (sim.pseudowires, sim.missing_transport)
        topo = sim.topo
        sim.apply_event(event)
        if event.at_round not in (6, 8):
            continue
        assert sim.topo == topo
        assert any(fabric.macs.values())
        assert sim.fabric is not fabric
        assert sim.fabric.labels is fabric.labels
        assert (sim.pseudowires, sim.missing_transport) == wires
        assert not any(sim.fabric.macs.values())
    digest = hashlib.sha256(sim.trace_dump().encode("utf-8")).hexdigest()
    assert digest == NO_OP_TRACE_DIGEST


BUILT_ONCE = ("compute_all_spf", "allocate_labels", "build_session_graph",
              "originate_adverts", "propagate", "derive_pseudowires")


def _count_calls(monkeypatch, names=BUILT_ONCE):
    """Count the engine's calls of each of ``names``."""
    calls = Counter()
    for name in names:
        def counted(*args, _fn=getattr(ixsim.engine, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(ixsim.engine, name, counted)
    return calls


def test_labels_and_signalling_are_built_once(monkeypatch):
    """On a benchmark-shaped run, one leaf flap among core flaps, SPF,
    labels and signalling run once for the whole run, and the pseudo-wire
    mesh is derived again only when a link event splits the underlay: the
    heal right after it brings back the very wires and trees from before
    the split."""
    calls = _count_calls(monkeypatch)
    scenario = parse_scenario(load_generator().generate("link_churn", 1))
    sim = Simulation(scenario)
    sim.converge()
    assert calls == Counter(dict.fromkeys(BUILT_ONCE, 1))
    splits = heals = 0
    for event in scenario.events:
        parts = len(union_find_components(sim.topo))
        before = sim.pseudowires, sim.trees
        sim.apply_event(event)
        now = len(union_find_components(sim.topo))
        if now > parts:
            splits += 1
            unsplit = before
        elif now < parts:
            heals += 1
            assert sim.pseudowires is unsplit[0]
            assert sim.trees is unsplit[1]
        assert calls["derive_pseudowires"] == 1 + splits
    assert (splits, heals) == (1, 1)  # the leaf link's down and up
    assert all(calls[name] == 1 for name in BUILT_ONCE if name != "derive_pseudowires")


@pytest.mark.parametrize("seed", range(1, 6))
def test_restoring_link_events_repair_nothing(monkeypatch, seed):
    """Every link-up on the benchmark-shaped run restores the underlay from
    before its link-down, so it calls neither ``rerun_stale_spf`` nor
    ``derive_pseudowires``; only the downs repair.  The restored state is
    the one held before the down, and every bridge forgets what it
    learned."""
    calls = _count_calls(monkeypatch, ("rerun_stale_spf", "derive_pseudowires"))
    scenario = parse_scenario(load_generator().generate("link_churn", seed))
    sim = Simulation(scenario)
    sim.converge()
    downs = 0
    for event in scenario.events:
        held = sim._underlay()
        made = Counter(calls)
        sim.apply_event(event)
        if event.kind is EventKind.LINK_DOWN:
            downs += 1
            assert calls["rerun_stale_spf"] == made["rerun_stale_spf"] + 1
            unflapped = held
        elif event.kind is EventKind.LINK_UP:
            assert calls == made
            assert all(now is then for now, then in zip(sim._underlay(), unflapped))
            assert not any(sim.fabric.macs.values())
    assert downs == 5 and calls["rerun_stale_spf"] == downs


def test_an_up_that_restores_nothing_reruns_the_trees_it_changes(monkeypatch):
    """Whix cut at mallaig-datacentre, then at smo-kyle, then healed at
    mallaig-datacentre.  The heal leaves smo-kyle down, not the links the
    kept record has down, so it cannot restore: it reruns every tree it
    changes, which is all of them, since datacentre rejoins.  The run ends
    where a run cut at smo-kyle alone ends."""
    ups = []

    def spied(topo, trees, flapped, _rerun=ixsim.engine.rerun_stale_spf):
        fresh = _rerun(topo, trees, flapped)
        if all(topo.links[i].state is LinkState.UP for i in flapped):
            ups.append(fresh)
        return fresh

    monkeypatch.setattr(ixsim.engine, "rerun_stale_spf", spied)
    text = WHIX.read_text(encoding="utf-8")
    sim = Simulation(parse_scenario(text + "event 50 link-down mallaig datacentre\n"
                                    "event 51 link-down smo kyle\n"
                                    "event 52 link-up mallaig datacentre\n"))
    sim.run()
    assert len(ups) == 1 and sorted(ups[0]) == sim.topo.node_names()
    assert sim.trees == compute_all_spf(sim.topo)
    alone = Simulation(parse_scenario(text + "event 51 link-down smo kyle\n"))
    alone.run()
    assert sim.trees == alone.trees and sim.pseudowires == alone.pseudowires
    assert sim.report().to_text() == alone.report().to_text()
    assert export_dot(sim, "vpls") == export_dot(alone, "vpls")


# SHA-256 of the trace ``run --trace`` writes for whix with applecross
# quarantined plus the events below, recorded when every converge()
# recomputed SPF, labels and signalling.
PROMOTE_WITHDRAW_TRACE_DIGEST = "4cb0a47ad9cde96827b79a31cf2b51f660435ba9affb7914ec31b86df3d614e3"


def test_promotion_and_withdrawal_rebuild_only_the_fabric(monkeypatch):
    calls = _count_calls(monkeypatch)
    applecross = "member 64505 applecross       port kyle       mac 02:00:00:00:00:0a ip 192.0.2.20"
    text = WHIX.read_text(encoding="utf-8")
    assert applecross in text
    text = text.replace(applecross, applecross + " quarantine") + (
        "event 4 inject 64498 broadcast arp 64\n"
        "event 5 promote 64505\n"
        "event 6 inject 64505 broadcast arp 64\n"
        "event 7 withdraw 64500 10.96.5.0/24\n"
        "event 8 inject 64497 02:00:00:00:00:01 ipv4 1400\n")
    sim = Simulation(parse_scenario(text))
    sim.converge()
    built = Counter(calls)
    for event in sim.scenario.events:
        fabric = sim.fabric
        sim.apply_event(event)
        if event.kind in (EventKind.PORT_PROMOTE_CHECK, EventKind.MEMBER_WITHDRAW):
            assert sim.fabric is not fabric
            assert any(fabric.macs.values())
            assert not any(sim.fabric.macs.values())
    assert calls == built
    assert sim.ports[64505].state is PortState.ACTIVE
    assert sim.rounds_total == 3  # the first sweep, the promotion and the withdrawal
    sim.report()
    digest = hashlib.sha256(sim.trace_dump().encode("utf-8")).hexdigest()
    assert digest == PROMOTE_WITHDRAW_TRACE_DIGEST


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_bridges_are_rebuilt_only_when_a_port_or_a_standing_wire_changes(seed):
    """Random link, promote, withdraw and inject events on exchanges with
    route servers, bilateral sessions and quarantined ports.  After every
    event but an inject, the fabric keeps the bridges it had exactly when
    no port and no standing wire changed; each bridge holds the ports at
    its PE and wires to the rest of its underlay component; no bridge has
    a learned MAC; and the trace and drop log are the lists the run had.
    A promotion that changes no port leaves the fabric as it was.
    Broadcast IPv4 frames are forbidden traffic, which blocks some
    promotions."""
    rng = random.Random(seed)
    sim = random_exchange(rng, rng.randint(2, 7), route_server=True,
                          bilateral=rng.randint(0, 3), quarantined=rng.randint(0, 3))
    asns = sorted(sim.ports)
    for at in range(1, 25):
        kind = rng.choice(list(EventKind))
        if kind in (EventKind.LINK_DOWN, EventKind.LINK_UP):
            args = rng.choice(sim.topo.links).endpoints
        elif kind is EventKind.PORT_PROMOTE_CHECK:
            args = (rng.choice(asns),)
        elif kind is EventKind.MEMBER_WITHDRAW:
            announcing = [m for m in sim.members.values() if m.announced_prefixes]
            if not announcing:
                continue
            member = rng.choice(announcing)
            args = (member.asn, rng.choice(member.announced_prefixes))
        else:
            dst = rng.choice([BROADCAST_MAC] + [sim.ports[asn].nominated_mac for asn in asns])
            args = (rng.choice(asns), dst, rng.choice([EtherType.ARP, EtherType.IPV4]), 64)
        fabric, ports, wires = sim.fabric, dict(sim.ports), sim.pseudowires
        sim.apply_event(Event(at, kind, args))
        if kind is EventKind.INJECT_FRAME:
            continue
        if kind is EventKind.PORT_PROMOTE_CHECK and sim.ports == ports:
            assert sim.fabric is fabric  # nothing changed, nothing is reset
            continue
        kept = sim.ports == ports and sim.pseudowires == wires
        assert (sim.fabric.bridges is fabric.bridges) == kept
        for component in union_find_components(sim.topo):
            for pe in component:
                bridge = sim.fabric.bridges[pe]
                assert bridge.ports == {asn: port for asn, port in sim.ports.items()
                                        if port.attach_pe == pe}
                assert bridge.wires == tuple(n for n in component if n != pe)
        assert not any(sim.fabric.macs.values())
        assert sim.fabric.trace is fabric.trace and sim.fabric.drops is fabric.drops


def test_repeat_runs_are_byte_identical():
    first = Simulation(load_whix())
    second = Simulation(load_whix())
    first.run()
    second.run()
    assert first.report().to_text() == second.report().to_text()
    assert first.rib_dump() == second.rib_dump()
    assert first.trace_dump() == second.trace_dump()
    for layer in ("physical", "vpls", "peering"):
        assert export_dot(first, layer) == export_dot(second, layer)


def test_cutting_the_leased_circuit_shrinks_the_mesh():
    scn = dataclasses.replace(load_whix(), events=())
    sim = converged(scn)
    baseline = sim.reachability()
    sim.apply_event(Event(1, EventKind.LINK_DOWN, ("mallaig", "datacentre")))
    assert len(sim.pseudowires) == 21
    assert len(sim.missing_transport) == 7
    assert all("datacentre" in pair for pair in sim.missing_transport)
    after = sim.reachability()
    external = {"198.51.100.0/24", "203.0.113.0/24", "192.88.99.0/24"}
    for (asn, prefix), ok in after.items():
        if asn == 64511 or prefix == "10.96.11.0/24" or prefix in external:
            assert not ok  # everything behind the cut is dark
        else:
            assert ok == baseline[(asn, prefix)]
    sim.apply_event(Event(2, EventKind.LINK_UP, ("mallaig", "datacentre")))
    assert sim.reachability() == baseline


def test_export_dot_layers(whix_run):
    sim, _ = whix_run
    physical = export_dot(sim, "physical")
    assert '"mallaig" [xlabel="rr,rs"];' in physical
    assert '"datacentre" -- "mallaig" [label="1", style=solid];' in physical
    vpls = export_dot(sim, "vpls")
    assert vpls.count(" -- ") == 28
    peering = export_dot(sim, "peering")
    assert peering.count("style=dashed") == 22
    assert peering.count("style=bold") == 9
    assert '"AS64496" -- "AS64503";' in peering
    assert '"RS:mallaig";' in peering
    with pytest.raises(ValueError):
        export_dot(sim, "underwater")


def test_downed_links_are_greyed_in_the_export():
    scn = dataclasses.replace(load_whix(), events=())
    sim = converged(scn)
    sim.apply_event(Event(1, EventKind.LINK_DOWN, ("mallaig", "datacentre")))
    physical = export_dot(sim, "physical")
    assert '"datacentre" -- "mallaig" [label="1", style=solid, color=gray];' in physical
