"""Member routing: selection, route-server transparency, transit, probing."""

from __future__ import annotations

import dataclasses
import ipaddress
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import hand_fabric, random_exchange
from ixsim.dataplane import EtherType, EthernetFrame
from ixsim.engine import Simulation
from ixsim.exchange_l3 import (
    DEFAULT_ROUTE,
    BgpRoute,
    MemberRib,
    PeerKind,
    PeeringSession,
    RouteServer,
    TransitPolicy,
    arp_resolve,
    external_origin_asn,
    reachability_matrix,
    rib_line,
    rs_redistribute,
    transit_deliveries,
    upstream_announcements,
)
from ixsim.model import DOC_ASN32_FIRST, DOC_ASN32_LAST
from ixsim.model import LinkState, MemberAs, PortState, Topology
from ixsim.scenario import Event, EventKind
from oracles import closed_form_reachability, field_order, reference_reachability


def _net(text):
    return ipaddress.IPv4Network(text)


def _ip(text):
    return ipaddress.IPv4Address(text)


def _route(prefix, path, next_hop, learned="rs/x"):
    return BgpRoute(_net(prefix), tuple(path), _ip(next_hop), learned)


def test_route_rejects_empty_and_looping_paths():
    with pytest.raises(ValueError):
        _route("10.0.0.0/24", (), "192.0.2.1")
    with pytest.raises(ValueError):
        _route("10.0.0.0/24", (64500, 64501, 64500), "192.0.2.1")
    route = _route("10.0.0.0/24", (64500, 64501), "192.0.2.1")
    assert route.as_path[-1] == 64501


def test_route_key_is_derived_from_the_prefix():
    route = _route("10.1.0.0/16", (64500,), "192.0.2.1")
    twin = _route("10.1.0.0/16", (64500,), "192.0.2.1")
    assert route is not twin
    assert route == twin and hash(route) == hash(twin)
    assert route.key == (int(_ip("10.1.0.0")), 16)
    assert "key" not in repr(route)
    moved = dataclasses.replace(route, prefix=_net("10.2.3.0/24"))
    assert moved.key == (int(_ip("10.2.3.0")), 24)
    assert moved != route
    assert BgpRoute(DEFAULT_ROUTE, (64500,), _ip("192.0.2.1"), "rs/x").key == (0, 0)
    for name in ("prefix", "key", "rank"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(route, name, getattr(moved, name))


def test_route_rank_is_derived_from_the_selection_fields():
    route = _route("10.1.0.0/16", (64500, 64501), "192.0.2.9", "rs/smo")
    assert route.rank == (2, int(_ip("192.0.2.9")), "rs/smo")
    assert "rank" not in repr(route)
    # equality and hashing ignore the rank: a route ranked otherwise with
    # the same fields is still the same route
    twin = _route("10.1.0.0/16", (64500, 64501), "192.0.2.9", "rs/smo")
    object.__setattr__(twin, "rank", (0, 0, ""))
    assert twin == route and hash(twin) == hash(route)
    for field, value, rank in (
            ("next_hop", _ip("192.0.2.3"), (2, int(_ip("192.0.2.3")), "rs/smo")),
            ("as_path", (64502,), (1, int(_ip("192.0.2.9")), "rs/smo")),
            ("learned_from", "bgp/64500", (2, int(_ip("192.0.2.9")), "bgp/64500"))):
        moved = dataclasses.replace(route, **{field: value})
        assert moved.rank == rank
        assert moved.key == route.key


@settings(max_examples=60, deadline=None)
@given(path=st.lists(st.integers(1, 2**32 - 1), min_size=1, max_size=6, unique=True),
       hop=st.integers(0, 2**32 - 1), length=st.integers(0, 32),
       learned=st.sampled_from(["bgp/64500", "bgp/7", "rs/mallaig", "rs/a", "upstream"]))
def test_rank_is_the_field_order(path, hop, length, learned):
    prefix = ipaddress.IPv4Network((hop, length), strict=False)
    route = BgpRoute(prefix, tuple(path), ipaddress.IPv4Address(hop), learned)
    assert route.rank == field_order(route)


@settings(max_examples=200, deadline=None)
@given(network=st.integers(0, 2**32 - 1), length=st.integers(0, 32),
       hop=st.integers(0, 2**32 - 1),
       path=st.lists(st.integers(1, 2**32 - 1), min_size=1, max_size=4, unique=True),
       learned=st.sampled_from(["bgp/64500", "rs/mallaig", "upstream"]))
@example(network=0, length=0, hop=2**32 - 1, path=[64500], learned="rs/mallaig")
@example(network=2**32 - 1, length=32, hop=0, path=[7, 64500], learned="bgp/64500")
def test_rib_line_is_the_ipaddress_text(network, length, hop, path, learned):
    """The integer rendering agrees with ``ipaddress`` for any network and
    next hop, 0.0.0.0/0 and 255.255.255.255 included."""
    prefix = ipaddress.IPv4Network((network, length), strict=False)
    next_hop = ipaddress.IPv4Address(hop)
    route = BgpRoute(prefix, tuple(path), next_hop, learned)
    assert rib_line(route) == "%s|%s|%s|%s" % (
        prefix, " ".join(str(n) for n in path), next_hop, learned)


def _best(routes):
    return min(routes, key=field_order)


def test_best_path_prefers_short_then_next_hop_then_source():
    short = _route("10.0.0.0/24", (64500,), "192.0.2.9")
    long = _route("10.0.0.0/24", (64501, 64502), "192.0.2.1")
    assert _best([long, short]) == short
    low_hop = _route("10.0.0.0/24", (64500,), "192.0.2.3")
    assert _best([short, low_hop]) == low_hop
    direct = _route("10.0.0.0/24", (64500,), "192.0.2.3", "bgp/64500")
    reflected = _route("10.0.0.0/24", (64500,), "192.0.2.3", "rs/mallaig")
    assert _best([reflected, direct]) == direct


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), count=st.integers(1, 8))
def test_best_path_is_order_independent(seed, count):
    rng = random.Random(seed)
    routes = []
    for i in range(count):
        length = rng.randint(1, 4)
        path = tuple(rng.sample(range(64500, 64600), length))
        routes.append(BgpRoute(
            _net("10.0.0.0/24"), path,
            _ip("192.0.2.%d" % rng.randint(1, 200)),
            "%s/%d" % (rng.choice(["bgp", "rs"]), i)))
    expect = _best(routes)
    for _ in range(5):
        rng.shuffle(routes)
        assert _best(routes) == expect


def test_rib_rejects_own_asn_and_replaces_per_source():
    rib = MemberRib(64496)
    rib.add(_route("10.0.0.0/24", (64500, 64496), "192.0.2.1"))
    assert rib.chosen() == {}
    rib.add(_route("10.0.0.0/24", (64500,), "192.0.2.1", "rs/mallaig"))
    rib.add(_route("10.0.0.0/24", (64500, 64501), "192.0.2.2", "rs/mallaig"))
    chosen = rib.chosen()[_net("10.0.0.0/24")]
    assert chosen.as_path == (64500, 64501)  # same source replaced its offer
    rib.add(_route("10.0.0.0/24", (64500,), "192.0.2.1", "rs/smo"))
    assert rib.chosen()[_net("10.0.0.0/24")].as_path == (64500,)


def test_covering_picks_longest_prefix_with_default_fallback():
    rib = MemberRib(64496)
    rib.add(_route("10.0.0.0/8", (64500,), "192.0.2.1"))
    rib.add(_route("10.1.0.0/16", (64501,), "192.0.2.2"))
    rib.add(BgpRoute(DEFAULT_ROUTE, (64511,), _ip("192.0.2.21"), "bgp/64511"))
    assert rib.covering(_net("10.1.2.0/24")).as_path == (64501,)
    assert rib.covering(_net("10.2.0.0/24")).as_path == (64500,)
    assert rib.covering(_ip("172.16.0.5")).as_path == (64511,)
    bare = MemberRib(64496)
    assert bare.covering(_net("10.0.0.0/8")) is None


def _brute_covering(rib, target):
    if isinstance(target, ipaddress.IPv4Address):
        target = ipaddress.IPv4Network("%s/32" % target)
    hits = [route for prefix, route in rib.chosen().items()
            if prefix.supernet_of(target)]
    return max(hits, key=lambda r: r.prefix.prefixlen) if hits else None


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_covering_matches_a_scan_of_every_chosen_route(seed):
    rng = random.Random(seed)
    anchors = [rng.getrandbits(32) for _ in range(3)]
    targets = [_ip("0.0.0.0"), _ip("255.255.255.255")]  # the /0 and /32 masks
    for _ in range(20):
        addr = rng.choice(anchors) ^ rng.getrandbits(rng.randint(0, 32))
        targets.append(ipaddress.IPv4Address(addr))
        targets.append(ipaddress.IPv4Network((addr, rng.randint(0, 32)), strict=False))
    rib = MemberRib(64496)
    for _ in range(2):  # the RIB grows again after it has been looked up
        for _ in range(rng.randint(0, 20)):
            prefix = ipaddress.IPv4Network((rng.choice(anchors), rng.randint(0, 32)),
                                           strict=False)
            path = tuple(rng.sample(range(64500, 64510), rng.randint(1, 3)))
            rib.add(BgpRoute(prefix, path, _ip("192.0.2.%d" % rng.randint(1, 9)),
                             "rs/%d" % rng.randint(0, 2)))
        for target in targets:
            assert rib.covering(target) == _brute_covering(rib, target)


def test_rib_equality_tracks_candidates():
    a, b = MemberRib(64496), MemberRib(64496)
    assert a == b
    a.add(_route("10.0.0.0/24", (64500,), "192.0.2.1"))
    assert a != b
    b.add(_route("10.0.0.0/24", (64500,), "192.0.2.1"))
    assert a == b
    assert a != MemberRib(64497)


def test_route_server_reflects_transparently_to_other_clients():
    server = RouteServer("mallaig", 65536, (64496, 64497, 64498))
    route = _route("10.0.0.0/24", (64497,), "192.0.2.12", "rs/mallaig")
    table = rs_redistribute(server, [route])
    assert len(table) == 1
    offered = {asn: MemberRib(asn, [table]).chosen() for asn in server.client_sessions}
    assert offered == {64496: {route.prefix: route}, 64497: {},
                       64498: {route.prefix: route}}
    for asn in (64496, 64498):
        delivered = table.pick(route.key, asn)
        assert delivered is route  # untouched object: no prepend, no rewrite
        assert 65536 not in delivered.as_path
    assert table.pick(route.key, 64497) is None  # never back to the sender


def test_route_server_withholds_looping_paths():
    server = RouteServer("mallaig", 65536, (64496, 64497, 64498))
    route = _route("10.0.0.0/24", (64499, 64498), "192.0.2.9", "rs/mallaig")
    table = rs_redistribute(server, [route])
    assert [asn for asn in sorted(server.client_sessions)
            if table.pick(route.key, asn) is route] == [64496, 64497]
    assert table.view(64498) == {}
    assert MemberRib(64498, [table]).chosen() == {}
    assert MemberRib(64498, [table]).covering(route.prefix) is None


def test_route_server_offers_the_last_client_that_passes_the_filter():
    server = RouteServer("mallaig", 65536, (64496, 64497, 64498))
    first = _route("10.0.0.0/24", (64496,), "192.0.2.11", "rs/mallaig")
    second = _route("10.0.0.0/24", (64497, 64496), "192.0.2.12", "rs/mallaig")
    table = rs_redistribute(server, [first, second])
    assert table.pick(first.key, 64498) is second
    assert table.pick(first.key, 64497) is first
    assert table.pick(first.key, 64496) is None
    with pytest.raises(ValueError):
        rs_redistribute(server, [_route("10.0.0.0/24", (64496,), "192.0.2.11", "rs/smo")])


def test_transit_policies_shape_the_delivered_table():
    transit = MemberAs(64511, "upstream-haver", is_transit=True)
    sessions = [
        PeeringSession(64602, 64511, PeerKind.TRANSIT, TransitPolicy.FULL_TABLE),
        PeeringSession(64601, 64511, PeerKind.TRANSIT, TransitPolicy.DEFAULT_ONLY),
        PeeringSession(64601, 64602, PeerKind.BILATERAL),
        PeeringSession(64603, 64510, PeerKind.TRANSIT, TransitPolicy.DEFAULT_ONLY),
    ]
    externals = [_net("198.51.100.0/24"), _net("203.0.113.0/24")]
    out = transit_deliveries(transit, _ip("192.0.2.21"), sessions, externals)
    assert [(asn, str(r.prefix), r.as_path) for asn, r in out] == [
        (64601, "0.0.0.0/0", (64511,)),
        (64602, "198.51.100.0/24", (64511, 65551)),
        (64602, "203.0.113.0/24", (64511, 65550)),
    ]
    assert all(r.next_hop == _ip("192.0.2.21") for _, r in out)
    assert all(r.learned_from == "bgp/64511" for _, r in out)


def test_external_origin_numbers_count_down_from_block_top():
    assert external_origin_asn(0) == DOC_ASN32_LAST
    assert external_origin_asn(15) == DOC_ASN32_FIRST
    with pytest.raises(ValueError):
        external_origin_asn(16)


def test_upstream_announcements_prepend_and_filter():
    transit = MemberAs(64511, "upstream-haver", is_transit=True)
    rib = MemberRib(64511)
    rib.add(_route("10.177.2.0/24", (64602,), "192.0.2.12", "rs/mallaig"))
    rib.add(_route("10.177.1.0/24", (64601,), "192.0.2.11", "rs/mallaig"))
    rib.add(_route("198.51.100.0/24", (64400,), "192.0.2.99", "bgp/64400"))
    member_prefixes = [_net("10.177.1.0/24"), _net("10.177.2.0/24")]
    out = upstream_announcements(transit, rib, member_prefixes)
    assert [(str(r.prefix), r.as_path, r.learned_from) for r in out] == [
        ("10.177.1.0/24", (64511, 64601), "upstream"),
        ("10.177.2.0/24", (64511, 64602), "upstream"),
    ]


def test_upstream_announcements_skip_paths_through_the_transit_member():
    """Given a RIB other than the transit member's own, whose add() would
    refuse such a route, a route whose AS path already holds the transit
    ASN is not re-announced toward the upstream."""
    transit = MemberAs(64511, "upstream-haver", is_transit=True)
    rib = MemberRib(64496)
    rib.add(_route("10.177.1.0/24", (64601, 64511), "192.0.2.11", "bgp/64601"))
    rib.add(_route("10.177.2.0/24", (64602,), "192.0.2.12", "bgp/64602"))
    member_prefixes = [_net("10.177.1.0/24"), _net("10.177.2.0/24")]
    assert rib.best_at((int(_net("10.177.1.0/24").network_address), 24)) is not None
    out = upstream_announcements(transit, rib, member_prefixes)
    assert [(str(r.prefix), r.as_path) for r in out] == [
        ("10.177.2.0/24", (64511, 64602)),
    ]


def test_arp_resolves_active_owner():
    fabric = hand_fabric([("a", "b", 1)], [(64601, "a", 1), (64602, "b", 2)],
                         reflectors={"a"})
    ports = fabric.ports
    mac = arp_resolve(ports[64601], ports[64602].exchange_ip, fabric)
    assert mac == ports[64602].nominated_mac
    ids = {r.trace_id for r in fabric.trace}
    assert ids == {"arp-req", "arp-rep"}


def test_arp_fails_for_unknown_self_or_quarantined():
    fabric = hand_fabric(
        [("a", "b", 1)],
        [(64601, "a", 1), (64602, "b", 2, PortState.QUARANTINE)],
        reflectors={"a"})
    ports = fabric.ports
    assert arp_resolve(ports[64601], _ip("192.0.2.250"), fabric) is None
    assert arp_resolve(ports[64601], ports[64601].exchange_ip, fabric) is None
    # quarantined owner is invisible at layer 2
    assert arp_resolve(ports[64601], ports[64602].exchange_ip, fabric) is None
    quarantined = hand_fabric(
        [("a", "b", 1)],
        [(64601, "a", 1, PortState.QUARANTINE), (64602, "b", 2)],
        reflectors={"a"})
    qports = quarantined.ports
    assert arp_resolve(qports[64601], qports[64602].exchange_ip, quarantined) is None


def _matrix_state():
    fabric = hand_fabric([("a", "b", 1)], [(64601, "a", 1), (64602, "b", 2)],
                         reflectors={"a"})
    ports = fabric.ports
    members = [
        MemberAs(64601, "one", False, (_net("10.177.1.0/24"),)),
        MemberAs(64602, "two", False, (_net("10.177.2.0/24"),)),
    ]
    ribs = {64601: MemberRib(64601), 64602: MemberRib(64602)}
    ribs[64601].add(_route("10.177.2.0/24", (64602,), "192.0.2.12", "bgp/64602"))
    ribs[64602].add(_route("10.177.1.0/24", (64601,), "192.0.2.11", "bgp/64601"))
    return fabric, ports, members, ribs


def test_matrix_requires_route_and_delivery():
    fabric, ports, members, ribs = _matrix_state()
    matrix = reachability_matrix(members, ports, ribs, [], fabric)
    assert matrix == {
        (64601, "10.177.2.0/24"): True,
        (64602, "10.177.1.0/24"): True,
    }
    assert fabric.trace == []  # probes ran on a clone


def test_matrix_false_without_covering_route():
    fabric, ports, members, ribs = _matrix_state()
    ribs[64602] = MemberRib(64602)
    matrix = reachability_matrix(members, ports, ribs, [], fabric)
    assert matrix[(64602, "10.177.1.0/24")] is False
    assert matrix[(64601, "10.177.2.0/24")] is True


def test_matrix_false_when_quarantine_blocks_the_next_hop():
    fabric = hand_fabric(
        [("a", "b", 1)],
        [(64601, "a", 1), (64602, "b", 2, PortState.QUARANTINE)],
        reflectors={"a"})
    ports = fabric.ports
    members = [
        MemberAs(64601, "one", False, (_net("10.177.1.0/24"),)),
        MemberAs(64602, "two", False, (_net("10.177.2.0/24"),)),
    ]
    ribs = {64601: MemberRib(64601), 64602: MemberRib(64602)}
    ribs[64601].add(_route("10.177.2.0/24", (64602,), "192.0.2.12", "bgp/64602"))
    ribs[64602].add(_route("10.177.1.0/24", (64601,), "192.0.2.11", "bgp/64601"))
    matrix = reachability_matrix(members, ports, ribs, [], fabric)
    # neither direction works: the owner cannot answer ARP, the sender
    # cannot inject at all
    assert matrix[(64601, "10.177.2.0/24")] is False
    assert matrix[(64602, "10.177.1.0/24")] is False


def test_matrix_externals_follow_the_default_route():
    fabric, ports, members, ribs = _matrix_state()
    ribs[64601].add(BgpRoute(DEFAULT_ROUTE, (64602,), _ip("192.0.2.12"), "bgp/64602"))
    external = [_net("198.51.100.0/24")]
    matrix = reachability_matrix(members, ports, ribs, external, fabric)
    assert matrix[(64601, "198.51.100.0/24")] is True
    assert matrix[(64602, "198.51.100.0/24")] is False  # no route at all


def _both_probers(members, ports, ribs, externals, fabric, round_no=0):
    members = sorted(members, key=lambda m: m.asn)
    args = (members, ports, ribs, externals, fabric)
    got = reachability_matrix(*args, round_no=round_no)
    want = reference_reachability(*args, round_no=round_no)
    assert list(got.items()) == list(want.items())
    return got


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_matrix_matches_the_per_cell_reference(seed):
    rng = random.Random(seed)
    sim = random_exchange(rng, rng.randint(2, 7), route_server=True,
                          externals=rng.randint(0, 3))
    # Down links (a cut tree link partitions the mesh) and links too small
    # for a data probe (100) or for anything at all (50).
    links = list(sim.topo.links)
    for i, link in enumerate(links):
        if rng.random() < 0.2:
            links[i] = dataclasses.replace(link, state=LinkState.DOWN)
        elif rng.random() < 0.15:
            links[i] = dataclasses.replace(link, mtu=rng.choice([50, 100]))
    # A fresh Simulation builds its underlay from the edited topology;
    # after construction, link state only changes through link events.
    sim = Simulation(dataclasses.replace(
        sim.scenario, topology=Topology(sim.topo.nodes, tuple(links))))
    # Quarantined before convergence: the route servers drop the member.
    for asn in list(sim.ports):
        if rng.random() < 0.15:
            sim.ports[asn] = dataclasses.replace(sim.ports[asn], state=PortState.QUARANTINE)
    sim.converge()
    # Quarantined after it: the RIBs still point at the member.
    for asn, port in list(sim.ports.items()):
        if rng.random() < 0.15:
            sim.ports[asn] = dataclasses.replace(port, state=PortState.QUARANTINE)
            sim.fabric.bridges[port.attach_pe].ports[asn] = sim.ports[asn]
    # Member traffic leaves learned MACs in the real tables; probing late
    # enough lets them age out.
    asns = sorted(sim.ports)
    for _ in range(rng.randint(0, 6)):
        src, dst = rng.choice(asns), rng.choice(asns)
        sim.fabric.inject(src, EthernetFrame(
            sim.ports[src].nominated_mac, sim.ports[dst].nominated_mac,
            EtherType.IPV4, 64, "warm"), 0)
    _both_probers(sim.members.values(), sim.ports, sim.l3.ribs,
                  sim.scenario.external_prefixes, sim.fabric,
                  round_no=rng.choice([0, 400]))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_matrix_matches_the_closed_form(seed):
    """Every cell against ``closed_form_reachability``, which sends no
    frame and so cannot share a fault with the probes: single and split
    route servers, transit, bilateral sessions and quarantine, after up
    to four link events, which can leave several links down at once."""
    rng = random.Random(seed)
    sim = random_exchange(rng, rng.randint(2, 7), route_server=rng.random() < 0.8,
                          externals=rng.randint(0, 3), bilateral=rng.randint(0, 3),
                          quarantined=rng.randint(0, 2), split_clients=rng.random() < 0.5)
    for at in range(1, rng.randint(0, 4) + 1):
        kind = rng.choice((EventKind.LINK_DOWN, EventKind.LINK_UP))
        sim.apply_event(Event(at, kind, rng.choice(sim.topo.links).endpoints))
    assert sim.reachability() == closed_form_reachability(sim)


def _hand_matrix(placements, changes):
    """Both probers on a two-PE fabric where every member routes to every
    other member's prefix.  ``changes`` maps an ASN to port fields that
    validation would reject."""
    fabric = hand_fabric([("a", "b", 1)], placements, reflectors={"a"})
    ports = fabric.ports
    for asn, fields in changes.items():
        port = dataclasses.replace(ports[asn], **fields)
        ports[asn] = fabric.bridges[port.attach_pe].ports[asn] = port
    members = [MemberAs(asn, "m%d" % asn, False, (_net("10.177.%d.0/24" % (asn - 64600)),))
               for asn in sorted(ports)]
    ribs = {asn: MemberRib(asn) for asn in ports}
    for m in members:
        for asn in ports:
            ribs[asn].add(BgpRoute(m.announced_prefixes[0], (m.asn,),
                                   ports[m.asn].exchange_ip, "bgp/%d" % m.asn))
    return _both_probers(members, ports, ribs, [], fabric)


def test_group_bit_mac_zeroes_its_cells_in_both_probers():
    matrix = _hand_matrix([(64601, "a", 1), (64602, "b", 2), (64603, "b", 3)],
                          {64602: {"nominated_mac": "03:00:00:00:00:02"}})
    assert matrix == {
        (64601, "10.177.2.0/24"): False,
        (64601, "10.177.3.0/24"): True,
        (64602, "10.177.1.0/24"): False,
        (64602, "10.177.3.0/24"): False,
        (64603, "10.177.1.0/24"): True,
        (64603, "10.177.2.0/24"): False,
    }


def test_shared_exchange_ip_resolves_to_the_lowest_asn_in_both_probers():
    # 64602 and 64603 claim one IP; the quarantined 64602 owns it, so the
    # routes through that IP fail although 64603 could answer.
    matrix = _hand_matrix(
        [(64601, "a", 1), (64602, "b", 2, PortState.QUARANTINE), (64603, "b", 3)],
        {64603: {"exchange_ip": _ip("192.0.2.12")}})
    assert matrix[(64601, "10.177.2.0/24")] is False
    assert matrix[(64601, "10.177.3.0/24")] is False
    assert matrix[(64603, "10.177.1.0/24")] is True
