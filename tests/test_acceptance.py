"""Acceptance checks.  One test per criterion; each prints a verdict line.

Every expected number here is frozen from an independent derivation (pair
enumeration, Floyd-Warshall, union-find components) or from arithmetic done
by hand, never read back from the code under test.
"""

from __future__ import annotations

import dataclasses
import ipaddress
import math
import random
import time

from helpers import (
    WHIX,
    converged,
    load_whix,
    make_exchange,
    random_connected_topology,
    random_exchange,
)
from ixsim.cli import EXIT_OK, main
from ixsim.dataplane import BROADCAST_MAC, DropReason, EthernetFrame, EtherType
from ixsim.engine import Simulation, export_dot
from ixsim.model import LinkState, PortState
from ixsim.scenario import Event, EventKind
from ixsim.underlay import compute_spf
from oracles import all_pairs_distances, count_unordered_pairs, same_component

EXTERNALS = ("198.51.100.0/24", "203.0.113.0/24", "192.88.99.0/24")


def _whix_without_events():
    return dataclasses.replace(load_whix(), events=())


def test_criterion_01_full_mesh_size_and_speed():
    start = time.perf_counter()
    sim = converged(_whix_without_events())
    elapsed = time.perf_counter() - start
    assert len(sim.pseudowires) == 28  # 8 choose 2
    assert sim.missing_transport == ()
    assert elapsed < 1.0

    rng = random.Random(101)
    for _ in range(20):
        n = rng.randint(1, 12)
        topo = random_connected_topology(rng, n)
        scenario = make_exchange(
            [(l.a, l.b, l.cost, l.mtu) for l in topo.links],
            [],
            reflectors=[x.name for x in topo.nodes if x.is_route_reflector],
            extra_nodes=topo.node_names(),
        )
        start = time.perf_counter()
        sim = converged(scenario)
        elapsed = time.perf_counter() - start
        assert len(sim.pseudowires) == count_unordered_pairs(topo.node_names())
        assert sim.missing_transport == ()
        assert elapsed < 1.0
    print("ACCEPTANCE 01 PASS: full mesh is P(P-1)/2 everywhere, "
          "each convergence under a second")


def test_criterion_02_session_economics():
    sim = Simulation(load_whix())
    sim.run()
    report = sim.report()
    assert report.ibgp_session_count == 13   # 2*6 client + 1 rr-rr
    assert report.rs_session_count == 22     # 11 members x 2 servers
    assert report.bilateral_equivalent == 55  # 11 choose 2
    print("ACCEPTANCE 02 PASS: 13 iBGP and 22 RS sessions replace "
          "a 55-session bilateral mesh")


def test_criterion_03_route_server_transparency():
    sims = [Simulation(load_whix())]
    sims[0].run()
    sims.append(converged(make_exchange(
        [("a", "b", 1), ("b", "c", 1)],
        [(64496, "a"), (64497, "b"), (64498, "c"), (64499, "c")],
        reflectors={"a"},
        rs_nodes={"a", "b"},
        all_on_rs=True,
    )))
    checked = 0
    for sim in sims:
        service = {s.service_asn for s in sim.scenario.route_servers}
        assert service
        for rib in sim.l3.ribs.values():
            for offers in rib.candidates.values():
                for route in offers.values():
                    assert not service & set(route.as_path)
                    checked += 1
    assert checked > 0
    print("ACCEPTANCE 03 PASS: no service ASN in any of %d RIB candidates"
          % checked)


def test_criterion_04_no_duplicate_floods():
    rng = random.Random(404)
    pool = [random_exchange(random.Random(1000 + i), rng.randint(2, 8))
            for i in range(10)]
    violations = 0
    for i in range(1000):
        sim = pool[i % len(pool)]
        asn = rng.choice(sorted(sim.ports))
        port = sim.ports[asn]
        tid = "acc4-%d" % i
        if rng.random() < 0.5:
            frame = EthernetFrame(port.nominated_mac, BROADCAST_MAC,
                                  EtherType.ARP, 64, tid)
        else:
            unknown = "06:00:00:00:%02x:%02x" % (i // 256, i % 256)
            frame = EthernetFrame(port.nominated_mac, unknown,
                                  EtherType.IPV4, 100, tid)
        result = sim.fabric.inject(asn, frame, round_no=i)
        assert result.accepted
        if len(result.visited_pes) != len(set(result.visited_pes)):
            violations += 1
        rows = [r for r in sim.fabric.trace if r.trace_id == tid]
        receives = [(r.pe, r.via) for r in rows if r.action == "receive"]
        emits = [(r.pe, r.via) for r in rows if r.action == "emit"]
        if len(receives) != len(set(receives)) or len(emits) != len(set(emits)):
            violations += 1
        if result.pw_traversals > count_unordered_pairs(sim.topo.node_names()):
            violations += 1
    assert violations == 0
    print("ACCEPTANCE 04 PASS: 1000 flooded frames, every wire and bridge "
          "touched at most once each, 0 violations")


def test_criterion_05_exact_drop_histogram():
    sim = converged(make_exchange(
        [("a", "b", 1)],
        [(64496, "a"), (64497, "b", PortState.QUARANTINE)],
        reflectors={"a"},
        rs_nodes={"a"},
        all_on_rs=True,
    ))
    mac_a = sim.ports[64496].nominated_mac
    mac_b = sim.ports[64497].nominated_mac

    def shoot(asn, frame, times):
        for _ in range(times):
            sim.fabric.inject(asn, frame)

    shoot(64497, EthernetFrame(mac_b, mac_a, EtherType.IPV4, 100, "q"), 1)
    shoot(64496, EthernetFrame("02:0b:ad:00:00:01", mac_b, EtherType.IPV4, 100, "m"), 3)
    shoot(64496, EthernetFrame(mac_a, BROADCAST_MAC, EtherType.IPV4, 100, "f"), 2)
    shoot(64496, EthernetFrame(mac_a, mac_b, EtherType.IPV4, 1580, "big"), 4)
    assert sim.report().drops == {
        DropReason.QUARANTINED: 1,
        DropReason.MAC_MISMATCH: 3,
        DropReason.FORBIDDEN_TRAFFIC: 2,
        DropReason.MTU_EXCEEDED: 4,
    }
    print("ACCEPTANCE 05 PASS: drop histogram matches the scripted "
          "misbehaviour exactly (1/3/2/4)")


def test_criterion_06_mtu_boundaries():
    cases = [
        (1500, 1526, True),
        (1580, 1606, False),
        (1574, 1600, True),  # exactly at the link MTU
    ]
    for payload, encap, delivered in cases:
        sim = converged(make_exchange(
            [("a", "b", 1)],
            [(64496, "a"), (64497, "b")],
            reflectors={"a"},
            rs_nodes={"a"},
            all_on_rs=True,
        ))
        frame = EthernetFrame(sim.ports[64496].nominated_mac,
                              sim.ports[64497].nominated_mac,
                              EtherType.IPV4, payload, "t")
        result = sim.fabric.inject(64496, frame)
        assert result.accepted
        assert 18 + 8 + payload == encap  # tunnelled size arithmetic, by hand
        if delivered:
            assert result.deliveries == [64497]
            assert not sim.fabric.drops
        else:
            assert result.deliveries == []
            assert [d.reason for d in sim.fabric.drops] == [DropReason.MTU_EXCEEDED]
    print("ACCEPTANCE 06 PASS: 1500 -> 1526 delivered, 1580 -> 1606 dropped, "
          "1574 -> 1600 fits exactly")


def test_criterion_07_single_link_failures_match_the_component_oracle():
    scenario = _whix_without_events()
    baseline = converged(scenario).reachability()
    attach = {p.member_asn: p.attach_pe for p in scenario.ports}
    transit_pe = attach[64511]
    owner_pe = {}
    for m in scenario.members:
        for pfx in m.announced_prefixes:
            owner_pe[str(pfx)] = attach[m.asn]
    for pfx in EXTERNALS:
        owner_pe[pfx] = transit_pe

    cut_edges = 0
    for link in scenario.topology.links:
        sim = converged(_whix_without_events())
        sim.apply_event(Event(1, EventKind.LINK_DOWN, (link.a, link.b)))
        assert all(
            l.state is LinkState.UP or l.endpoints == link.endpoints
            for l in sim.topo.links)
        expected = {
            cell: ok and same_component(sim.topo, attach[cell[0]], owner_pe[cell[1]])
            for cell, ok in baseline.items()
        }
        actual = sim.reachability()
        assert actual == expected
        if expected != baseline:
            cut_edges += 1
    assert cut_edges == 1  # only the leased circuit partitions the mesh
    print("ACCEPTANCE 07 PASS: all 10 single-link failures match the "
          "union-find component oracle; 1 cut edge found")


def test_criterion_08_transit_policy_reachability():
    sim = Simulation(load_whix())
    sim.run()
    matrix = sim.reachability()
    default_takers = range(64496, 64504)
    for asn in default_takers:
        covering = sim.l3.ribs[asn].covering(ipaddress.IPv4Network(EXTERNALS[0]))
        assert str(covering.prefix) == "0.0.0.0/0"
        for pfx in EXTERNALS:
            assert matrix[(asn, pfx)]
    for pfx in EXTERNALS:
        assert not matrix[(64505, pfx)]  # peering-only member
    member_prefixes = ["10.96.%d.0/24" % i for i in range(1, 12)]
    for pfx in member_prefixes:
        if pfx == "10.96.10.0/24":
            continue  # its own announcement
        assert matrix[(64505, pfx)]
    print("ACCEPTANCE 08 PASS: default-only members reach the world through "
          "0.0.0.0/0; the peering-only member sees members, not the world")


def test_criterion_09_spf_against_floyd_warshall():
    rng = random.Random(909)
    for case in range(200):
        topo = random_connected_topology(rng, rng.randint(1, 12))
        if case % 2:
            for i in range(len(topo.links)):
                if rng.random() < 0.2:
                    topo = topo.with_link_state(i, LinkState.DOWN)
        oracle = all_pairs_distances(topo)
        for src in topo.node_names():
            tree = compute_spf(topo, src)
            for dst in topo.node_names():
                expect = oracle[(src, dst)]
                if expect is math.inf:
                    assert dst not in tree.dist
                else:
                    assert tree.dist[dst] == expect
    print("ACCEPTANCE 09 PASS: 200 random topologies, every distance equals "
          "Floyd-Warshall")


def test_criterion_10_byte_identical_reruns(tmp_path):
    artefacts = []
    for attempt in ("first", "second"):
        report = tmp_path / ("%s.report" % attempt)
        trace = tmp_path / ("%s.trace" % attempt)
        assert main(["run", str(WHIX), "--report", str(report),
                     "--trace", str(trace)]) == EXIT_OK
        sim = Simulation(load_whix())
        sim.run()
        artefacts.append((
            report.read_bytes(),
            trace.read_bytes(),
            sim.rib_dump().encode(),
            tuple(export_dot(sim, layer).encode()
                  for layer in ("physical", "vpls", "peering")),
        ))
    assert artefacts[0] == artefacts[1]
    print("ACCEPTANCE 10 PASS: report, trace, RIB dump and all graph "
          "exports are byte-identical across runs")
