"""Bridges, port policy, flooding, MTU gates and the frame trace."""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import hand_fabric as tiny_fabric
from helpers import converged, make_port, make_topology, random_exchange
from ixsim import dataplane, vpls_signal
from ixsim.dataplane import (
    BROADCAST_MAC,
    DEFAULT_MAC_AGING_ROUNDS,
    ETHERNET_OVERHEAD,
    MPLS_OVERHEAD,
    DropReason,
    EthernetFrame,
    EtherType,
    MacEntry,
    TraceRow,
    bridge_forward,
    build_bridges,
    format_trace,
    ingress_filter,
    is_broadcast,
    is_unicast,
    promote_port,
    transmit,
)
from ixsim.model import PortState
from oracles import reference_inject


def _frame(src, dst, ethertype=EtherType.IPV4, size=100, trace="t"):
    return EthernetFrame(src, dst, ethertype, size, trace)


def _mac(i):
    return "02:00:00:00:00:%02x" % i


def _visited(trace, trace_id="t1"):
    """The bridges a frame visited, in order: its ingress PE, where it was
    accepted, then every PE that received it off a wire."""
    return [r.pe for r in trace
            if r.trace_id == trace_id and r.action in ("accept", "receive")]


def test_mac_classes():
    assert is_broadcast(BROADCAST_MAC)
    assert not is_unicast(BROADCAST_MAC)
    assert is_unicast("02:00:00:00:00:01")
    assert not is_unicast("01:00:5e:00:00:01")  # multicast, group bit set
    assert not is_broadcast("01:00:5e:00:00:01")


def test_ingress_checks_policy_before_quarantine():
    port = make_port(63001, "a", 1, PortState.QUARANTINE)
    wrong_src = _frame(_mac(9), _mac(2))
    assert ingress_filter(port, wrong_src) is DropReason.MAC_MISMATCH
    storm = _frame(port.nominated_mac, BROADCAST_MAC, EtherType.IPV4)
    assert ingress_filter(port, storm) is DropReason.FORBIDDEN_TRAFFIC
    compliant = _frame(port.nominated_mac, _mac(2))
    assert ingress_filter(port, compliant) is DropReason.QUARANTINED


def test_ingress_admits_unicast_and_arp_broadcast():
    port = make_port(63001, "a", 1, PortState.ACTIVE)
    assert ingress_filter(port, _frame(port.nominated_mac, _mac(2))) is None
    arp = _frame(port.nominated_mac, BROADCAST_MAC, EtherType.ARP)
    assert ingress_filter(port, arp) is None
    nonarp = _frame(port.nominated_mac, BROADCAST_MAC, EtherType.IPV4)
    assert ingress_filter(port, nonarp) is DropReason.FORBIDDEN_TRAFFIC
    multicast = _frame(port.nominated_mac, "01:00:5e:00:00:01", EtherType.OTHER)
    assert ingress_filter(port, multicast) is DropReason.FORBIDDEN_TRAFFIC


def _bridge(pe, ports, wires=()):
    """The bridge ``build_bridges`` makes at ``pe`` for ``ports``, with a
    standing wire to each PE of ``wires``."""
    pairs = sorted(tuple(sorted((pe, remote))) for remote in wires)
    return build_bridges([pe, *wires], {p.member_asn: p for p in ports}, pairs)[pe]


def test_flood_goes_to_active_ports_and_all_wires_in_stable_order():
    bridge, macs = _bridge("a", [make_port(63005, "a", 5), make_port(63002, "a", 2),
                                 make_port(63009, "a", 9, PortState.QUARANTINE)],
                           ("b", "c")), {}
    frame = _frame(_mac(1), _mac(77), trace="t1")
    targets = bridge_forward(bridge, macs, frame, 63001, 0, True)
    assert list(targets) == [63002, 63005, "b", "c"]


def test_split_horizon_keeps_wire_arrivals_off_other_wires():
    bridge, macs = _bridge("a", [make_port(63001, "a", 1)], ("b", "c")), {}
    frame = _frame(_mac(9), _mac(77))
    targets = bridge_forward(bridge, macs, frame, "b", 0, True)
    assert list(targets) == [63001]


def test_known_unicast_uses_single_learned_attachment():
    bridge, macs = _bridge("a", [make_port(63001, "a", 1)], ("b",)), {}
    macs[_mac(7)] = MacEntry("b", 0)
    targets = bridge_forward(bridge, macs, _frame(_mac(1), _mac(7)), 63001, 0, True)
    assert list(targets) == ["b"]


def test_hairpin_toward_arrival_is_suppressed():
    bridge, macs = _bridge("b", [make_port(63002, "b", 2)], ("a",)), {}
    macs[_mac(1)] = MacEntry("a", 0)
    targets = bridge_forward(bridge, macs, _frame(_mac(9), _mac(1)), "a", 0, True)
    assert list(targets) == []


def test_learning_records_source_and_protects_local_macs():
    port = make_port(63001, "a", 1)
    bridge, macs = _bridge("a", [port]), {}
    local_mac = port.nominated_mac
    bridge_forward(bridge, macs, _frame(_mac(9), _mac(77)), "b", 0, True)
    assert macs[_mac(9)].where == "b"
    # a wire arrival claiming a locally nominated MAC must not poison the table
    targets = bridge_forward(bridge, macs, _frame(local_mac, _mac(77)), "b", 0, True)
    assert local_mac not in macs
    assert list(targets) == [63001]


def test_broadcast_never_consults_the_mac_table():
    bridge, macs = _bridge("a", [make_port(63001, "a", 1)]), {}
    macs[BROADCAST_MAC] = MacEntry(63001, 0)  # nonsense entry
    frame = _frame(_mac(9), BROADCAST_MAC, EtherType.ARP)
    targets = bridge_forward(bridge, macs, frame, "b", 0, True)
    assert list(targets) == [63001]


def test_mac_entries_age_out():
    """An entry DEFAULT_MAC_AGING_ROUNDS old is dropped and the frame
    floods; one round younger, the frame goes where it points."""
    bridge = _bridge("a", [make_port(63001, "a", 1)], ("b", "c"))
    frame = _frame(_mac(1), _mac(7))
    macs = {_mac(7): MacEntry("b", learned_round=0)}
    targets = bridge_forward(bridge, macs, frame, 63001, DEFAULT_MAC_AGING_ROUNDS - 1, True)
    assert list(targets) == ["b"]
    assert macs[_mac(7)] == MacEntry("b", 0)
    targets = bridge_forward(bridge, macs, frame, 63001, DEFAULT_MAC_AGING_ROUNDS, True)
    assert list(targets) == ["b", "c"]
    assert _mac(7) not in macs


def test_transmit_flags_first_undersized_link():
    topo = make_topology([("a", "b", 1, 1600), ("b", "c", 1, 1700)], reflectors={"a"})
    assert 1580 + ETHERNET_OVERHEAD + MPLS_OVERHEAD == 1606
    assert transmit(1606, topo.links) == topo.links[0]
    assert transmit(1600, topo.links) is None


def test_promotion_needs_a_clean_window():
    port = make_port(63001, "a", 1, PortState.QUARANTINE)
    assert promote_port(port, []).state is PortState.ACTIVE
    assert promote_port(port, [DropReason.QUARANTINED]).state is PortState.ACTIVE
    assert promote_port(port, [DropReason.MAC_MISMATCH]).state is PortState.QUARANTINE
    assert promote_port(
        port, [DropReason.QUARANTINED, DropReason.FORBIDDEN_TRAFFIC]
    ).state is PortState.QUARANTINE
    active = make_port(63001, "a", 1, PortState.ACTIVE)
    assert promote_port(active, [DropReason.MAC_MISMATCH]) is active


def test_format_trace_layout():
    rows = [TraceRow(0, "t1", "a", "port/63001", "accept"),
            TraceRow(0, "t1", "a", "pw/b", "emit")]
    assert format_trace(rows) == (
        "round,trace_id,pe,via,action\n"
        "0,t1,a,port/63001,accept\n"
        "0,t1,a,pw/b,emit\n")


def test_broadcast_crosses_each_wire_once_and_visits_each_bridge_once():
    fabric = tiny_fabric(
        [("a", "b", 1), ("b", "c", 1)],
        [(63001, "a", 1), (63002, "b", 2), (63003, "c", 3)],
        reflectors={"a"})
    frame = _frame(_mac(1), BROADCAST_MAC, EtherType.ARP, 64, "t1")
    result = fabric.inject(63001, frame)
    assert result.accepted
    assert result.deliveries == [63002, 63003]
    assert result.pw_traversals == 2
    assert _visited(fabric.trace) == ["a", "b", "c"]
    assert result.emissions == 4  # two wires out, one port at each far end


def test_learned_unicast_crosses_only_one_wire():
    fabric = tiny_fabric(
        [("a", "b", 1), ("b", "c", 1)],
        [(63001, "a", 1), (63002, "b", 2), (63003, "c", 3)],
        reflectors={"a"})
    fabric.inject(63001, _frame(_mac(1), BROADCAST_MAC, EtherType.ARP, 64, "t1"))
    reply = _frame(_mac(2), _mac(1), EtherType.IPV4, 100, "t2")
    result = fabric.inject(63002, reply)
    assert result.deliveries == [63001]
    assert result.pw_traversals == 1
    assert _visited(fabric.trace, "t2") == ["b", "a"]


def test_same_bridge_unicast_stays_local():
    fabric = tiny_fabric(
        [("a", "b", 1)],
        [(63001, "a", 1), (63004, "a", 4), (63002, "b", 2)],
        reflectors={"a"})
    fabric.inject(63004, _frame(_mac(4), BROADCAST_MAC, EtherType.ARP, 64, "t1"))
    result = fabric.inject(63001, _frame(_mac(1), _mac(4), EtherType.IPV4, 100, "t2"))
    assert result.deliveries == [63004]
    assert result.pw_traversals == 0
    assert _visited(fabric.trace, "t2") == ["a"]


def test_ingress_drop_is_traced_and_counted():
    fabric = tiny_fabric(
        [("a", "b", 1)],
        [(63001, "a", 1, PortState.QUARANTINE), (63002, "b", 2)],
        reflectors={"a"})
    result = fabric.inject(63001, _frame(_mac(1), _mac(2), EtherType.IPV4, 100, "t1"))
    assert not result.accepted
    assert result.drop_reason is DropReason.QUARANTINED
    assert fabric.trace == [TraceRow(0, "t1", "a", "port/63001", "drop:QUARANTINED")]
    assert [d.reason for d in fabric.drops] == [DropReason.QUARANTINED]
    assert fabric.drops[0].port_asn == 63001


def test_oversized_frame_dies_at_the_wire_not_the_port():
    fabric = tiny_fabric(
        [("a", "b", 1)],
        [(63001, "a", 1), (63005, "a", 5), (63002, "b", 2)],
        reflectors={"a"})
    big = _frame(_mac(1), _mac(99), EtherType.IPV4, 1580, "t1")
    result = fabric.inject(63001, big)
    assert result.accepted
    assert result.deliveries == [63005]  # local hand-off has no tunnel headers
    assert result.pw_traversals == 0
    drops = [d for d in fabric.drops if d.reason is DropReason.MTU_EXCEEDED]
    assert len(drops) == 1
    assert drops[0].offending_link == fabric.topo.links[0]
    assert any(r.action == "drop:MTU_EXCEEDED" for r in fabric.trace)


def test_boundary_payload_fits_the_default_mtu():
    fabric = tiny_fabric(
        [("a", "b", 1)],
        [(63001, "a", 1), (63002, "b", 2)],
        reflectors={"a"})
    result = fabric.inject(63001, _frame(_mac(1), _mac(99), EtherType.IPV4, 1574, "t1"))
    assert result.deliveries == [63002]
    assert not fabric.drops


def test_only_frames_above_the_narrowest_link_walk_their_lsp(monkeypatch):
    """A frame whose wire size fits the topology's narrowest link crosses
    every wire without walking an LSP.  One byte more walks the LSP of each
    wire it is emitted on, crosses where every link is wide enough, and
    drops elsewhere, naming the first link on the path that is too small."""
    walks = []

    def counted(table, src, dst, _resolve=vpls_signal.resolve_lsp):
        walks.append((src, dst))
        return _resolve(table, src, dst)

    monkeypatch.setattr(vpls_signal, "resolve_lsp", counted)
    fabric = tiny_fabric(
        [("a", "b", 1, 1700), ("b", "c", 1, 1600), ("c", "e", 1, 1600), ("a", "d", 1, 9000)],
        [(63001, "a", 1), (63002, "b", 2), (63003, "c", 3), (63004, "d", 4), (63005, "e", 5)],
        reflectors={"a"})
    narrow = fabric.topo.links[fabric.topo.links_between("b", "c")[0]]
    fits = 1600 - ETHERNET_OVERHEAD - MPLS_OVERHEAD

    result = fabric.inject(63001, _frame(_mac(1), BROADCAST_MAC, EtherType.ARP, fits, "t1"))
    assert walks == []
    assert result.deliveries == [63002, 63003, 63004, 63005]
    assert result.pw_traversals == 4
    assert fabric.drops == []

    result = fabric.inject(63001, _frame(_mac(1), BROADCAST_MAC, EtherType.ARP, fits + 1, "t2"))
    assert walks == [("a", "b"), ("a", "c"), ("a", "d"), ("a", "e")]
    assert result.deliveries == [63002, 63004]
    assert result.pw_traversals == 2
    assert [(d.reason, d.offending_link) for d in fabric.drops] == [
        (DropReason.MTU_EXCEEDED, narrow)] * 2
    assert [r.via for r in fabric.trace if r.action == "drop:MTU_EXCEEDED"] == ["pw/c", "pw/e"]


def test_trace_sequence_for_a_flooded_unicast():
    fabric = tiny_fabric(
        [("a", "b", 1)],
        [(63001, "a", 1), (63002, "b", 2)],
        reflectors={"a"})
    fabric.inject(63001, _frame(_mac(1), _mac(2), EtherType.IPV4, 100, "t1"))
    assert [(r.pe, r.via, r.action) for r in fabric.trace] == [
        ("a", "port/63001", "accept"),
        ("a", "pw/b", "emit"),
        ("b", "pw/a", "receive"),
        ("b", "port/63002", "emit"),
        ("b", "port/63002", "deliver"),
    ]


def _triangle():
    """PEs a, b and c, each pair linked, with members 63001..63003 on them."""
    return tiny_fabric(
        [("a", "b", 1), ("b", "c", 1), ("a", "c", 1)],
        [(63001, "a", 1), (63002, "b", 2), (63003, "c", 3)],
        reflectors={"a"})


def test_a_forwarding_loop_fails_instead_of_walking_forever(monkeypatch):
    fabric = _triangle()
    forward = dataplane.bridge_forward

    def flood_wire_arrivals_onto_wires(bridge, macs, frame, arrived_via, round_no, src_unicast):
        targets = list(forward(bridge, macs, frame, arrived_via, round_no, src_unicast))
        if isinstance(arrived_via, str):
            targets += [via for via in bridge.wires if via != arrived_via]
        return targets

    monkeypatch.setattr(dataplane, "bridge_forward", flood_wire_arrivals_onto_wires)
    frame = _frame(_mac(1), BROADCAST_MAC, EtherType.ARP, 64, "loop1")
    with pytest.raises(RuntimeError, match="loop1"):
        fabric.inject(63001, frame)
    with pytest.raises(RuntimeError, match="loop1"):
        fabric.clone().inject(63001, frame)


@pytest.mark.xfail(strict=True, reason="split horizon covers floods only: known unicast "
                                       "off a pseudo-wire can leave on another (ROADMAP item 7)")
def test_known_unicast_off_a_wire_stays_off_other_wires():
    fabric = _triangle()
    fabric.inject(63002, _frame(_mac(2), BROADCAST_MAC, EtherType.ARP, 64, "t1"))
    fabric.inject(63003, _frame(_mac(3), _mac(2), EtherType.IPV4, 100, "t2"))  # only b learns 3
    result = fabric.inject(63001, _frame(_mac(1), _mac(3), EtherType.IPV4, 100, "t3"))
    assert result.deliveries == [63003]
    assert result.pw_traversals == 2


def test_clone_isolates_probe_traffic():
    fabric = tiny_fabric(
        [("a", "b", 1)],
        [(63001, "a", 1), (63002, "b", 2)],
        reflectors={"a"})
    probe = fabric.clone()
    probe.inject(63001, _frame(_mac(1), BROADCAST_MAC, EtherType.ARP, 64, "p1"))
    assert fabric.trace == [] and fabric.drops == []
    assert fabric.macs["b"] == {}
    assert _mac(1) in probe.macs["b"]


def test_clone_shares_the_bridges_and_owns_its_mac_tables():
    fabric = tiny_fabric(
        [("a", "b", 1)],
        [(63001, "a", 1), (63002, "b", 2)],
        reflectors={"a"})
    fabric.inject(63002, _frame(_mac(2), BROADCAST_MAC, EtherType.ARP, 64, "t1"))
    learned = {pe: dict(table) for pe, table in fabric.macs.items()}
    assert all(learned.values())
    probe = fabric.clone()
    assert probe.bridges.keys() == fabric.bridges.keys()
    assert all(probe.bridges[pe] is bridge for pe, bridge in fabric.bridges.items())
    assert all(probe.macs[pe] is not table for pe, table in fabric.macs.items())
    assert probe.macs == learned
    probe.inject(63001, _frame(_mac(1), BROADCAST_MAC, EtherType.ARP, 64, "p1"))
    assert _mac(1) in probe.macs["b"]
    assert fabric.macs == learned


def test_port_lookups():
    fabric = tiny_fabric(
        [("a", "b", 1)],
        [(63001, "a", 1), (63002, "b", 2)],
        reflectors={"a"})
    assert sorted(fabric.ports) == [63001, 63002]
    port = fabric.ports[63002]
    assert fabric.port_with_ip(port.exchange_ip) == port
    assert fabric.port_with_ip(make_port(1, "a", 200).exchange_ip) is None


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_floods_never_loop_on_random_fabrics(seed):
    rng = random.Random(seed)
    sim = random_exchange(rng, rng.randint(1, 8))
    asn = rng.choice(sorted(sim.ports))
    port = sim.ports[asn]
    fabric = sim.fabric  # a probe clone records no trace rows to check
    frame = EthernetFrame(port.nominated_mac, BROADCAST_MAC, EtherType.ARP, 64, "p1")
    result = fabric.inject(asn, frame)
    assert result.accepted
    # each bridge at most once, each wire at most once, every member reached
    visited = _visited(fabric.trace, "p1")
    assert len(visited) == len(set(visited))
    receives = [(r.pe, r.via) for r in fabric.trace
                if r.trace_id == "p1" and r.action == "receive"]
    assert len(receives) == result.pw_traversals
    assert len(receives) == len(set(receives))
    others = sorted(a for a in sim.ports if a != asn)
    assert sorted(result.deliveries) == others


def _twin_exchanges(rng):
    """Two identical converged exchanges over one random topology whose
    links carry mixed MTUs, some ports starting in quarantine."""
    sim = random_exchange(rng, rng.randint(1, 7), quarantined=rng.randint(0, 3))
    links = tuple(dataclasses.replace(link, mtu=rng.choice([1580, 1600, 1700, 9000]))
                  for link in sim.topo.links)
    scenario = dataclasses.replace(
        sim.scenario, topology=dataclasses.replace(sim.topo, links=links))
    return converged(scenario), converged(scenario)


FRAME_STEPS = st.lists(st.tuples(
    st.integers(0, 99),  # sender, modulo the number of ports
    st.sampled_from([True, True, True, False]),  # own nominated MAC, or a stranger's
    st.sampled_from(["broadcast", "member", "reply", "reply", "unknown", "multicast"]),
    st.integers(0, 99),  # destination member, modulo the number of ports
    st.sampled_from(list(EtherType)),
    st.sampled_from([28, 100, 1500, 1554, 1555, 1574, 1575, 1580, 8000]),
    st.sampled_from([0, 0, 1, 150, DEFAULT_MAC_AGING_ROUNDS]),  # rounds before it
), min_size=2, max_size=30)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), steps=FRAME_STEPS)
def test_inject_matches_the_uncached_reference(seed, steps):
    """Every frame leaves the same trace rows, drops, result and MAC tables
    as the reference walk that caches nothing; a probe clone forwards the
    same way and logs drops but no rows."""
    sim, ref = _twin_exchanges(random.Random(seed))
    fabric, reference = sim.fabric, ref.fabric
    probe = fabric.clone()
    asns = sorted(sim.ports)
    round_no, last = 0, asns[0]
    for i, (who, own, dst, whom, ethertype, size, elapsed) in enumerate(steps):
        round_no += elapsed
        asn = asns[who % len(asns)]
        dst_mac = {"broadcast": BROADCAST_MAC,
                   "member": sim.ports[asns[whom % len(asns)]].nominated_mac,
                   "reply": sim.ports[last].nominated_mac,  # the previous sender
                   "unknown": "02:0b:ad:00:00:02",
                   "multicast": "01:00:5e:00:00:01"}[dst]
        src_mac = sim.ports[asn].nominated_mac if own else "02:0b:ad:00:00:01"
        frame = EthernetFrame(src_mac, dst_mac, ethertype, size, "f%d" % i)
        want = reference_inject(reference, asn, frame, round_no)
        assert fabric.inject(asn, frame, round_no) == want
        assert probe.inject(asn, frame, round_no) == want
        assert fabric.trace == reference.trace and probe.trace == []
        assert fabric.drops == reference.drops == probe.drops
        assert fabric.macs == reference.macs
        assert probe.macs == reference.macs
        last = asn
