"""Session graph, membership adverts, reflection and pseudo-wire derivation."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_topology, random_connected_topology
from ixsim.underlay import LabelAllocator, allocate_labels, compute_all_spf
from ixsim.vpls_signal import (
    IbgpKind,
    IbgpSession,
    NoReflectorError,
    VplsAdvert,
    build_session_graph,
    derive_pseudowires,
    originate_adverts,
    propagate,
)
from oracles import count_unordered_pairs, expected_ibgp_sessions


def _full_mesh_state(topo):
    alloc = LabelAllocator()
    table = allocate_labels(topo, compute_all_spf(topo), alloc)
    adverts = originate_adverts(topo.node_names(), alloc)
    sessions = build_session_graph(topo)
    received = propagate(adverts, sessions)
    return table, adverts, received


def test_two_reflectors_eight_nodes_gives_thirteen_sessions():
    names = ["pe%d" % i for i in range(1, 9)]
    topo = make_topology([], extra_nodes=names, reflectors={"pe1", "pe2"})
    sessions = build_session_graph(topo)
    assert len(sessions) == 13
    as_pairs = {(s.a, s.b) for s in sessions}
    assert as_pairs == expected_ibgp_sessions(names, ["pe1", "pe2"])


def test_client_sessions_know_their_reflector_side():
    topo = make_topology([("a", "b", 1), ("b", "c", 1)], reflectors={"b"})
    sessions = build_session_graph(topo)
    assert sessions == {
        IbgpSession("a", "b", IbgpKind.RR_CLIENT),
        IbgpSession("c", "b", IbgpKind.RR_CLIENT),
    }


def test_missing_reflector_raises():
    topo = make_topology([("a", "b", 1)])
    with pytest.raises(NoReflectorError):
        build_session_graph(topo)


def test_single_node_needs_no_sessions():
    topo = make_topology([], extra_nodes=["solo"])
    assert build_session_graph(topo) == set()


@settings(max_examples=50, deadline=None)
@given(p=st.integers(1, 12), data=st.data())
def test_session_count_formula(p, data):
    names = ["pe%02d" % i for i in range(1, p + 1)]
    r = data.draw(st.integers(0, p))
    reflectors = set(data.draw(st.permutations(names))[:r])
    topo = make_topology([], extra_nodes=names, reflectors=reflectors)
    if p >= 2 and r == 0:
        with pytest.raises(NoReflectorError):
            build_session_graph(topo)
        return
    sessions = build_session_graph(topo)
    assert len(sessions) == r * (p - r) + r * (r - 1) // 2
    assert {(s.a, s.b) for s in sessions} == expected_ibgp_sessions(names, reflectors)


def test_ve_ids_follow_name_order():
    adverts = originate_adverts(["kyle", "arisaig", "smo"])
    assert adverts["arisaig"].ve_id == 1
    assert adverts["kyle"].ve_id == 2
    assert adverts["smo"].ve_id == 3
    for ad in adverts.values():
        assert ad.block_offset == 1
        assert ad.block_size == 3


def test_label_blocks_continue_after_transport_labels():
    topo = make_topology([("a", "b", 1), ("b", "c", 1)], reflectors={"a"})
    alloc = LabelAllocator()
    allocate_labels(topo, compute_all_spf(topo), alloc)
    adverts = originate_adverts(topo.node_names(), alloc)
    # three transport bindings per node used 16..18; blocks start at 19
    assert all(ad.label_base == 19 for ad in adverts.values())
    # the whole block is reserved, not just its first value
    assert alloc.take("a") == 19 + 3


def test_label_for_covers_exactly_the_block():
    ad = VplsAdvert("pe", ve_id=2, label_base=24, block_offset=1, block_size=8)
    assert ad.label_for(1) == 24
    assert ad.label_for(8) == 31
    with pytest.raises(ValueError):
        ad.label_for(0)
    with pytest.raises(ValueError):
        ad.label_for(9)


def test_everyone_receives_everyone_else():
    topo = make_topology([("a", "b", 1), ("b", "c", 1), ("c", "d", 1)],
                         reflectors={"a", "c"})
    adverts = originate_adverts(topo.node_names())
    received = propagate(adverts, build_session_graph(topo))
    for pe in topo.node_names():
        expect = {adverts[other] for other in topo.node_names() if other != pe}
        assert received[pe] == expect


def test_reflectors_do_not_relay_peer_learned_state():
    # r1 - r2 - r3 in a line (no full reflector mesh), one client at r1
    adverts = originate_adverts(["c", "r1", "r2", "r3"])
    sessions = {
        IbgpSession("c", "r1", IbgpKind.RR_CLIENT),
        IbgpSession("r1", "r2", IbgpKind.RR_TO_RR),
        IbgpSession("r2", "r3", IbgpKind.RR_TO_RR),
    }
    received = propagate(adverts, sessions)
    assert received["c"] == {adverts["r1"], adverts["r2"]}
    assert received["r1"] == {adverts["c"], adverts["r2"]}
    assert received["r2"] == {adverts["c"], adverts["r1"], adverts["r3"]}
    assert received["r3"] == {adverts["r2"]}


def test_partial_visibility_limits_the_mesh():
    topo = make_topology([("c", "r1", 1), ("r1", "r2", 1), ("r2", "r3", 1)],
                         reflectors={"r1", "r2", "r3"})
    table = allocate_labels(topo, compute_all_spf(topo))
    adverts = originate_adverts(topo.node_names())
    sessions = {
        IbgpSession("c", "r1", IbgpKind.RR_CLIENT),
        IbgpSession("r1", "r2", IbgpKind.RR_TO_RR),
        IbgpSession("r2", "r3", IbgpKind.RR_TO_RR),
    }
    wires, missing = derive_pseudowires(propagate(adverts, sessions), table)
    assert missing == ()
    assert {(w.pe_a, w.pe_b) for w in wires} == {
        ("c", "r1"), ("c", "r2"), ("r1", "r2"), ("r2", "r3")}


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 12))
def test_connected_topology_builds_a_full_mesh(seed, n):
    rng = random.Random(seed)
    topo = random_connected_topology(rng, n)
    table, adverts, received = _full_mesh_state(topo)
    wires, missing = derive_pseudowires(received, table)
    assert missing == ()
    assert len(wires) == count_unordered_pairs(topo.node_names())
    assert {(w.pe_a, w.pe_b) for w in wires} == {
        (a, b)
        for a in topo.node_names() for b in topo.node_names() if a < b}


def test_partitioned_mesh_reports_missing_transport():
    # membership still floods (signalling rides its own sessions), but the
    # cross-partition wires cannot resolve a transport path
    topo = make_topology(
        [("a", "b", 1), ("b", "c", 1), ("c", "d", 1), ("d", "e", 1),
         ("f", "g", 1), ("g", "h", 1)],
        reflectors={"a"})
    table, adverts, received = _full_mesh_state(topo)
    for pe in topo.node_names():
        assert len(received[pe]) == 7
    wires, missing = derive_pseudowires(received, table)
    assert len(wires) == count_unordered_pairs("abcde") + count_unordered_pairs("fgh")
    assert len(missing) == 5 * 3
    assert all((a in "abcde") != (b in "abcde") for a, b in missing)


def test_directional_labels_come_from_the_receiving_block():
    topo = make_topology([("a", "b", 1), ("b", "c", 1)], reflectors={"a"})
    table, adverts, received = _full_mesh_state(topo)
    wires, _ = derive_pseudowires(received, table)
    by_pair = {(w.pe_a, w.pe_b): w for w in wires}
    ab = by_pair[("a", "b")]
    # traffic a->b arrives with b's block label for sender VE 1
    assert ab.label_a_to_b == adverts["b"].label_for(adverts["a"].ve_id)
    assert ab.label_b_to_a == adverts["a"].label_for(adverts["b"].ve_id)
    assert ab.other("a") == "b" and ab.other("b") == "a"
    assert ab.transport_from("a").src == "a"
    assert ab.transport_from("b").src == "b"
    assert ab.label_from("a") == ab.label_a_to_b
    with pytest.raises(ValueError):
        ab.other("c")


def test_propagate_is_idempotent_and_deterministic():
    topo = make_topology([("a", "b", 1), ("b", "c", 1), ("c", "d", 1)],
                         reflectors={"b", "c"})
    adverts = originate_adverts(topo.node_names())
    sessions = build_session_graph(topo)
    assert propagate(adverts, sessions) == propagate(adverts, sessions)
