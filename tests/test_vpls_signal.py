"""Session graph, membership adverts, reflection and pseudo-wire derivation."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_topology, random_connected_topology
from ixsim.model import LinkState
from ixsim.underlay import FIRST_FREE_LABEL, allocate_labels, compute_all_spf, resolve_lsp
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
from oracles import (
    count_unordered_pairs,
    expected_ibgp_sessions,
    mutually_visible_pairs,
    reference_propagate,
)


def _full_mesh_state(topo):
    table = allocate_labels(topo, compute_all_spf(topo))
    adverts = originate_adverts(topo.node_names())
    return table, propagate(adverts, build_session_graph(topo))


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
    # c is cut off, yet every node's block still starts above the P labels
    # one transport label per loopback would take
    topo = make_topology([("a", "b", 1)], extra_nodes=["c"], reflectors={"a"})
    adverts = originate_adverts(topo.node_names())
    assert all(ad.label_base == FIRST_FREE_LABEL + 3 for ad in adverts.values())


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
    held = propagate(adverts, build_session_graph(topo))
    assert held == adverts
    received = reference_propagate(adverts, build_session_graph(topo))
    for pe in topo.node_names():
        assert received[pe] == {ad for other, ad in held.items() if other != pe}


@settings(max_examples=60, deadline=None)
@given(p=st.integers(1, 25), data=st.data())
def test_closed_form_matches_reflection_fixpoint(p, data):
    names = ["pe%02d" % i for i in range(1, p + 1)]
    flags = data.draw(st.lists(st.booleans(), min_size=p, max_size=p))
    reflectors = {name for name, flag in zip(names, flags) if flag}
    if p >= 2 and not reflectors:
        reflectors = {data.draw(st.sampled_from(names))}
    topo = make_topology([(a, b) for a, b in zip(names, names[1:])],
                         extra_nodes=names, reflectors=reflectors)
    table = allocate_labels(topo, compute_all_spf(topo))
    adverts = originate_adverts(names)
    sessions = build_session_graph(topo)
    received = reference_propagate(adverts, sessions)
    for pe in names:
        assert received[pe] == {ad for other, ad in adverts.items() if other != pe}
    wires, missing = derive_pseudowires(propagate(adverts, sessions), table)
    assert missing == ()
    assert {(w.pe_a, w.pe_b) for w in wires} == mutually_visible_pairs(received)


def test_reflectors_do_not_relay_peer_learned_state():
    # r1 - r2 - r3 in a line (no full reflector mesh), one client at r1
    adverts = originate_adverts(["c", "r1", "r2", "r3"])
    sessions = {
        IbgpSession("c", "r1", IbgpKind.RR_CLIENT),
        IbgpSession("r1", "r2", IbgpKind.RR_TO_RR),
        IbgpSession("r2", "r3", IbgpKind.RR_TO_RR),
    }
    received = reference_propagate(adverts, sessions)
    assert received["c"] == {adverts["r1"], adverts["r2"]}
    assert received["r1"] == {adverts["c"], adverts["r2"]}
    assert received["r2"] == {adverts["c"], adverts["r1"], adverts["r3"]}
    assert received["r3"] == {adverts["r2"]}


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 12))
def test_connected_topology_builds_a_full_mesh(seed, n):
    rng = random.Random(seed)
    topo = random_connected_topology(rng, n)
    table, adverts = _full_mesh_state(topo)
    wires, missing = derive_pseudowires(adverts, table)
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
    table, adverts = _full_mesh_state(topo)
    received = reference_propagate(adverts, build_session_graph(topo))
    for pe in topo.node_names():
        assert len(received[pe]) == 7
    wires, missing = derive_pseudowires(adverts, table)
    assert len(wires) == count_unordered_pairs("abcde") + count_unordered_pairs("fgh")
    assert len(missing) == 5 * 3
    assert all((a in "abcde") != (b in "abcde") for a, b in missing)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 10),
       down_share=st.sampled_from((0.0, 0.3, 0.7)))
def test_missing_pairs_are_exactly_the_unresolvable_ones(seed, n, down_share):
    """Wires keep labels only, so ``derive_pseudowires`` decides missing
    transport from the next-hop rows; that must agree with ``resolve_lsp`` in
    both directions, and each wire's transport must be the LSP itself."""
    rng = random.Random(seed)
    topo = random_connected_topology(rng, n)
    for i in range(len(topo.links)):
        if rng.random() < down_share:
            topo = topo.with_link_state(i, LinkState.DOWN)
    table, adverts = _full_mesh_state(topo)
    wires, missing = derive_pseudowires(adverts, table)
    names = topo.node_names()
    unresolvable = {
        (a, b) for a in names for b in names if a < b
        and (resolve_lsp(table, a, b) is None or resolve_lsp(table, b, a) is None)}
    assert set(missing) == unresolvable
    assert {(w.pe_a, w.pe_b) for w in wires} == {
        (a, b) for a in names for b in names if a < b} - unresolvable
    for wire in wires:
        for pe in (wire.pe_a, wire.pe_b):
            path = wire.transport_from(pe, table)
            assert path is not None
            assert path == resolve_lsp(table, pe, wire.other(pe))


def test_directional_labels_come_from_the_receiving_block():
    topo = make_topology([("a", "b", 1), ("b", "c", 1)], reflectors={"a"})
    table, adverts = _full_mesh_state(topo)
    wires, _ = derive_pseudowires(adverts, table)
    by_pair = {(w.pe_a, w.pe_b): w for w in wires}
    ab = by_pair[("a", "b")]
    # traffic a->b arrives with b's block label for sender VE 1
    assert ab.label_a_to_b == adverts["b"].label_for(adverts["a"].ve_id)
    assert ab.label_b_to_a == adverts["a"].label_for(adverts["b"].ve_id)
    assert ab.other("a") == "b" and ab.other("b") == "a"
    assert ab.transport_from("a", table) == resolve_lsp(table, "a", "b")
    assert ab.transport_from("b", table) == resolve_lsp(table, "b", "a")
    assert ab.transport_from("a", table) == (0,)
    with pytest.raises(ValueError):
        ab.other("c")


def test_propagate_is_idempotent_and_deterministic():
    topo = make_topology([("a", "b", 1), ("b", "c", 1), ("c", "d", 1)],
                         reflectors={"b", "c"})
    adverts = originate_adverts(topo.node_names())
    sessions = build_session_graph(topo)
    assert propagate(adverts, sessions) == propagate(adverts, sessions)
