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
    NoReflectorError,
    build_session_graph,
    derive_pseudowires,
    originate_adverts,
    propagate,
    pseudowire_mesh,
)
from oracles import (
    count_unordered_pairs,
    expected_ibgp_sessions,
    mutually_visible_pairs,
    reference_propagate,
)


def _full_mesh_state(topo):
    table = allocate_labels(compute_all_spf(topo))
    adverts = originate_adverts(topo.node_names())
    return table, propagate(adverts, build_session_graph(topo))


def test_two_reflectors_eight_nodes_gives_thirteen_sessions():
    names = ["pe%d" % i for i in range(1, 9)]
    topo = make_topology([], extra_nodes=names, reflectors={"pe1", "pe2"})
    sessions = build_session_graph(topo)
    assert len(sessions) == 13
    assert sessions == expected_ibgp_sessions(names, ["pe1", "pe2"])


def test_client_sessions_know_their_reflector_side():
    topo = make_topology([("a", "b", 1), ("b", "c", 1)], reflectors={"b"})
    sessions = build_session_graph(topo)
    assert sessions == {("a", "b"), ("c", "b")}


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
    assert sessions == expected_ibgp_sessions(names, reflectors)


def test_ve_ids_follow_name_order():
    assert originate_adverts(["kyle", "arisaig", "smo"]) == {
        "arisaig": 1, "kyle": 2, "smo": 3}


def test_label_blocks_continue_after_transport_labels():
    # c is cut off, yet every wire's labels still lie above the P labels
    # one transport label per loopback would take
    topo = make_topology([("a", "b", 1)], extra_nodes=["c"], reflectors={"a"})
    mesh = pseudowire_mesh(originate_adverts(topo.node_names()))
    assert {(w.pe_a, w.pe_b): (w.label_a_to_b, w.label_b_to_a) for w in mesh} == {
        ("a", "b"): (19, 20), ("a", "c"): (19, 21), ("b", "c"): (20, 21)}


@settings(max_examples=60, deadline=None)
@given(names=st.lists(st.text("abcxyz019._-", min_size=1, max_size=6),
                      min_size=1, max_size=25, unique=True))
def test_wire_labels_follow_the_sender_rank(names):
    """A wire a<b carries FIRST_FREE_LABEL + P + rank(a) - 1 toward b and
    FIRST_FREE_LABEL + P + rank(b) - 1 toward a, ranks 1-based in name
    order; so each receiver expects P-1 distinct labels from its P-1
    senders, all in [16+P, 16+2P-1]."""
    p = len(names)
    rank = {name: i for i, name in enumerate(sorted(names), start=1)}
    mesh = pseudowire_mesh(originate_adverts(names))
    assert [(w.pe_a, w.pe_b) for w in mesh] == [
        (a, b) for a in sorted(names) for b in sorted(names) if a < b]
    expected = {name: [] for name in names}
    for w in mesh:
        assert w.label_a_to_b == FIRST_FREE_LABEL + p + rank[w.pe_a] - 1
        assert w.label_b_to_a == FIRST_FREE_LABEL + p + rank[w.pe_b] - 1
        expected[w.pe_b].append(w.label_a_to_b)
        expected[w.pe_a].append(w.label_b_to_a)
    for labels in expected.values():
        assert len(set(labels)) == len(labels) == p - 1
        assert all(16 + p <= label <= 16 + 2 * p - 1 for label in labels)


def test_everyone_receives_everyone_else():
    topo = make_topology([("a", "b", 1), ("b", "c", 1), ("c", "d", 1)],
                         reflectors={"a", "c"})
    adverts = originate_adverts(topo.node_names())
    held = propagate(adverts, build_session_graph(topo))
    assert held == {"a": 1, "b": 2, "c": 3, "d": 4}
    received = reference_propagate("abcd", build_session_graph(topo), {"a", "c"})
    for pe in "abcd":
        assert received[pe] == set("abcd") - {pe}


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
    table = allocate_labels(compute_all_spf(topo))
    sessions = build_session_graph(topo)
    received = reference_propagate(names, sessions, reflectors)
    for pe in names:
        assert received[pe] == set(names) - {pe}
    adverts = propagate(originate_adverts(names), sessions)
    wires, missing = derive_pseudowires(pseudowire_mesh(adverts), table)
    assert missing == ()
    assert {(w.pe_a, w.pe_b) for w in wires} == mutually_visible_pairs(received)


def test_reflectors_do_not_relay_peer_learned_state():
    # r1 - r2 - r3 in a line (no full reflector mesh), one client at r1
    sessions = {("c", "r1"), ("r1", "r2"), ("r2", "r3")}
    received = reference_propagate(["c", "r1", "r2", "r3"], sessions, {"r1", "r2", "r3"})
    assert received == {"c": {"r1", "r2"}, "r1": {"c", "r2"},
                        "r2": {"c", "r1", "r3"}, "r3": {"r2"}}


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 12))
def test_connected_topology_builds_a_full_mesh(seed, n):
    rng = random.Random(seed)
    topo = random_connected_topology(rng, n)
    table, adverts = _full_mesh_state(topo)
    wires, missing = derive_pseudowires(pseudowire_mesh(adverts), table)
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
    received = reference_propagate(topo.node_names(), build_session_graph(topo), {"a"})
    for pe in topo.node_names():
        assert len(received[pe]) == 7
    wires, missing = derive_pseudowires(pseudowire_mesh(adverts), table)
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
    wires, missing = derive_pseudowires(pseudowire_mesh(adverts), table)
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
    wires, _ = derive_pseudowires(pseudowire_mesh(adverts), table)
    by_pair = {(w.pe_a, w.pe_b): w for w in wires}
    ab = by_pair[("a", "b")]
    # traffic a->b arrives with b's block label for sender VE 1: 16 + 3 + 1 - 1
    assert (ab.label_a_to_b, ab.label_b_to_a) == (19, 20)
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
