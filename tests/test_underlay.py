"""Shortest-path trees, next-hop tables and LSP stitching."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import converged, make_exchange, make_topology, random_connected_topology
from ixsim.model import LinkState, UnknownNodeError
from ixsim.scenario import Event, EventKind
from ixsim.underlay import (
    allocate_labels,
    compute_all_spf,
    rerun_stale_spf,
    resolve_lsp,
)
from oracles import all_pairs_distances


def _lsp_links(topo, src, dst):
    return resolve_lsp(allocate_labels(compute_all_spf(topo)), src, dst)


def test_triangle_prefers_two_hop_path():
    topo = make_topology([("a", "b", 1), ("b", "c", 1), ("a", "c", 3)],
                         reflectors={"a"})
    tree = compute_all_spf(topo)["a"]
    assert tree.dist == {"a": 0, "b": 1, "c": 2}
    assert tree.first_hop["c"] == ("b", 0)
    assert _lsp_links(topo, "a", "c") == (0, 1)


def test_equal_cost_tie_prefers_smaller_predecessor_name():
    topo = make_topology(
        [("a", "b", 1), ("a", "c", 1), ("b", "d", 1), ("c", "d", 1)],
        reflectors={"a"})
    tree = compute_all_spf(topo)["a"]
    assert tree.dist["d"] == 2
    assert tree.first_hop["d"] == ("b", 0)
    assert _lsp_links(topo, "a", "d") == (0, 2)
    # c is settled first and offers d at cost 3; b ties later and still wins
    topo = make_topology(
        [("a", "b", 2), ("a", "c", 1), ("b", "d", 1), ("c", "d", 2)],
        reflectors={"a"})
    tree = compute_all_spf(topo)["a"]
    assert tree.dist["d"] == 3
    assert tree.first_hop["d"] == ("b", 0)
    assert _lsp_links(topo, "a", "d") == (0, 2)


def test_parallel_links_tie_prefers_lower_index():
    topo = make_topology([("a", "b", 1), ("a", "b", 1)], reflectors={"a"})
    tree = compute_all_spf(topo)["a"]
    assert tree.first_hop["b"] == ("b", 0)
    assert _lsp_links(topo, "a", "b") == (0,)
    assert _lsp_links(topo, "b", "a") == (0,)


def test_down_links_are_ignored():
    topo = make_topology([("a", "b", 1), ("a", "b", 5)], reflectors={"a"})
    topo = topo.with_link_state(0, LinkState.DOWN)
    tree = compute_all_spf(topo)["a"]
    assert tree.dist["b"] == 5
    assert tree.first_hop["b"] == ("b", 1)
    assert _lsp_links(topo, "a", "b") == (1,)


def test_unreachable_node_missing_from_tree():
    topo = make_topology([("a", "b", 1)], extra_nodes=["z"], reflectors={"a"})
    tree = compute_all_spf(topo)["a"]
    assert "z" not in tree.dist
    assert "z" not in tree.first_hop


def test_unknown_source_rejected():
    topo = make_topology([("a", "b", 1)], reflectors={"a"})
    with pytest.raises(UnknownNodeError):
        topo.node("ghost")


def test_path_to_source_is_empty():
    # the source needs no hop to reach itself, so it has no first hop
    topo = make_topology([("a", "b", 1)], reflectors={"a"})
    tree = compute_all_spf(topo)["a"]
    assert tree.dist["a"] == 0
    assert tree.first_hop == {"b": ("b", 0)}


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 10))
def test_spf_distances_match_floyd_warshall(seed, n):
    rng = random.Random(seed)
    topo = random_connected_topology(rng, n)
    for i in range(len(topo.links)):
        if rng.random() < 0.25:
            topo = topo.with_link_state(i, LinkState.DOWN)
    oracle = all_pairs_distances(topo)
    trees = compute_all_spf(topo)
    for src in topo.node_names():
        tree = trees[src]
        for dst in topo.node_names():
            expect = oracle[(src, dst)]
            if expect is math.inf:
                assert dst not in tree.dist
            else:
                assert tree.dist[dst] == expect


def _tie_heavy_topology(rng, n, costs=(1, 2)):
    """Small ``costs`` so equal-cost paths abound; some node pairs get
    parallel links, and about a fifth of all links are down, which may
    partition."""
    names = ["pe%02d" % i for i in range(1, n + 1)]
    edges = []
    for i in range(1, n):
        edges.append((names[i], names[rng.randrange(i)], rng.choice(costs)))
    for _ in range(rng.randint(0, 2 * n)):
        a, b = rng.sample(names, 2)
        edges.append((a, b, rng.choice(costs)))
    for _ in range(rng.randint(0, 3)):
        a, b, _ = rng.choice(edges)
        edges.append((a, b, rng.choice(costs)))
    topo = make_topology(edges, reflectors={names[0]})
    for i in range(len(topo.links)):
        if rng.random() < 0.2:
            topo = topo.with_link_state(i, LinkState.DOWN)
    return topo


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 9))
def test_lsps_are_shortest_paths_under_ties(seed, n):
    """Following the next hops node by node lands on a shortest path.

    Each node's next hop is its own tree's first hop, so every step of the
    walk must be a link on one of that node's shortest paths, ties
    included.
    """
    rng = random.Random(seed)
    topo = _tie_heavy_topology(rng, n)
    table = allocate_labels(compute_all_spf(topo))
    oracle = all_pairs_distances(topo)
    for src in topo.node_names():
        for dst in topo.node_names():
            if src == dst:
                continue
            links = resolve_lsp(table, src, dst)
            if oracle[(src, dst)] is math.inf:
                assert links is None
                continue
            assert links is not None
            node, cost = src, 0
            for index in links:
                nxt, row_link = table[node][dst]
                assert row_link == index
                link = topo.links[index]
                assert link.state is LinkState.UP
                assert {node, nxt} == {link.a, link.b}
                cost += link.cost
                node = nxt
            assert node == dst
            assert cost == oracle[(src, dst)]


def _flip(topo, indices, state):
    """Set the ``indices`` links to ``state``, rerun the trees that makes
    stale and merge the reruns into the old trees.  Checks the merged
    trees against compute_all_spf on the new topology and their next-hop
    table against a fresh allocation; returns the old trees and the
    reruns."""
    trees = compute_all_spf(topo)
    for i in indices:
        assert topo.links[i].state is not state
        topo = topo.with_link_state(i, state)
    fresh = rerun_stale_spf(topo, trees, indices)
    merged = {**trees, **fresh}
    assert merged == compute_all_spf(topo)
    assert allocate_labels(merged) == allocate_labels(compute_all_spf(topo))
    return topo, trees, fresh


def test_down_link_no_tree_uses_leaves_every_tree():
    edges = [("a", "b", 1), ("b", "c", 1), ("a", "c", 5)]
    topo = make_topology(edges, reflectors={"a"})
    assert all(hop[1] != 2 for tree in compute_all_spf(topo).values()
               for hop in tree.first_hop.values())
    _, _, fresh = _flip(topo, [2], LinkState.DOWN)
    assert fresh == {}
    # the engine keeps the very same tree objects
    sim = converged(make_exchange(edges, [(64496, "a")], reflectors={"a"}))
    before = dict(sim.trees)
    sim.apply_event(Event(1, EventKind.LINK_DOWN, ("c", "a")))
    assert all(sim.trees[name] is tree for name, tree in before.items())


def test_up_link_that_ties_and_wins_the_tie_break_is_rerun():
    # d is reached from a over c; bringing b-d up offers the same cost 2
    # through b, whose smaller name takes the tie
    topo = make_topology(
        [("a", "b", 1), ("a", "c", 1), ("b", "d", 1), ("c", "d", 1)], reflectors={"a"})
    topo = topo.with_link_state(2, LinkState.DOWN)
    old = compute_all_spf(topo)["a"]
    assert old.dist["b"] + 1 == old.dist["d"] == 2
    assert old.first_hop["d"] == ("c", 1)
    topo, _, fresh = _flip(topo, [2], LinkState.UP)
    assert fresh["a"].dist == old.dist
    assert fresh["a"].first_hop["d"] == ("b", 0)
    assert _lsp_links(topo, "a", "d") == (0, 2)


def test_up_link_with_slack_both_ways_reruns_nothing():
    topo = make_topology([("a", "b", 1), ("b", "c", 1), ("a", "c", 5)], reflectors={"a"})
    topo = topo.with_link_state(2, LinkState.DOWN)
    _, _, fresh = _flip(topo, [2], LinkState.UP)
    assert fresh == {}


def test_parallel_links_flap_together():
    topo = make_topology(
        [("a", "b", 1), ("a", "b", 1), ("b", "c", 1), ("a", "c", 1)], reflectors={"a"})
    pair = topo.links_between("b", "a")
    assert pair == [0, 1]
    topo, trees, fresh = _flip(topo, pair, LinkState.DOWN)
    assert trees["a"].first_hop["b"] == ("b", 0)
    assert set(fresh) == {"a", "b"}  # c reaches both over its own links
    assert fresh["a"].first_hop["b"] == ("c", 3)
    topo, _, fresh = _flip(topo, pair, LinkState.UP)
    assert set(fresh) == {"a", "b"}
    assert fresh["a"].first_hop["b"] == ("b", 0)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 9))
def test_repaired_trees_match_a_rerun(seed, n):
    """Random flips with costs 1-3, so ties are common.  Each flip sets
    every link between two nodes to one state, as a link event does, so
    parallel pairs flap together; partitions and heals come up as they
    fall.  After each, the kept trees merged with the repaired ones equal
    a rerun, parents included.  Only trees that change are repaired, so
    every other tree stays the same object; a repaired tree shares no dict
    with its predecessor, and the next-hop table of the old trees, which
    the old fabric forwards on, does not change."""
    rng = random.Random(seed)
    topo = _tie_heavy_topology(rng, n, costs=(1, 2, 3))
    trees = compute_all_spf(topo)
    for _ in range(16):
        state = rng.choice((LinkState.DOWN, LinkState.UP))
        pair = topo.links_between(*rng.choice(topo.links).endpoints)
        flapped = [i for i in pair if topo.links[i].state is not state]
        for i in flapped:
            topo = topo.with_link_state(i, state)
        table = allocate_labels(trees)
        hops_before = {node: dict(hops) for node, hops in table.items()}
        fresh = rerun_stale_spf(topo, trees, flapped)
        rerun = compute_all_spf(topo)
        merged = {**trees, **fresh}
        assert merged == rerun  # parents included
        assert set(fresh) == {name for name in trees if trees[name] != rerun[name]}
        for name, tree in fresh.items():
            old = trees[name]
            new_dicts = (tree.dist, tree.first_hop, tree.parent)
            assert not any(d is o for d in new_dicts
                           for o in (old.dist, old.first_hop, old.parent))
        assert table == hops_before
        assert all(table[name] is tree.first_hop for name, tree in trees.items())
        trees = merged


def test_flaps_that_go_both_ways_are_refused():
    topo = make_topology([("a", "b", 1), ("b", "c", 1)], reflectors={"a"})
    trees = compute_all_spf(topo)
    topo = topo.with_link_state(0, LinkState.DOWN)
    with pytest.raises(ValueError):
        rerun_stale_spf(topo, trees, [0, 1])


def test_two_node_bindings_and_penultimate_hop_pop():
    # one next hop per other node, none at a node's own loopback; each
    # hop's neighbour is the destination, where a label would already be
    # popped
    topo = make_topology([("a", "b", 1)], reflectors={"a"})
    table = allocate_labels(compute_all_spf(topo))
    assert table == {"a": {"b": ("b", 0)}, "b": {"a": ("a", 0)}}


def test_three_node_chain_swaps_then_pops():
    topo = make_topology([("a", "b", 1), ("b", "c", 1)], reflectors={"a"})
    table = allocate_labels(compute_all_spf(topo))
    assert table["a"]["c"] == ("b", 0)
    assert table["b"]["c"] == ("c", 1)
    assert resolve_lsp(table, "a", "c") == (0, 1)


def test_partition_leaves_no_binding_and_no_lsp():
    topo = make_topology([("a", "b", 1)], extra_nodes=["z"], reflectors={"a"})
    table = allocate_labels(compute_all_spf(topo))
    assert "z" not in table["a"]
    assert table["z"] == {}
    assert resolve_lsp(table, "a", "z") is None


def test_lsp_needs_distinct_endpoints():
    topo = make_topology([("a", "b", 1)], reflectors={"a"})
    table = allocate_labels(compute_all_spf(topo))
    with pytest.raises(ValueError):
        resolve_lsp(table, "a", "a")


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 9))
def test_lsp_labels_chain_through_downstream_bindings(seed, n):
    rng = random.Random(seed)
    topo = random_connected_topology(rng, n)
    table = allocate_labels(compute_all_spf(topo))
    for src in topo.node_names():
        for dst in topo.node_names():
            if src == dst:
                continue
            links = resolve_lsp(table, src, dst)
            assert links is not None  # topology is connected
            node = src
            for index in links:
                nxt, row_link = table[node][dst]
                assert row_link == index
                link = topo.links[index]
                assert {node, nxt} == {link.a, link.b}
                node = nxt
            assert node == dst


def test_results_are_repeatable():
    rng = random.Random(20)
    topo = random_connected_topology(rng, 8)
    first = allocate_labels(compute_all_spf(topo))
    second = allocate_labels(compute_all_spf(topo))
    assert first == second
    assert compute_all_spf(topo)["pe01"].first_hop == compute_all_spf(topo)["pe01"].first_hop
