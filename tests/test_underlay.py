"""Shortest-path trees, label allocation and LSP stitching."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_topology, random_connected_topology
from ixsim.model import LinkState, UnknownNodeError
from ixsim.underlay import (
    FIRST_FREE_LABEL,
    IMPLICIT_NULL,
    LOCAL,
    LabelAllocator,
    LspHop,
    allocate_labels,
    compute_all_spf,
    compute_spf,
    resolve_lsp,
)
from oracles import all_pairs_distances


def _lsp_links(topo, src, dst):
    lsp = resolve_lsp(allocate_labels(topo, compute_all_spf(topo)), src, dst)
    return lsp.link_indices()


def test_triangle_prefers_two_hop_path():
    topo = make_topology([("a", "b", 1), ("b", "c", 1), ("a", "c", 3)],
                         reflectors={"a"})
    tree = compute_spf(topo, "a")
    assert tree.dist == {"a": 0, "b": 1, "c": 2}
    assert tree.first_hop["c"] == ("b", 0)
    assert _lsp_links(topo, "a", "c") == (0, 1)


def test_equal_cost_tie_prefers_smaller_predecessor_name():
    topo = make_topology(
        [("a", "b", 1), ("a", "c", 1), ("b", "d", 1), ("c", "d", 1)],
        reflectors={"a"})
    tree = compute_spf(topo, "a")
    assert tree.dist["d"] == 2
    assert tree.first_hop["d"] == ("b", 0)
    assert _lsp_links(topo, "a", "d") == (0, 2)
    # c is settled first and offers d at cost 3; b ties later and still wins
    topo = make_topology(
        [("a", "b", 2), ("a", "c", 1), ("b", "d", 1), ("c", "d", 2)],
        reflectors={"a"})
    tree = compute_spf(topo, "a")
    assert tree.dist["d"] == 3
    assert tree.first_hop["d"] == ("b", 0)
    assert _lsp_links(topo, "a", "d") == (0, 2)


def test_parallel_links_tie_prefers_lower_index():
    topo = make_topology([("a", "b", 1), ("a", "b", 1)], reflectors={"a"})
    tree = compute_spf(topo, "a")
    assert tree.first_hop["b"] == ("b", 0)
    assert _lsp_links(topo, "a", "b") == (0,)
    assert _lsp_links(topo, "b", "a") == (0,)


def test_down_links_are_ignored():
    topo = make_topology([("a", "b", 1), ("a", "b", 5)], reflectors={"a"})
    topo = topo.with_link_state(0, LinkState.DOWN)
    tree = compute_spf(topo, "a")
    assert tree.dist["b"] == 5
    assert tree.first_hop["b"] == ("b", 1)
    assert _lsp_links(topo, "a", "b") == (1,)


def test_unreachable_node_missing_from_tree():
    topo = make_topology([("a", "b", 1)], extra_nodes=["z"], reflectors={"a"})
    tree = compute_spf(topo, "a")
    assert "z" not in tree.dist
    assert "z" not in tree.first_hop


def test_unknown_source_rejected():
    topo = make_topology([("a", "b", 1)], reflectors={"a"})
    with pytest.raises(UnknownNodeError):
        compute_spf(topo, "ghost")


def test_path_to_source_is_empty():
    # the source needs no hop to reach itself, so it has no first hop
    topo = make_topology([("a", "b", 1)], reflectors={"a"})
    tree = compute_spf(topo, "a")
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
    for src in topo.node_names():
        tree = compute_spf(topo, src)
        for dst in topo.node_names():
            expect = oracle[(src, dst)]
            if expect is math.inf:
                assert dst not in tree.dist
            else:
                assert tree.dist[dst] == expect


def _tie_heavy_topology(rng, n):
    """Costs 1 or 2 so equal-cost paths abound; some node pairs get parallel
    links, and about a fifth of all links are down, which may partition."""
    names = ["pe%02d" % i for i in range(1, n + 1)]
    edges = []
    for i in range(1, n):
        edges.append((names[i], names[rng.randrange(i)], rng.choice((1, 2))))
    for _ in range(rng.randint(0, 2 * n)):
        a, b = rng.sample(names, 2)
        edges.append((a, b, rng.choice((1, 2))))
    for _ in range(rng.randint(0, 3)):
        a, b, _ = rng.choice(edges)
        edges.append((a, b, rng.choice((1, 2))))
    topo = make_topology(edges, reflectors={names[0]})
    for i in range(len(topo.links)):
        if rng.random() < 0.2:
            topo = topo.with_link_state(i, LinkState.DOWN)
    return topo


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 9))
def test_lsps_are_shortest_paths_under_ties(seed, n):
    """Following the bindings hop by hop lands on a shortest path.

    Each node points its binding at its own tree's first hop, so every
    step of the walk must be a link on one of that node's shortest paths,
    ties included, and the labels must chain from binding to binding.
    """
    rng = random.Random(seed)
    topo = _tie_heavy_topology(rng, n)
    table = allocate_labels(topo, compute_all_spf(topo))
    oracle = all_pairs_distances(topo)
    for src in topo.node_names():
        for dst in topo.node_names():
            if src == dst:
                continue
            lsp = resolve_lsp(table, src, dst)
            if oracle[(src, dst)] is math.inf:
                assert lsp is None
                continue
            assert lsp is not None and (lsp.src, lsp.dst) == (src, dst)
            nodes = [h.node for h in lsp.hops] + [dst]
            assert nodes[0] == src
            cost = 0
            for hop, nxt in zip(lsp.hops, nodes[1:]):
                link = topo.links[hop.link]
                assert link.state is LinkState.UP
                assert {hop.node, nxt} == {link.a, link.b}
                cost += link.cost
                if nxt == dst:
                    assert hop.out_label == IMPLICIT_NULL
                else:
                    assert hop.out_label == table[(nxt, dst)].in_label
            assert cost == oracle[(src, dst)]


def test_allocator_counts_per_node_independently():
    alloc = LabelAllocator()
    assert alloc.take("x") == FIRST_FREE_LABEL
    assert alloc.take("x") == FIRST_FREE_LABEL + 1
    assert alloc.take("y") == FIRST_FREE_LABEL


def test_two_node_bindings_and_penultimate_hop_pop():
    topo = make_topology([("a", "b", 1)], reflectors={"a"})
    table = allocate_labels(topo, compute_all_spf(topo))
    local = table[("a", "a")]
    assert (local.in_label, local.out_label, local.out_neighbor) == (16, IMPLICIT_NULL, LOCAL)
    toward_b = table[("a", "b")]
    assert toward_b.in_label == 17
    # neighbour is the destination, so ask it to pop instead of swap
    assert toward_b.out_label == IMPLICIT_NULL
    assert toward_b.out_neighbor == "b"
    assert table[("b", "a")].in_label == 16
    assert table[("b", "b")].in_label == 17


def test_three_node_chain_swaps_then_pops():
    topo = make_topology([("a", "b", 1), ("b", "c", 1)], reflectors={"a"})
    table = allocate_labels(topo, compute_all_spf(topo))
    assert table[("a", "c")].out_label == table[("b", "c")].in_label == 18
    lsp = resolve_lsp(table, "a", "c")
    assert lsp is not None
    assert lsp.hops == (LspHop("a", 18, 0), LspHop("b", IMPLICIT_NULL, 1))
    assert lsp.link_indices() == (0, 1)


def test_fec_strings_allocate_in_lexicographic_order():
    # three reachable classes per node, numbered in loopback string order
    topo = make_topology([("a", "b", 1), ("b", "c", 1)], reflectors={"a"})
    table = allocate_labels(topo, compute_all_spf(topo))
    for node in ("a", "b", "c"):
        labels = [table[(node, dst)].in_label for dst in ("a", "b", "c")]
        assert labels == [16, 17, 18]
        fecs = [table[(node, dst)].fec for dst in ("a", "b", "c")]
        assert fecs == sorted(fecs)


def test_partition_leaves_no_binding_and_no_lsp():
    topo = make_topology([("a", "b", 1)], extra_nodes=["z"], reflectors={"a"})
    table = allocate_labels(topo, compute_all_spf(topo))
    assert ("a", "z") not in table
    assert table[("z", "z")].in_label == 16
    assert resolve_lsp(table, "a", "z") is None


def test_lsp_needs_distinct_endpoints():
    topo = make_topology([("a", "b", 1)], reflectors={"a"})
    table = allocate_labels(topo, compute_all_spf(topo))
    with pytest.raises(ValueError):
        resolve_lsp(table, "a", "a")


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 9))
def test_lsp_labels_chain_through_downstream_bindings(seed, n):
    rng = random.Random(seed)
    topo = random_connected_topology(rng, n)
    table = allocate_labels(topo, compute_all_spf(topo))
    for src in topo.node_names():
        for dst in topo.node_names():
            if src == dst:
                continue
            lsp = resolve_lsp(table, src, dst)
            assert lsp is not None  # topology is connected
            nodes = [h.node for h in lsp.hops] + [dst]
            assert nodes[0] == src
            for hop, nxt in zip(lsp.hops, nodes[1:]):
                link = topo.links[hop.link]
                assert {hop.node, nxt} == {link.a, link.b}
                if nxt == dst:
                    assert hop.out_label == IMPLICIT_NULL
                else:
                    assert hop.out_label == table[(nxt, dst)].in_label


def test_results_are_repeatable():
    rng = random.Random(20)
    topo = random_connected_topology(rng, 8)
    first = allocate_labels(topo, compute_all_spf(topo))
    second = allocate_labels(topo, compute_all_spf(topo))
    assert first == second
    assert compute_spf(topo, "pe01").first_hop == compute_spf(topo, "pe01").first_hop
