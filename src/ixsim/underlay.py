"""Underlay control plane: shortest-path trees and hop-by-hop label bindings.

Every PE floods link state and runs the same shortest-path computation, so
per-node results must agree along any path.  Determinism comes from a fixed
tie-break: among equal-cost candidates the predecessor with the smaller name
wins, then the smaller link index.  There is no equal-cost multipath.

Each tree keeps its distances and first hops.  A node binds one label per
reachable destination and points it at its own first hop; an LSP is the
chain of these bindings from the ingress to the penultimate-hop pop, and
nothing else records the path.  Because every cost is at least 1 and all
nodes share the tie-break, the chain is the ingress's own shortest path.

A link event reruns only the trees it can touch (incremental SPF:
McQuillan, Richer and Rosen, "The New Routing Algorithm for the ARPANET",
1980; Narváez, Siu and Tzeng, IEEE/ACM ToN 2000).  A tree is stale for a
flapped link (u, v, c) when exactly one endpoint is in its distances, or
when both are and dist(u) + c <= dist(v) or dist(v) + c <= dist(u).  Ties
count because of the tie-break, and every link a parent uses is such a
tie, so a down link the tree uses is always caught.  Any other tree keeps
its distances, and its parents too: a parent is the smallest
(name, link) among a node's optimal predecessors, and that set does not
change.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Collection, Dict, Iterable, List, NamedTuple, Optional, Tuple

from ixsim.model import Topology, UnknownNodeError

# Reserved label values live below 16 (RFC 3032); allocation starts above
# them.  Implicit null asks the upstream neighbour to pop rather than swap.
FIRST_FREE_LABEL = 16
IMPLICIT_NULL = 3

# Marker for the out_neighbor and out_link of a binding at the forwarding
# class's own node: traffic is handed to the local bridge, not another PE.
LOCAL = None


class LabelAllocator:
    """Per-node label counters.  LDP bindings and signalling label blocks
    draw from the same space, so one allocator is threaded through both."""

    def __init__(self, first: int = FIRST_FREE_LABEL):
        self._first = first
        self._next: Dict[str, int] = {}

    def take(self, node: str, count: int = 1) -> int:
        """Reserve ``count`` consecutive labels at node; the first of them."""
        value = self._next.get(node, self._first)
        self._next[node] = value + count
        return value


@dataclass
class SpfTree:
    """Single-source shortest paths.  ``first_hop`` holds, for each reachable
    node other than the source, the neighbour and link the source sends on
    to reach it.  Later hops are each later node's own first hop."""

    source: str
    dist: Dict[str, int]
    first_hop: Dict[str, Tuple[str, int]]


def compute_spf(topo: Topology, source: str) -> SpfTree:
    """Dijkstra over links in state up, rooted at source.

    Ties resolve toward the lexicographically smaller predecessor name and
    then the lower link index, so every run and every node agrees on the
    same tree.  A destination's first hop is inherited from the predecessor
    that wins, at the moment it wins.
    """
    if not topo.has_node(source):
        raise UnknownNodeError(source)
    return _spf(topo.adjacency(), source)


def _spf(adj: Dict[str, List[Tuple[str, int, int]]], source: str) -> SpfTree:
    dist: Dict[str, int] = {}
    parent: Dict[str, Tuple[str, int]] = {}
    first: Dict[str, Tuple[str, int]] = {}
    best: Dict[str, int] = {source: 0}
    heap: list[Tuple[int, str]] = [(0, source)]
    while heap:
        d, here = heapq.heappop(heap)
        if here in dist:
            continue
        dist[here] = d
        for neigh, link, cost in adj[here]:
            if neigh in dist:
                continue
            cand = d + cost
            known = best.get(neigh)
            if known is None or cand < known:
                best[neigh] = cand
                heapq.heappush(heap, (cand, neigh))
            elif cand > known or (here, link) > parent[neigh]:
                continue  # the current parent keeps the tie
            parent[neigh] = (here, link)
            first[neigh] = (neigh, link) if here == source else first[here]
    return SpfTree(source, dist, first)


def compute_all_spf(topo: Topology) -> Dict[str, SpfTree]:
    """One tree per node, all over one adjacency built for the batch."""
    adj = topo.adjacency()
    return {name: _spf(adj, name) for name in topo.node_names()}


def _is_stale(tree: SpfTree, topo: Topology, flapped: Iterable[int]) -> bool:
    """Whether flipping the state of the ``flapped`` links (indices into
    ``topo``, whose costs and endpoints never change) can move any
    distance or parent of ``tree``."""
    dist = tree.dist
    for i in flapped:
        link = topo.links[i]
        du, dv = dist.get(link.a), dist.get(link.b)
        if du is None and dv is None:
            continue
        if du is None or dv is None or du + link.cost <= dv or dv + link.cost <= du:
            return True
    return False


def rerun_stale_spf(
    topo: Topology,
    trees: Dict[str, SpfTree],
    flapped: Collection[int],
) -> Dict[str, SpfTree]:
    """Fresh trees over ``topo`` for the members of ``trees`` that the
    ``flapped`` links make stale, all over one adjacency.  ``trees`` is
    the set from before the flip; every tree left out equals its rerun."""
    stale = [name for name, tree in trees.items() if _is_stale(tree, topo, flapped)]
    if not stale:
        return {}
    adj = topo.adjacency()
    return {name: _spf(adj, name) for name in stale}


@dataclass(frozen=True)
class LabelBinding:
    """One node's forwarding entry for one destination loopback.

    ``in_label`` is what this node tells its neighbours to send; ``out_label``
    is what it writes on the way out, IMPLICIT_NULL when the next hop is the
    destination itself (penultimate-hop pop) or the destination is local.
    ``out_neighbor`` and ``out_link`` say where the frame goes next; both are
    LOCAL at the destination's own node.
    """

    at_node: str
    fec: str
    in_label: int
    out_label: int
    out_neighbor: Optional[str]
    out_link: Optional[int]


# Bindings are keyed by (node, destination node name); the binding itself
# records the destination as its loopback-derived forwarding class.
LabelTable = Dict[Tuple[str, str], LabelBinding]


def allocate_labels(
    topo: Topology,
    trees: Dict[str, SpfTree],
    alloc: Optional[LabelAllocator] = None,
) -> LabelTable:
    """Assign in-labels everywhere, then wire out-labels downstream.

    Each node numbers the forwarding classes it can reach in lexicographic
    order of the class (destination loopback), starting at FIRST_FREE_LABEL.
    The out-label toward a destination is the downstream neighbour's
    in-label for the same class, or IMPLICIT_NULL when the neighbour is the
    destination.  The downstream neighbour and link are the first hop of the
    node's own tree.
    """
    if alloc is None:
        alloc = LabelAllocator()
    fec_of = {n.name: n.fec for n in topo.nodes}
    by_fec = sorted(fec_of, key=lambda name: fec_of[name])

    in_labels: Dict[Tuple[str, str], int] = {}
    for node in topo.node_names():
        tree = trees[node]
        for dst in by_fec:
            if dst in tree.dist:
                in_labels[(node, dst)] = alloc.take(node)

    table: LabelTable = {}
    for (node, dst), in_label in in_labels.items():
        if node == dst:
            table[(node, dst)] = LabelBinding(
                node, fec_of[dst], in_label, IMPLICIT_NULL, LOCAL, LOCAL)
            continue
        neigh, link = trees[node].first_hop[dst]
        out = IMPLICIT_NULL if neigh == dst else in_labels[(neigh, dst)]
        table[(node, dst)] = LabelBinding(node, fec_of[dst], in_label, out, neigh, link)
    return table


def rebind(table: LabelTable, trees: Dict[str, SpfTree]) -> None:
    """Point each tree's source's bindings at the tree's first hops, in place.

    Only valid when no node's reachable set changed since ``table`` was
    allocated: every in-label then stands, and a moved binding's out-label
    is the new neighbour's in-label, or IMPLICIT_NULL when the neighbour is
    the destination.  Bindings whose first hop did not move are kept.
    """
    for node, tree in trees.items():
        for dst, (neigh, link) in tree.first_hop.items():
            old = table[(node, dst)]
            if old.out_link == link and old.out_neighbor == neigh:
                continue
            out = IMPLICIT_NULL if neigh == dst else table[(neigh, dst)].in_label
            table[(node, dst)] = LabelBinding(node, old.fec, old.in_label, out, neigh, link)


class LspHop(NamedTuple):
    node: str
    out_label: int
    link: int


@dataclass(frozen=True)
class LspPath:
    """A resolved label-switched path.  One hop per traversed link; the
    final hop carries IMPLICIT_NULL so the frame reaches dst unlabelled."""

    src: str
    dst: str
    hops: Tuple[LspHop, ...]

    def link_indices(self) -> Tuple[int, ...]:
        return tuple(h.link for h in self.hops)


def resolve_lsp(table: LabelTable, src: str, dst: str) -> Optional[LspPath]:
    """Stitch the transport path src -> dst out of per-node bindings.

    Starts at the ingress binding and follows each binding's out-neighbour
    and out-link until the penultimate hop pops.  Returns None when src has
    no binding for dst, i.e. the underlay is partitioned between the two.
    """
    if src == dst:
        raise ValueError("an LSP needs distinct endpoints")
    if (src, dst) not in table:
        return None
    hops = []
    node = src
    while node != dst:
        binding = table[(node, dst)]
        hops.append(LspHop(node, binding.out_label, binding.out_link))
        node = binding.out_neighbor
    return LspPath(src, dst, tuple(hops))
