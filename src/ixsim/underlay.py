"""Underlay control plane: shortest-path trees and hop-by-hop label bindings.

Every PE floods link state and runs the same shortest-path computation, so
per-node results must agree along any path.  Determinism comes from a fixed
tie-break: among equal-cost candidates the predecessor with the smaller name
wins, then the smaller link index.  There is no equal-cost multipath.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Tuple

from ixsim.model import Topology, UnknownNodeError

# Reserved label values live below 16 (RFC 3032); allocation starts above
# them.  Implicit null asks the upstream neighbour to pop rather than swap.
FIRST_FREE_LABEL = 16
IMPLICIT_NULL = 3

# Marker for the out_neighbor of a binding at the forwarding class's own
# node: traffic is handed to the local bridge, not another PE.
LOCAL = None


class LabelAllocator:
    """Per-node label counters.  LDP bindings and signalling label blocks
    draw from the same space, so one allocator is threaded through both."""

    def __init__(self, first: int = FIRST_FREE_LABEL):
        self._first = first
        self._next: Dict[str, int] = {}

    def take(self, node: str) -> int:
        value = self._next.get(node, self._first)
        self._next[node] = value + 1
        return value


@dataclass
class SpfTree:
    """Single-source shortest paths.  ``next_hop`` holds, for each reachable
    node, the predecessor and link that final-hop it; reading the chain
    backwards from any node yields the path from the source."""

    source: str
    dist: Dict[str, int]
    next_hop: Dict[str, Tuple[str, int]]

    def path_to(self, dst: str) -> Optional[list[Tuple[str, int]]]:
        """Hops from source to dst as (node, link index) pairs, the link
        leading to the next node; None when dst is unreachable."""
        if dst not in self.dist:
            return None
        chain: list[Tuple[str, int]] = []
        here = dst
        while here != self.source:
            prev, link = self.next_hop[here]
            chain.append((prev, link))
            here = prev
        chain.reverse()
        return chain

    def first_hop(self, dst: str) -> Optional[Tuple[str, int]]:
        path = self.path_to(dst)
        if not path:
            return None
        node, link = path[0]
        assert node == self.source
        later = path[1][0] if len(path) > 1 else dst
        return later, link


def compute_spf(topo: Topology, source: str) -> SpfTree:
    """Dijkstra over links in state up, rooted at source.

    Ties resolve toward the lexicographically smaller predecessor name and
    then the lower link index, so every run and every node agrees on the
    same tree.
    """
    if not topo.has_node(source):
        raise UnknownNodeError(source)
    adj = topo.adjacency()
    dist: Dict[str, int] = {}
    parent: Dict[str, Tuple[str, int]] = {}
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
                parent[neigh] = (here, link)
                heapq.heappush(heap, (cand, neigh))
            elif cand == known and (here, link) < parent[neigh]:
                parent[neigh] = (here, link)
    return SpfTree(source, dist, parent)


def compute_all_spf(topo: Topology) -> Dict[str, SpfTree]:
    return {name: compute_spf(topo, name) for name in topo.node_names()}


@dataclass(frozen=True)
class LabelBinding:
    """One node's forwarding entry for one destination loopback.

    ``in_label`` is what this node tells its neighbours to send; ``out_label``
    is what it writes on the way out, IMPLICIT_NULL when the next hop is the
    destination itself (penultimate-hop pop) or the destination is local.
    """

    at_node: str
    fec: str
    in_label: int
    out_label: int
    out_neighbor: Optional[str]


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
    destination.
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
            table[(node, dst)] = LabelBinding(node, fec_of[dst], in_label, IMPLICIT_NULL, LOCAL)
            continue
        hop = trees[node].first_hop(dst)
        assert hop is not None  # reachable, so a first hop exists
        neigh, _ = hop
        out = IMPLICIT_NULL if neigh == dst else in_labels[(neigh, dst)]
        table[(node, dst)] = LabelBinding(node, fec_of[dst], in_label, out, neigh)
    return table


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


def resolve_lsp(
    table: LabelTable,
    trees: Dict[str, SpfTree],
    src: str,
    dst: str,
) -> Optional[LspPath]:
    """Stitch the transport path src -> dst out of per-node bindings.

    Returns None when the underlay is partitioned between the two.  The
    nodes and links come from the source's tree; the labels written at each
    hop are whatever that hop's own binding says, which agrees because all
    trees share one tie-break.
    """
    if src == dst:
        raise ValueError("an LSP needs distinct endpoints")
    walk = trees[src].path_to(dst)
    if walk is None:
        return None
    hops = []
    for node, link in walk:
        binding = table[(node, dst)]
        hops.append(LspHop(node, binding.out_label, link))
    return LspPath(src, dst, tuple(hops))
