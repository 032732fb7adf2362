"""Underlay control plane: shortest-path trees and hop-by-hop next hops.

Every PE floods link state and runs the same shortest-path computation, so
per-node results must agree along any path.  Determinism comes from a fixed
tie-break: among equal-cost candidates the predecessor with the smaller name
wins, then the smaller link index.  There is no equal-cost multipath.

Each tree keeps its distances and first hops.  The table that carries
member frames between PEs is every node's own first-hop map: for each
other node its tree reaches, the (neighbour, link) it sends on, and
nothing else.  An LSP is the chain of these next hops from the ingress
to the destination, and nothing else records the path.  Because every
cost is at least 1 and all nodes share the tie-break, the chain is the
ingress's own shortest path.  No transport label is modelled: the fabric forwards on next hops,
and only the VPLS label blocks (see vpls_signal) carry numbers.

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
from typing import Collection, Dict, Iterable, List, Optional, Tuple

from ixsim.model import Topology

# Label values below 16 are reserved (RFC 3032).  One transport label per
# loopback would take FIRST_FREE_LABEL up to FIRST_FREE_LABEL + P - 1 at
# every node, so the VPLS label blocks start right above that range.
FIRST_FREE_LABEL = 16


@dataclass
class SpfTree:
    """Single-source shortest paths.  ``first_hop`` holds, for each reachable
    node other than the source, the neighbour and link the source sends on
    to reach it.  Later hops are each later node's own first hop."""

    dist: Dict[str, int]
    first_hop: Dict[str, Tuple[str, int]]


def _spf(adj: Dict[str, List[Tuple[str, int, int]]], source: str) -> SpfTree:
    """Dijkstra over the up links of ``adj``, rooted at source.

    Ties resolve toward the lexicographically smaller predecessor name and
    then the lower link index, so every run and every node agrees on the
    same tree.  A destination's first hop is inherited from the predecessor
    that wins, at the moment it wins.
    """
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
    return SpfTree(dist, first)


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


# Each node's own next hops, keyed by destination: the first-hop map of the
# node's tree, shared rather than copied (trees never change once built).
LabelTable = Dict[str, Dict[str, Tuple[str, int]]]


def allocate_labels(trees: Dict[str, SpfTree]) -> LabelTable:
    """Every node's next hops, for the destinations its own tree reaches."""
    return {name: tree.first_hop for name, tree in trees.items()}


def resolve_lsp(table: LabelTable, src: str, dst: str) -> Optional[Tuple[int, ...]]:
    """The links of the transport path src -> dst, stitched from per-node
    next hops: the ingress's, then each next node's own, until dst.
    Returns None when src has no next hop for dst, i.e. the underlay is
    partitioned between the two.
    """
    if src == dst:
        raise ValueError("an LSP needs distinct endpoints")
    if dst not in table[src]:
        return None
    links = []
    node = src
    while node != dst:
        node, link = table[node][dst]
        links.append(link)
    return tuple(links)
