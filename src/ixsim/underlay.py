"""Underlay control plane: shortest-path trees and hop-by-hop next hops.

Every PE floods link state and runs the same shortest-path computation, so
per-node results must agree along any path.  Determinism comes from a fixed
tie-break: among equal-cost candidates the predecessor with the smaller name
wins, then the smaller link index.  There is no equal-cost multipath.

Each tree keeps its distances, parents and first hops.  The table that
carries member frames between PEs is every node's own first-hop map: for
each other node its tree reaches, the (neighbour, link) it sends on, and
nothing else.  An LSP is the chain of these next hops from the ingress
to the destination, and nothing else records the path.  Because every
cost is at least 1 and all nodes share the tie-break, the chain is the
ingress's own shortest path.  No transport label is modelled: the fabric forwards on next hops,
and only the VPLS label blocks (see vpls_signal) carry numbers.

A link event touches only the trees it changes (dynamic SPF: Ramalingam
and Reps, J. Algorithms 21, 1996; Narváez, Siu and Tzeng, IEEE/ACM ToN
2000).  The tie-break makes a tree canonical: a node's parent is the
smallest (name, link) among its optimal predecessors.  So a down link
changes a tree exactly when it is some node's parent link, and an up link
exactly when it offers an endpoint a shorter path, an equal one that wins
the tie-break, or its first path.  Every other tree is kept as it is.  A
down link repairs only the subtree below it: those nodes are seeded from
their up neighbours outside the subtree and settled again, and nodes no
seed reaches drop out, which is how a partition shows.  An up link either
restores the state from before its down, which the engine keeps (see
engine), or reruns each tree it changes.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Collection, Dict, Iterable, List, Optional, Tuple

from ixsim.model import LinkState, Topology

# Label values below 16 are reserved (RFC 3032).  One transport label per
# loopback would take FIRST_FREE_LABEL up to FIRST_FREE_LABEL + P - 1 at
# every node, so the VPLS label blocks start right above that range.
FIRST_FREE_LABEL = 16

Adjacency = Dict[str, List[Tuple[str, int, int]]]


@dataclass
class SpfTree:
    """Single-source shortest paths.  ``dist`` lists the reachable nodes
    parents first, the source leading.  ``parent`` holds, for each
    reachable node other than the source, the neighbour and link its
    shortest path arrives by, and ``first_hop`` the neighbour and link the
    source sends on to reach it.  Later hops are each later node's own
    first hop.  A tree never changes once built; a repair or a rerun
    builds new dicts."""

    dist: Dict[str, int]
    first_hop: Dict[str, Tuple[str, int]]
    parent: Dict[str, Tuple[str, int]]


def _settle(adj: Adjacency, source: str, heap: List[Tuple[int, str]],
            best: Dict[str, int], dist: Dict[str, int],
            parent: Dict[str, Tuple[str, int]],
            first: Dict[str, Tuple[str, int]]) -> None:
    """Dijkstra from ``heap`` over ``adj``: pop, settle into ``dist`` and
    relax.  Nodes in ``dist`` are final; ``best`` holds tentative
    distances, and every node in it but the source has its ``parent`` and
    ``first`` entries.  Ties resolve toward the lexicographically smaller
    predecessor name and then the lower link index, so every run and every
    node agrees on the same tree.  A destination's first hop is inherited
    from the predecessor that wins, at the moment it wins."""
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


def _spf(adj: Adjacency, source: str) -> SpfTree:
    """Dijkstra over the up links of ``adj``, rooted at source."""
    dist: Dict[str, int] = {}
    parent: Dict[str, Tuple[str, int]] = {}
    first: Dict[str, Tuple[str, int]] = {}
    _settle(adj, source, [(0, source)], {source: 0}, dist, parent, first)
    return SpfTree(dist, first, parent)


def compute_all_spf(topo: Topology) -> Dict[str, SpfTree]:
    """One tree per node, all over one adjacency built for the batch."""
    adj = topo.adjacency()
    return {name: _spf(adj, name) for name in topo.node_names()}


def _wins(tree: SpfTree, here: str, there: str, link: int, cost: int) -> bool:
    """Whether ``link`` from ``here`` gives ``there`` a better path in
    ``tree``: its first, a shorter one, or an equal one the tie-break
    prefers."""
    d = tree.dist.get(here)
    if d is None:
        return False
    known = tree.dist.get(there)
    return (known is None or d + cost < known
            or (d + cost == known and (here, link) < tree.parent[there]))


def _is_stale(tree: SpfTree, topo: Topology, flapped: Iterable[int]) -> bool:
    """Whether the ``flapped`` links (indices into ``topo``, whose costs
    and endpoints never change), which flipped to their state in ``topo``
    after ``tree`` was built, move any distance or parent of ``tree``: a
    down link only when it is some node's parent link, an up link only
    when it wins at one of its endpoints."""
    parent = tree.parent
    for i in flapped:
        link = topo.links[i]
        a, b = link.a, link.b
        if link.state is LinkState.DOWN:
            if parent.get(b) == (a, i) or parent.get(a) == (b, i):
                return True
        elif _wins(tree, a, b, i, link.cost) or _wins(tree, b, a, i, link.cost):
            return True
    return False


def _cut(adj: Adjacency, source: str, tree: SpfTree, down: Collection[int]) -> SpfTree:
    """``tree`` after the ``down`` links went down.  Nodes whose parent
    chain crosses one of them leave; each is seeded from its up neighbours
    that stay, best ``dist + cost`` and ties to the smaller (name, link),
    and settled again.  Nodes no seed reaches stay out."""
    dist, parent, first = dict(tree.dist), dict(tree.parent), dict(tree.first_hop)
    moved: Dict[str, None] = {}
    for node in tree.dist:  # parents first, so a moved parent is already known
        hop = parent.get(node)
        if hop is not None and (hop[1] in down or hop[0] in moved):
            moved[node] = None
    for node in moved:
        del dist[node], parent[node], first[node]
    best: Dict[str, int] = {}
    for node in moved:
        for neigh, link, cost in adj[node]:
            if neigh not in dist:
                continue  # moved as well
            cand = dist[neigh] + cost
            known = best.get(node)
            if known is None or cand < known or (cand == known and (neigh, link) < parent[node]):
                best[node] = cand
                parent[node] = (neigh, link)
                first[node] = (node, link) if neigh == source else first[neigh]
    heap = [(d, node) for node, d in best.items()]
    heapq.heapify(heap)
    _settle(adj, source, heap, best, dist, parent, first)
    return SpfTree(dist, first, parent)


def rerun_stale_spf(
    topo: Topology,
    trees: Dict[str, SpfTree],
    flapped: Collection[int],
) -> Dict[str, SpfTree]:
    """New trees over ``topo`` for the members of ``trees`` that the
    ``flapped`` links change.  ``trees`` is the set from before the flip,
    and the ``flapped`` links all went down or all came up.  A down
    repairs each such tree below the links it lost; an up reruns it.
    Every tree left out equals its rerun."""
    states = {topo.links[i].state for i in flapped}
    if len(states) > 1:
        raise ValueError("flapped links must all go down or all come up")
    stale = [name for name, tree in trees.items() if _is_stale(tree, topo, flapped)]
    if not stale:
        return {}
    adj = topo.adjacency()
    if states == {LinkState.DOWN}:
        down = set(flapped)
        return {name: _cut(adj, name, trees[name], down) for name in stale}
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
