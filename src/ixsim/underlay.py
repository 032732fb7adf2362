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

Every node uses the same label for a destination: FIRST_FREE_LABEL plus
the rank of the destination's loopback among all nodes' loopbacks, the way
segment routing gives each loopback one prefix SID out of a label block
that every node shares (RFC 8402, RFC 8660).  A label thus depends on the
node set alone, never on what a node reaches, so a link event that cuts a
node off or joins it back renumbers nothing: it only adds or deletes the
rows toward that node and its own.

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

# Reserved label values live below 16 (RFC 3032); bindings start above
# them.  Implicit null asks the upstream neighbour to pop rather than swap.
FIRST_FREE_LABEL = 16
IMPLICIT_NULL = 3

# Marker for the out_neighbor and out_link of a binding at the forwarding
# class's own node: traffic is handed to the local bridge, not another PE.
LOCAL = None


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


class LabelBinding(NamedTuple):
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


def allocate_labels(topo: Topology, trees: Dict[str, SpfTree]) -> LabelTable:
    """Every node's bindings, for the destinations its own tree reaches:
    ``rebind`` run on an empty table."""
    table: LabelTable = {}
    rebind(table, topo, trees)
    return table


def rebind(table: LabelTable, topo: Topology, trees: Dict[str, SpfTree]) -> None:
    """Bring each tree's source's bindings in line with the tree, in place.

    The label for a destination is FIRST_FREE_LABEL plus the rank of its
    forwarding class (loopback) among all nodes' classes, at every node.
    The out-label is that same label, or IMPLICIT_NULL when the first hop
    is the destination itself or the destination is local.  A row is
    written only where the tree's first hop differs from the row's, added
    where the tree newly reaches its destination and deleted where it no
    longer does; every other row stands.
    """
    classes = sorted((n.fec, n.name) for n in topo.nodes)
    for node, tree in trees.items():
        first_hop = tree.first_hop
        for label, (fec, dst) in enumerate(classes, start=FIRST_FREE_LABEL):
            key = (node, dst)
            if dst == node:
                hop = (LOCAL, LOCAL)
            elif dst in first_hop:
                hop = first_hop[dst]
            else:
                table.pop(key, None)
                continue
            old = table.get(key)
            if old is not None and (old.out_neighbor, old.out_link) == hop:
                continue
            neigh, link = hop
            out = IMPLICIT_NULL if neigh in (dst, LOCAL) else label
            table[key] = LabelBinding(node, fec, label, out, neigh, link)


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
