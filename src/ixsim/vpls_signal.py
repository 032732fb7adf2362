"""Signalling for the emulated LAN: who participates, and with which labels.

Membership travels over an internal BGP session graph kept small by route
reflection (RFC 4456): every other PE holds one session to each reflector
instead of a session to every peer.  A session is the pair of its PE names.
Each participant advertises a VE id plus a contiguous label block (RFC 4761
style), from which any other participant can compute the demultiplexor
label for its pseudo-wire without a dedicated exchange.

The session graph always meshes the reflectors and peers every client with
every reflector, so reflection is complete by construction: every PE learns
every other PE's advert.  Signalling therefore depends only on node names
and reflector flags (for the session graph).  VE ids run 1..P in name
order and every block holds P labels from FIRST_FREE_LABEL + P, whatever
the underlay reaches, so an advert is its VE id alone and a wire from
sender a to receiver b carries FIRST_FREE_LABEL + P + ve(a) - 1.  A wire
is therefore the pair of its PE names, in name order: its labels follow
from the VE ids (``wire_labels``), and its transport in each direction is
the LSP the sender's next hops stitch, walked by the fabric through this
module's ``resolve_lsp`` when a frame needs it.  That leaves
FIRST_FREE_LABEL up to FIRST_FREE_LABEL + P - 1 for one transport label
per loopback, as a prefix SID would take (RFC 8402); the fabric forwards
on next hops and never reads such a label, so none is modelled.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Iterable, Set, Tuple

from ixsim.model import Topology
# The fabric walks each wire's LSP through this module's resolve_lsp.
from ixsim.underlay import FIRST_FREE_LABEL, LabelTable, resolve_lsp


class NoReflectorError(Exception):
    """Two or more PEs but nothing to reflect between them."""


def build_session_graph(topo: Topology) -> Set[Tuple[str, str]]:
    """Sessions implied by the reflector flags, R*(P-R) + R*(R-1)/2 PE name
    pairs: ``(client, reflector)`` for each client and reflector, and each
    pair of reflectors in name order."""
    names = topo.node_names()
    reflectors = topo.reflector_names()
    if len(names) >= 2 and not reflectors:
        raise NoReflectorError("no route reflector flagged")
    sessions = {(client, rr) for client in names if client not in reflectors
                for rr in reflectors}
    sessions.update(combinations(reflectors, 2))
    return sessions


def originate_adverts(pes: Iterable[str]) -> Dict[str, int]:
    """Each PE's VE id, 1..P in name order: the whole of its advert, since
    every block starts at FIRST_FREE_LABEL + P and holds P labels."""
    return {pe: ve_id for ve_id, pe in enumerate(sorted(set(pes)), start=1)}


def propagate(adverts: Dict[str, int], sessions: Set[Tuple[str, str]]) -> Dict[str, int]:
    """The adverts every PE holds once reflection settles: all of them.

    ``build_session_graph`` gives every client a session to every reflector
    and meshes the reflectors.  A reflector passes client-learned state to
    everyone and peer-learned state to its clients, so each advert reaches
    every reflector in one step and every other PE in the next, whatever
    the sessions are beyond that.  Each PE thus holds every other PE's
    advert besides its own, which is ``adverts`` itself.  The function
    stays only as the name of the signalling step in traces.
    """
    return adverts


def pseudowire_mesh(adverts: Dict[str, int]) -> Tuple[Tuple[str, str], ...]:
    """One pseudo-wire per unordered pair of participants, as the pair of
    their names, in name order.

    A wire's labels come from the two VE ids alone (``wire_labels``), and
    those never change once originated, so a run builds its mesh once;
    partitions and heals only choose which of these wires stand
    (``derive_pseudowires``).
    """
    return tuple(combinations(sorted(adverts), 2))


def wire_labels(adverts: Dict[str, int], pe_a: str, pe_b: str) -> Tuple[int, int]:
    """The labels of wire ``(pe_a, pe_b)``: what pe_b expects on frames
    from pe_a, then what pe_a expects from pe_b.  A receiver expects
    FIRST_FREE_LABEL + P + ve(sender) - 1 from its block."""
    base = FIRST_FREE_LABEL + len(adverts) - 1
    return base + adverts[pe_a], base + adverts[pe_b]


def derive_pseudowires(
    mesh: Tuple[Tuple[str, str], ...],
    table: LabelTable,
) -> Tuple[Tuple[Tuple[str, str], ...], Tuple[Tuple[str, str], ...]]:
    """The wires of ``mesh`` whose two PEs have next hops for each other
    in ``table``.

    Pairs without them (underlay partition) come back in the second
    element as MISSING_TRANSPORT diagnostics instead of wires.  Links are
    undirected, so pe_b is reachable from pe_a exactly when pe_a is from
    pe_b, and one next hop decides the pair.  A next hop at the ingress is
    exactly what ``resolve_lsp`` needs, so both directions of every wire
    resolve; the fabric walks one only for a frame larger than the
    topology's narrowest link.
    """
    wires: list[Tuple[str, str]] = []
    missing: list[Tuple[str, str]] = []
    for pair in mesh:
        (wires if pair[1] in table[pair[0]] else missing).append(pair)
    return tuple(wires), tuple(missing)
