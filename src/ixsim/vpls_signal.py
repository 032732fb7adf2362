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
sender a to receiver b carries FIRST_FREE_LABEL + P + ve(a) - 1.  That
leaves FIRST_FREE_LABEL up to FIRST_FREE_LABEL + P - 1 for one transport
label per loopback, as a prefix SID would take (RFC 8402); the fabric
forwards on next hops and never reads such a label, so none is modelled.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, Iterable, Optional, Set, Tuple

from ixsim.model import Topology
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


@dataclass(frozen=True)
class Pseudowire:
    """A point-to-point emulated circuit between two participating PEs.

    Labels are directional: ``label_a_to_b`` is what pe_b expects on frames
    from pe_a, taken from pe_b's advertised block.  The wire holds no
    transport path; each direction rides the LSP its sender's next hops
    stitch in the underlay table of the same convergence.
    """

    pe_a: str
    pe_b: str
    label_a_to_b: int
    label_b_to_a: int

    def other(self, pe: str) -> str:
        if pe == self.pe_a:
            return self.pe_b
        if pe == self.pe_b:
            return self.pe_a
        raise ValueError("%s is not an endpoint of this pseudo-wire" % pe)

    def transport_from(self, pe: str, table: LabelTable) -> Optional[Tuple[int, ...]]:
        """Link indices of the direction leaving ``pe``, None when partitioned."""
        return resolve_lsp(table, pe, self.other(pe))


def pseudowire_mesh(adverts: Dict[str, int]) -> Tuple[Pseudowire, ...]:
    """One pseudo-wire per unordered pair of participants, in name order.

    The receiver expects label FIRST_FREE_LABEL + P + ve(sender) - 1 from
    its block.  A wire's labels come from the two VE ids alone, and those
    never change once originated, so a run builds its mesh once;
    partitions and heals only choose which of these wires stand
    (``derive_pseudowires``).
    """
    base = FIRST_FREE_LABEL + len(adverts) - 1
    return tuple(Pseudowire(a, b, base + adverts[a], base + adverts[b])
                 for a, b in combinations(sorted(adverts), 2))


def derive_pseudowires(
    mesh: Tuple[Pseudowire, ...],
    table: LabelTable,
) -> Tuple[Tuple[Pseudowire, ...], Tuple[Tuple[str, str], ...]]:
    """The wires of ``mesh`` whose two PEs have a next hop for each other
    in ``table``.

    Pairs without a next hop in each direction (underlay partition) come
    back in the second element as MISSING_TRANSPORT diagnostics instead of
    wires.  A next hop at the ingress is exactly what ``resolve_lsp`` needs,
    so every wire's transport resolves; the fabric walks it only for a
    frame larger than the topology's narrowest link.
    """
    wires: list[Pseudowire] = []
    missing: list[Tuple[str, str]] = []
    for wire in mesh:
        a, b = wire.pe_a, wire.pe_b
        if b in table[a] and a in table[b]:
            wires.append(wire)
        else:
            missing.append((a, b))
    return tuple(wires), tuple(missing)
