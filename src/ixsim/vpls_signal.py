"""Signalling for the emulated LAN: who participates, and with which labels.

Membership travels over an internal BGP session graph kept small by route
reflection (RFC 4456): every other PE holds one session to each reflector
instead of a session to every peer.  Each participant advertises a VE id
plus a contiguous label block (RFC 4761 style), from which any other
participant can compute the demultiplexor label for its pseudo-wire without
a dedicated exchange.

The session graph always meshes the reflectors and peers every client with
every reflector, so reflection is complete by construction: every PE learns
every other PE's advert.  Signalling therefore depends only on node names
and reflector flags (for the session graph): every block starts at
FIRST_FREE_LABEL + P, whatever the underlay reaches.  That leaves
FIRST_FREE_LABEL up to FIRST_FREE_LABEL + P - 1 for one transport label per
loopback, as a prefix SID would take (RFC 8402); the fabric forwards on
next hops and never reads such a label, so none is modelled.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Dict, Iterable, Optional, Set, Tuple

from ixsim.model import Topology
from ixsim.underlay import FIRST_FREE_LABEL, LabelTable, resolve_lsp


class NoReflectorError(Exception):
    """Two or more PEs but nothing to reflect between them."""


class IbgpKind(Enum):
    RR_CLIENT = "rr_client"
    RR_TO_RR = "rr_to_rr"


@dataclass(frozen=True)
class IbgpSession:
    """One internal BGP session.  For RR_CLIENT sessions ``a`` is the client
    and ``b`` the reflector; reflector-to-reflector pairs are name-ordered."""

    a: str
    b: str
    kind: IbgpKind = IbgpKind.RR_CLIENT


def build_session_graph(topo: Topology) -> Set[IbgpSession]:
    """Sessions implied by the reflector flags: R*(P-R) + R*(R-1)/2 total."""
    names = topo.node_names()
    reflectors = topo.reflector_names()
    if len(names) >= 2 and not reflectors:
        raise NoReflectorError("no route reflector flagged")
    sessions: Set[IbgpSession] = set()
    for client in names:
        if client in reflectors:
            continue
        for rr in reflectors:
            sessions.add(IbgpSession(client, rr, IbgpKind.RR_CLIENT))
    for left, right in combinations(reflectors, 2):
        sessions.add(IbgpSession(left, right, IbgpKind.RR_TO_RR))
    return sessions


@dataclass(frozen=True, order=True)
class VplsAdvert:
    """One participant's membership advertisement.

    A peer with VE id v expects traffic from this PE to arrive carrying
    label ``label_base + v - block_offset``; a single block therefore
    covers the whole mesh.
    """

    origin_pe: str
    ve_id: int
    label_base: int
    block_offset: int
    block_size: int

    def label_for(self, sender_ve_id: int) -> int:
        if not self.block_offset <= sender_ve_id < self.block_offset + self.block_size:
            raise ValueError("VE id %d outside advertised block" % sender_ve_id)
        return self.label_base + sender_ve_id - self.block_offset


def originate_adverts(pes: Iterable[str]) -> Dict[str, VplsAdvert]:
    """Assign VE ids 1..P in name order and give each PE a block of P labels.

    Each block starts at FIRST_FREE_LABEL + P, above the range one
    transport label per loopback would take.
    """
    ordered = sorted(set(pes))
    count = len(ordered)
    base = FIRST_FREE_LABEL + count
    return {pe: VplsAdvert(pe, ve_id, base, 1, count)
            for ve_id, pe in enumerate(ordered, start=1)}


def propagate(
    adverts: Dict[str, VplsAdvert],
    sessions: Set[IbgpSession],
) -> Dict[str, VplsAdvert]:
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


def pseudowire_mesh(adverts: Dict[str, VplsAdvert]) -> Tuple[Pseudowire, ...]:
    """One pseudo-wire per unordered pair of participants, in name order.

    A wire's labels come from the two adverts alone, and the adverts never
    change once originated, so a run builds its mesh once; partitions and
    heals only choose which of these wires stand (``derive_pseudowires``).
    """
    wires: list[Pseudowire] = []
    for a, b in combinations(sorted(adverts), 2):
        ad_a, ad_b = adverts[a], adverts[b]
        wires.append(Pseudowire(
            a, b, ad_b.label_for(ad_a.ve_id), ad_a.label_for(ad_b.ve_id)))
    return tuple(wires)


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
