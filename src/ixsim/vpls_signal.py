"""Signalling for the emulated LAN: who participates, and with which labels.

Membership travels over an internal BGP session graph kept small by route
reflection (RFC 4456): every other PE holds one session to each reflector
instead of a session to every peer.  Each participant advertises a VE id
plus a contiguous label block (RFC 4761 style), from which any other
participant can compute the demultiplexor label for its pseudo-wire without
a dedicated exchange.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Dict, Iterable, Optional, Set, Tuple

from ixsim.model import Topology
from ixsim.underlay import LabelAllocator, LabelTable, LspPath, resolve_lsp


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

    @property
    def sort_key(self) -> tuple:
        return (self.a, self.b, self.kind.value)


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


def originate_adverts(
    pes: Iterable[str],
    alloc: Optional[LabelAllocator] = None,
) -> Dict[str, VplsAdvert]:
    """Assign VE ids 1..P in name order and carve each PE's label block.

    The block comes out of the same per-node label space the underlay
    bindings use, so blocks never collide with transport labels.
    """
    if alloc is None:
        alloc = LabelAllocator()
    ordered = sorted(set(pes))
    count = len(ordered)
    adverts: Dict[str, VplsAdvert] = {}
    for ve_id, pe in enumerate(ordered, start=1):
        base = alloc.take(pe)
        for _ in range(count - 1):
            alloc.take(pe)  # reserve the rest of the contiguous block
        adverts[pe] = VplsAdvert(pe, ve_id, base, 1, count)
    return adverts


def propagate(
    adverts: Dict[str, VplsAdvert],
    sessions: Set[IbgpSession],
) -> Dict[str, Set[VplsAdvert]]:
    """Run reflection to a fixpoint and return each PE's received set.

    Standard reflection rules: a reflector passes client-learned state to
    everyone, and peer-learned state to its clients only.  Clients originate
    and receive but never relay.
    """
    originated = {pe: adverts[pe] for pe in adverts}
    client_learned: Dict[str, Set[VplsAdvert]] = {pe: set() for pe in adverts}
    peer_learned: Dict[str, Set[VplsAdvert]] = {pe: set() for pe in adverts}
    received: Dict[str, Set[VplsAdvert]] = {pe: set() for pe in adverts}

    ordered = sorted(sessions, key=lambda s: s.sort_key)
    changed = True
    while changed:
        changed = False
        for s in ordered:
            if s.kind is IbgpKind.RR_CLIENT:
                client, rr = s.a, s.b
                if originated[client] not in client_learned[rr]:
                    client_learned[rr].add(originated[client])
                    changed = True
                down = {originated[rr]} | client_learned[rr] | peer_learned[rr]
                down.discard(originated[client])
                if not down <= received[client]:
                    received[client] |= down
                    changed = True
            else:
                for left, right in ((s.a, s.b), (s.b, s.a)):
                    out = {originated[left]} | client_learned[left]
                    out.discard(originated[right])
                    if not out <= peer_learned[right]:
                        peer_learned[right] |= out
                        changed = True

    for rr in adverts:
        extra = (client_learned[rr] | peer_learned[rr]) - {originated[rr]}
        received[rr] |= extra
    return received


@dataclass(frozen=True)
class Pseudowire:
    """A point-to-point emulated circuit between two participating PEs.

    Labels are directional: ``label_a_to_b`` is what pe_b expects on frames
    from pe_a, taken from pe_b's advertised block.
    """

    pe_a: str
    pe_b: str
    label_a_to_b: int
    label_b_to_a: int
    transport_a_to_b: LspPath
    transport_b_to_a: LspPath

    def other(self, pe: str) -> str:
        if pe == self.pe_a:
            return self.pe_b
        if pe == self.pe_b:
            return self.pe_a
        raise ValueError("%s is not an endpoint of this pseudo-wire" % pe)

    def transport_from(self, pe: str) -> LspPath:
        return self.transport_a_to_b if pe == self.pe_a else self.transport_b_to_a

    def label_from(self, pe: str) -> int:
        return self.label_a_to_b if pe == self.pe_a else self.label_b_to_a


def derive_pseudowires(
    received: Dict[str, Set[VplsAdvert]],
    table: LabelTable,
) -> Tuple[Tuple[Pseudowire, ...], Tuple[Tuple[str, str], ...]]:
    """One pseudo-wire per unordered pair of mutually visible participants.

    Pairs whose transport cannot be resolved (underlay partition) come back
    in the second element as MISSING_TRANSPORT diagnostics instead of wires.
    """
    adverts_by_pe = {}
    for pe, incoming in received.items():
        for ad in incoming:
            adverts_by_pe[ad.origin_pe] = ad
    wires: list[Pseudowire] = []
    missing: list[Tuple[str, str]] = []
    participants = sorted(received)
    for i, a in enumerate(participants):
        for b in participants[i + 1:]:
            ad_a = adverts_by_pe.get(a)
            ad_b = adverts_by_pe.get(b)
            if ad_a is None or ad_b is None:
                continue
            if ad_b not in received[a] or ad_a not in received[b]:
                continue
            forward = resolve_lsp(table, a, b)
            backward = resolve_lsp(table, b, a)
            if forward is None or backward is None:
                missing.append((a, b))
                continue
            wires.append(Pseudowire(
                pe_a=a,
                pe_b=b,
                label_a_to_b=ad_b.label_for(ad_a.ve_id),
                label_b_to_a=ad_a.label_for(ad_b.ve_id),
                transport_a_to_b=forward,
                transport_b_to_a=backward,
            ))
    return tuple(wires), tuple(missing)
