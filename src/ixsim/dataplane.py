"""The emulated LAN itself: frames, port policy, learning bridges, transport.

Each PE runs a bridge whose attachments are its local member ports plus one
pseudo-wire to every other participating PE; ``build_bridges`` makes each
from the fabric's read-only port map and the standing wires.  A port
is named by its member's ASN and a wire by its remote PE; a wire holds no
path of its own, and a frame on it rides the LSP from its PE to the remote
PE that the underlay's next hops give.  Because the wire mesh is full,
flooding needs no spanning tree: a flood arriving over a pseudo-wire goes
to local ports only (split horizon), so it crosses each wire at most once.
Split horizon covers floods only: a known-unicast frame arriving over a wire
goes where its destination was learned, which can be one more wire.  What
ends every walk is ``Fabric.inject``'s bound on wire crossings.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import lru_cache, partial
from typing import (Dict, FrozenSet, Iterable, List, Mapping, NamedTuple, Optional, Sequence,
                    Tuple, Union)

from ixsim import vpls_signal
from ixsim.model import Link, MemberPort, PortState, Topology, is_unicast
from ixsim.underlay import LabelTable

BROADCAST_MAC = "ff:ff:ff:ff:ff:ff"

# Encapsulation cost in bytes: Ethernet header+FCS always, plus a transport
# and a demultiplexor label when the frame rides a pseudo-wire.
ETHERNET_OVERHEAD = 18
MPLS_OVERHEAD = 8

# Learned MAC entries go stale after this many rounds without refresh.
DEFAULT_MAC_AGING_ROUNDS = 300

# A clean probation window of this many rounds promotes a quarantined port.
DEFAULT_PROBATION_ROUNDS = 10


class EtherType(Enum):
    IPV4 = "ipv4"
    ARP = "arp"
    OTHER = "other"


class DropReason(Enum):
    QUARANTINED = "QUARANTINED"
    MAC_MISMATCH = "MAC_MISMATCH"
    FORBIDDEN_TRAFFIC = "FORBIDDEN_TRAFFIC"
    MTU_EXCEEDED = "MTU_EXCEEDED"


class EthernetFrame(NamedTuple):
    src_mac: str
    dst_mac: str
    ethertype: EtherType
    payload_size: int
    trace_id: str = ""


def is_broadcast(mac: str) -> bool:
    return mac == BROADCAST_MAC


# An attachment is a member port's ASN or, for the pseudo-wire toward a
# remote PE, that PE's name.
Attachment = Union[int, str]


@lru_cache(maxsize=None)
def _label(via: Attachment) -> str:
    """The trace's name for an attachment."""
    return "pw/%s" % via if isinstance(via, str) else "port/%d" % via


class MacEntry(NamedTuple):
    where: Attachment
    learned_round: int


class BridgeState(NamedTuple):
    """One PE's bridge wiring: ``port_targets``, its active member ports'
    ASNs in ASN order; ``local_macs``, the nominated MACs of all its member
    ports, quarantined ones included; and ``wires``, the remote PEs of its
    standing pseudo-wires, in name order.  A change to a port or to the
    standing wires builds new bridges, so every fabric built over a bridge
    shares it; what it learns is in ``Fabric.macs``."""

    pe: str
    port_targets: Tuple[int, ...]
    local_macs: FrozenSet[str]
    wires: Tuple[str, ...]


def build_bridges(pes: Iterable[str], ports: Mapping[int, MemberPort],
                  pairs: Iterable[Tuple[str, str]]) -> Dict[str, BridgeState]:
    """One bridge per PE of ``pes`` over its ports in ``ports`` and the standing
    ``pairs``, which come in name order, so each PE's remotes do too."""
    remotes: Dict[str, List[str]] = {pe: [] for pe in pes}
    for a, b in pairs:
        remotes[a].append(b)
        remotes[b].append(a)
    targets: Dict[str, List[int]] = {pe: [] for pe in remotes}
    macs: Dict[str, List[str]] = {pe: [] for pe in remotes}
    for asn in sorted(ports):
        port = ports[asn]
        macs[port.attach_pe].append(port.nominated_mac)
        if port.state is PortState.ACTIVE:
            targets[port.attach_pe].append(asn)
    return {pe: BridgeState(pe, tuple(targets[pe]), frozenset(macs[pe]), tuple(wires))
            for pe, wires in remotes.items()}


def ingress_filter(port: MemberPort, frame: EthernetFrame) -> Optional[DropReason]:
    """Admit or classify-and-drop a frame a member offers to the exchange.

    Policy violations are checked before the quarantine gate so that a
    quarantined port's probation window observes what the port would have
    done wrong, not merely that it was quarantined.
    """
    if frame.src_mac != port.nominated_mac:
        return DropReason.MAC_MISMATCH
    if not (is_unicast(frame.dst_mac)
            or (is_broadcast(frame.dst_mac) and frame.ethertype is EtherType.ARP)):
        return DropReason.FORBIDDEN_TRAFFIC
    if port.state is not PortState.ACTIVE:
        return DropReason.QUARANTINED
    return None


def bridge_forward(
    bridge: BridgeState,
    macs: Dict[str, MacEntry],
    frame: EthernetFrame,
    arrived_via: Attachment,
    round_no: int,
    src_unicast: bool,
) -> Sequence[Attachment]:
    """Learn into ``macs``, the bridge's MAC table, then return the
    attachments the frame leaves by.  The caller has already run the
    ingress policy when the frame came from a local port; pseudo-wire
    arrivals were filtered once at their ingress PE and are trusted here.
    Only a unicast source is learned; ``src_unicast`` is whether the source
    MAC is unicast, which holds for the whole walk of a frame, so the
    caller decides it once.  An entry ``DEFAULT_MAC_AGING_ROUNDS`` old is
    dropped when the destination is looked up, and the frame floods.  A
    port entry is where this bridge accepted a frame, so the port is here.

    Split horizon: a flood off a pseudo-wire goes to local ports only, and
    the result is then ``bridge.port_targets`` itself, which callers must
    not mutate.  Known unicast toward its own arrival is suppressed entirely.
    An entry is rewritten only when its attachment or round changes.
    """
    src = frame.src_mac
    from_wire = isinstance(arrived_via, str)
    if (src_unicast and not (from_wire and src in bridge.local_macs)
            and macs.get(src) != (arrived_via, round_no)):
        macs[src] = MacEntry(arrived_via, round_no)

    dst = frame.dst_mac
    if dst != BROADCAST_MAC:
        entry = macs.get(dst)
        if entry is not None:
            if round_no - entry.learned_round >= DEFAULT_MAC_AGING_ROUNDS:
                del macs[dst]  # aged out
            elif entry.where == arrived_via:
                return ()  # would hairpin; the destination already saw it
            else:
                return (entry.where,)

    if from_wire:
        return bridge.port_targets
    out: List[Attachment] = [via for via in bridge.port_targets if via != arrived_via]
    out += bridge.wires
    return out


def transmit(size: int, links: Iterable[Link]) -> Optional[Link]:
    """MTU gate for a frame of ``size`` bytes, tunnel headers included, on
    the links of one LSP in path order.  Returns the first link that cannot
    carry it, which drops the frame and is named in its drop record, or
    None when every link carries it."""
    for link in links:
        if size > link.mtu:
            return link
    return None


def promote_port(port: MemberPort, observed: Iterable[DropReason]) -> MemberPort:
    """Activate a quarantined port after a clean probation window.

    Clean means no nominated-MAC violation and no forbidden traffic class
    among the observed drops; an idle window counts as clean.  Drops that
    happened only because the port was quarantined do not block promotion.
    """
    blocking = {DropReason.MAC_MISMATCH, DropReason.FORBIDDEN_TRAFFIC}
    if any(reason in blocking for reason in observed):
        return port
    if port.state is PortState.ACTIVE:
        return port
    return replace(port, state=PortState.ACTIVE)


class TraceRow(NamedTuple):
    round_no: int
    trace_id: str
    pe: str
    via: str
    action: str


# A row built in C from a tuple of its fields; TraceRow's own __new__ is Python.
_row = partial(tuple.__new__, TraceRow)

TRACE_HEADER = "round,trace_id,pe,via,action"


def format_trace(rows: Iterable[TraceRow]) -> str:
    lines = [TRACE_HEADER]
    lines += ["%d,%s,%s,%s,%s" % row for row in rows]  # a row is its fields in order
    return "\n".join(lines) + "\n"


class DropRecord(NamedTuple):
    round_no: int
    port_asn: Optional[int]
    reason: DropReason
    trace_id: str
    offending_link: Optional[Link] = None


@dataclass(slots=True)
class InjectResult:
    accepted: bool
    drop_reason: Optional[DropReason]
    deliveries: List[int] = field(default_factory=list)
    pw_traversals: int = 0
    emissions: int = 0


class Fabric:
    """All bridges plus the transport glue between them.

    A run makes every fabric with this constructor and hands each one the
    frame trace and drop log of the last, so its history stays complete.
    ``ports`` is the port map by ASN the bridges were built from.  ``macs``
    is what the bridges learn, one MAC table per PE, and starts empty; the
    bridges themselves are wiring, shared with every fabric made over them.
    ``labels`` is the underlay's next-hop table: each node's tree's own
    first-hop map, keyed by node and then by destination.  No LSP is narrower
    than the narrowest link of the topology, ``_floor``, so a frame that fits
    that link crosses every wire without a walk.  Only a larger frame walks
    the LSP of each wire it is emitted on, hop by hop from ``labels``, from
    the emitting PE to the wire's remote PE (``vpls_signal.resolve_lsp``), and
    ``transmit`` decides on those links whether it drops.  Nothing walked is
    kept, so no path outlives its table.
    """

    def __init__(
        self,
        topo: Topology,
        ports: Mapping[int, MemberPort],
        bridges: Dict[str, BridgeState],
        labels: LabelTable,
        trace: Optional[List[TraceRow]] = None,
        drops: Optional[List[DropRecord]] = None,
    ):
        self.topo = topo
        self.ports = ports
        self.bridges = bridges
        self.labels = labels
        self.trace: List[TraceRow] = trace if trace is not None else []
        self.drops: List[DropRecord] = drops if drops is not None else []
        self.macs: Dict[str, Dict[str, MacEntry]] = {pe: {} for pe in bridges}
        # Without links there are no wires to cross.
        self._floor = min((link.mtu for link in topo.links), default=0)
        self._log = self.trace.append  # None on a probe clone
        # No frame needs more crossings than the mesh has wire directions.
        self._max_crossings = len(bridges) * (len(bridges) - 1)

    def port_with_ip(self, ip) -> Optional[MemberPort]:
        hits = [p for p in self.ports.values() if p.exchange_ip == ip]
        hits.sort(key=lambda p: p.member_asn)
        return hits[0] if hits else None

    def clone(self) -> "Fabric":
        """Copy for probe traffic, with its own MAC tables and drop log, so
        probing never alters the real history.  The tables start as copies
        of this fabric's.  It shares the bridges, topology, next-hop table
        and port map.  It records drops but no trace rows: nothing reads
        a probe's rows, so its ``trace`` stays empty."""
        probe = copy.copy(self)
        probe.macs = {pe: dict(table) for pe, table in self.macs.items()}
        probe.trace, probe.drops, probe._log = [], [], None
        return probe

    def inject(self, asn: int, frame: EthernetFrame, round_no: int = 0) -> InjectResult:
        """Offer a frame at a member port and propagate it everywhere it goes.

        The walk is breadth-first over pseudo-wire deliveries, with no
        visited set.  Split horizon in bridge_forward keeps a flood to one
        crossing per wire, but a known-unicast frame off a wire can take one
        more, so the walk is bounded instead: a frame that crosses more
        wires than the mesh has directions, P·(P−1), raises RuntimeError
        naming its trace id.  A frame has the same encapsulated size on
        every wire, so it is computed and held against the floor once.
        """
        port = self.ports[asn]
        pe = port.attach_pe
        tid = frame.trace_id
        log = self._log
        reason = ingress_filter(port, frame)
        if reason is not None:
            if log:
                log(_row((round_no, tid, pe, _label(asn), "drop:" + reason.value)))
            self.drops.append(DropRecord(round_no, asn, reason, tid))
            return InjectResult(accepted=False, drop_reason=reason)
        if log:
            log(_row((round_no, tid, pe, _label(asn), "accept")))

        result = InjectResult(accepted=True, drop_reason=None)
        deliveries = result.deliveries
        macs = self.macs
        src_unicast = is_unicast(frame.src_mac)
        size = frame.payload_size + ETHERNET_OVERHEAD + MPLS_OVERHEAD
        walks = size > self._floor  # only then can some LSP be too narrow
        emitted = crossed = 0
        limit = self._max_crossings
        # Appended to while it is iterated: breadth-first, as a FIFO queue.
        queue: List[Tuple[BridgeState, Attachment]] = [(self.bridges[pe], asn)]
        for here, arrived in queue:
            targets = bridge_forward(here, macs[here.pe], frame, arrived, round_no, src_unicast)
            emitted += len(targets)
            for via in targets:
                if log:
                    label = _label(via)
                    log(_row((round_no, tid, here.pe, label, "emit")))
                if isinstance(via, int):
                    # Local hand-off: no tunnel, no modelled access link.
                    if log:
                        log(_row((round_no, tid, here.pe, label, "deliver")))
                    deliveries.append(via)
                    continue
                if walks:
                    path = vpls_signal.resolve_lsp(self.labels, here.pe, via)
                    bad = transmit(size, (self.topo.links[i] for i in path))
                    if bad is not None:
                        if log:
                            log(_row((round_no, tid, here.pe, label,
                                       "drop:" + DropReason.MTU_EXCEEDED.value)))
                        self.drops.append(DropRecord(
                            round_no, None, DropReason.MTU_EXCEEDED, tid, offending_link=bad))
                        continue
                crossed += 1
                if crossed > limit:
                    raise RuntimeError("frame %r crossed more than %d pseudo-wires"
                                       % (tid, limit))
                if log:
                    log(_row((round_no, tid, via, _label(here.pe), "receive")))
                queue.append((self.bridges[via], here.pe))
        result.emissions, result.pw_traversals = emitted, crossed
        return result
