"""The emulated LAN itself: frames, port policy, learning bridges, transport.

Each PE runs a bridge whose attachments are its local member ports plus one
pseudo-wire to every other participating PE.  Because the wire mesh is full,
loop prevention needs no spanning tree: a frame arriving over a pseudo-wire
is never forwarded onto another one (split horizon), so any frame crosses
any wire at most once and visits each bridge at most once.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ixsim.model import Link, MemberPort, PortState, Topology, is_unicast
from ixsim.underlay import LabelTable
from ixsim.vpls_signal import Pseudowire

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


@dataclass(frozen=True)
class EthernetFrame:
    src_mac: str
    dst_mac: str
    ethertype: EtherType
    payload_size: int
    trace_id: str = ""


def is_broadcast(mac: str) -> bool:
    return mac == BROADCAST_MAC


@dataclass(frozen=True)
class PortRef:
    """Attachment identity for a local member port."""
    asn: int


@dataclass(frozen=True)
class PwRef:
    """Attachment identity for the pseudo-wire toward one remote PE."""
    remote_pe: str


Attachment = Union[PortRef, PwRef]


def attachment_label(via: Attachment) -> str:
    if isinstance(via, PortRef):
        return "port/%d" % via.asn
    return "pw/%s" % via.remote_pe


@dataclass
class MacEntry:
    where: Attachment
    learned_round: int


@dataclass
class BridgeState:
    """Per-PE forwarding state.  Mutated only by the single engine thread."""

    pe: str
    ports: Dict[int, MemberPort] = field(default_factory=dict)
    pws: Dict[str, Pseudowire] = field(default_factory=dict)
    mac_table: Dict[str, MacEntry] = field(default_factory=dict)
    aging_rounds: int = DEFAULT_MAC_AGING_ROUNDS

    def local_macs(self) -> set[str]:
        return {p.nominated_mac for p in self.ports.values()}

    def lookup(self, mac: str, round_no: int) -> Optional[MacEntry]:
        entry = self.mac_table.get(mac)
        if entry is None:
            return None
        if round_no - entry.learned_round >= self.aging_rounds:
            del self.mac_table[mac]
            return None
        return entry


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


@dataclass(frozen=True)
class Emission:
    frame: EthernetFrame
    via: Attachment
    encapsulated_size: int


def encapsulated_size(frame: EthernetFrame, via: Attachment) -> int:
    size = frame.payload_size + ETHERNET_OVERHEAD
    if isinstance(via, PwRef):
        size += MPLS_OVERHEAD
    return size


def _emit(frame: EthernetFrame, via: Attachment) -> Emission:
    return Emission(frame, via, encapsulated_size(frame, via))


def bridge_forward(
    bridge: BridgeState,
    frame: EthernetFrame,
    arrived_via: Attachment,
    round_no: int = 0,
) -> List[Emission]:
    """Learn, then flood or forward.  The caller has already run the ingress
    policy when the frame came from a local port; pseudo-wire arrivals were
    filtered once at their ingress PE and are trusted here.

    Split horizon: a frame off a pseudo-wire goes to local ports only.
    Known unicast toward its own arrival attachment is suppressed entirely.
    """
    src = frame.src_mac
    if is_unicast(src):
        remote_claims_local = (
            isinstance(arrived_via, PwRef) and src in bridge.local_macs())
        if not remote_claims_local:
            bridge.mac_table[src] = MacEntry(arrived_via, round_no)

    if not is_broadcast(frame.dst_mac):
        entry = bridge.lookup(frame.dst_mac, round_no)
        if entry is not None:
            if entry.where == arrived_via:
                return []  # would hairpin; the destination already saw it
            if isinstance(entry.where, PortRef) and entry.where.asn not in bridge.ports:
                del bridge.mac_table[frame.dst_mac]  # port went away; relearn
            else:
                return [_emit(frame, entry.where)]

    targets: List[Attachment] = [
        PortRef(asn)
        for asn, port in sorted(bridge.ports.items())
        if port.state is PortState.ACTIVE and PortRef(asn) != arrived_via
    ]
    if not isinstance(arrived_via, PwRef):
        targets += [PwRef(pe) for pe in sorted(bridge.pws)]
    return [_emit(frame, t) for t in targets]


def transmit(emission: Emission, links: Iterable[Link]) -> Optional[Link]:
    """MTU gate for one emission.  Returns the first link that cannot carry
    the encapsulated frame, or None when it fits everywhere."""
    for link in links:
        if emission.encapsulated_size > link.mtu:
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


@dataclass(frozen=True)
class TraceRow:
    round_no: int
    trace_id: str
    pe: str
    via: str
    action: str


TRACE_HEADER = "round,trace_id,pe,via,action"


def format_trace(rows: Iterable[TraceRow]) -> str:
    lines = [TRACE_HEADER]
    for r in rows:
        lines.append("%d,%s,%s,%s,%s" % (r.round_no, r.trace_id, r.pe, r.via, r.action))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class DropRecord:
    round_no: int
    port_asn: Optional[int]
    reason: DropReason
    trace_id: str
    offending_link: Optional[Link] = None


@dataclass
class InjectResult:
    accepted: bool
    drop_reason: Optional[DropReason]
    deliveries: List[int] = field(default_factory=list)
    pw_traversals: int = 0
    visited_pes: List[str] = field(default_factory=list)
    emissions: int = 0


class Fabric:
    """All bridges plus the transport glue between them.

    Owns the frame trace and the drop log; both survive reconvergence so a
    run's history stays complete.  ``labels`` is the label table of the
    convergence that built the bridges.  A pseudo-wire direction's links
    are walked from it the first time a frame crosses that direction and
    kept for this fabric's lifetime; reconvergence builds a new fabric, so
    no path outlives its table.
    """

    def __init__(
        self,
        topo: Topology,
        bridges: Dict[str, BridgeState],
        labels: LabelTable,
        trace: Optional[List[TraceRow]] = None,
        drops: Optional[List[DropRecord]] = None,
    ):
        self.topo = topo
        self.bridges = bridges
        self.labels = labels
        self.trace: List[TraceRow] = trace if trace is not None else []
        self.drops: List[DropRecord] = drops if drops is not None else []
        self._transport: Dict[Tuple[str, str], List[Link]] = {}

    def ports_by_asn(self) -> Dict[int, MemberPort]:
        out: Dict[int, MemberPort] = {}
        for bridge in self.bridges.values():
            out.update(bridge.ports)
        return out

    def port_with_ip(self, ip) -> Optional[MemberPort]:
        hits = [p for p in self.ports_by_asn().values() if p.exchange_ip == ip]
        hits.sort(key=lambda p: p.member_asn)
        return hits[0] if hits else None

    def clone(self) -> "Fabric":
        """Copy for probe traffic: shares immutable structure, keeps its own
        MAC tables and logs so probing never alters the real history.  The
        resolved transport is shared too, since it reads the same topology
        and label table."""
        bridges = {
            pe: BridgeState(
                pe=b.pe,
                ports=dict(b.ports),
                pws=dict(b.pws),
                mac_table={mac: MacEntry(e.where, e.learned_round)
                           for mac, e in b.mac_table.items()},
                aging_rounds=b.aging_rounds,
            )
            for pe, b in self.bridges.items()
        }
        copy = Fabric(self.topo, bridges, self.labels, trace=[], drops=[])
        copy._transport = self._transport
        return copy

    def _log(self, round_no: int, trace_id: str, pe: str, via: str, action: str):
        self.trace.append(TraceRow(round_no, trace_id, pe, via, action))

    def _transport_links(self, pw: Pseudowire, from_pe: str) -> List[Link]:
        key = (from_pe, pw.other(from_pe))
        links = self._transport.get(key)
        if links is None:
            path = pw.transport_from(from_pe, self.labels)
            links = [self.topo.links[i] for i in path.link_indices()]
            self._transport[key] = links
        return links

    def _port(self, asn: int) -> MemberPort:
        """The member port of ``asn``, from whichever bridge holds it."""
        for bridge in self.bridges.values():
            port = bridge.ports.get(asn)
            if port is not None:
                return port
        raise KeyError(asn)

    def inject(self, asn: int, frame: EthernetFrame, round_no: int = 0) -> InjectResult:
        """Offer a frame at a member port and propagate it everywhere it goes.

        The walk is breadth-first over pseudo-wire deliveries; split horizon
        in bridge_forward guarantees termination without a visited set, and
        the trace records would expose any violation of that.
        """
        port = self._port(asn)
        bridge = self.bridges[port.attach_pe]
        via = "port/%d" % asn
        reason = ingress_filter(port, frame)
        if reason is not None:
            self._log(round_no, frame.trace_id, port.attach_pe, via, "drop:%s" % reason.value)
            self.drops.append(DropRecord(round_no, asn, reason, frame.trace_id))
            return InjectResult(accepted=False, drop_reason=reason)
        self._log(round_no, frame.trace_id, port.attach_pe, via, "accept")

        result = InjectResult(accepted=True, drop_reason=None)
        queue: deque[Tuple[BridgeState, Attachment]] = deque([(bridge, PortRef(asn))])
        while queue:
            here, arrived = queue.popleft()
            result.visited_pes.append(here.pe)
            emissions = bridge_forward(here, frame, arrived, round_no)
            for em in emissions:
                result.emissions += 1
                label = attachment_label(em.via)
                self._log(round_no, frame.trace_id, here.pe, label, "emit")
                if isinstance(em.via, PortRef):
                    # Local hand-off: no tunnel, no modelled access link.
                    self._log(round_no, frame.trace_id, here.pe, label, "deliver")
                    result.deliveries.append(em.via.asn)
                    continue
                pw = here.pws[em.via.remote_pe]
                bad = transmit(em, self._transport_links(pw, here.pe))
                if bad is not None:
                    self._log(round_no, frame.trace_id, here.pe, label,
                              "drop:%s" % DropReason.MTU_EXCEEDED.value)
                    self.drops.append(DropRecord(
                        round_no, None, DropReason.MTU_EXCEEDED, frame.trace_id,
                        offending_link=bad))
                    continue
                remote = em.via.remote_pe
                result.pw_traversals += 1
                self._log(round_no, frame.trace_id, remote, "pw/%s" % here.pe, "receive")
                queue.append((self.bridges[remote], PwRef(here.pe)))
        return result
