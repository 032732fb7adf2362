"""The emulated LAN itself: frames, port policy, learning bridges, transport.

Each PE runs a bridge whose attachments are its local member ports plus one
pseudo-wire to every other participating PE.  Because the wire mesh is full,
loop prevention needs no spanning tree: a frame arriving over a pseudo-wire
is never forwarded onto another one (split horizon), so any frame crosses
any wire at most once and visits each bridge at most once.
"""

from __future__ import annotations

import copy
from collections import deque
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property, lru_cache
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

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


class EthernetFrame(NamedTuple):
    src_mac: str
    dst_mac: str
    ethertype: EtherType
    payload_size: int
    trace_id: str = ""


def is_broadcast(mac: str) -> bool:
    return mac == BROADCAST_MAC


class PortRef(NamedTuple):
    """Attachment identity for a local member port."""
    asn: int


class PwRef(NamedTuple):
    """Attachment identity for the pseudo-wire toward one remote PE."""
    remote_pe: str


Attachment = Union[PortRef, PwRef]


# Attachments and their trace labels are interned, one object per member
# port and per PE in the process, so the bridges rebuilt on every link
# event allocate none.
@lru_cache(maxsize=None)
def _port_attachment(asn: int) -> Tuple[PortRef, str]:
    return PortRef(asn), "port/%d" % asn


@lru_cache(maxsize=None)
def _wire_attachment(pe: str) -> Tuple[PwRef, str]:
    return PwRef(pe), "pw/%s" % pe


class MacEntry(NamedTuple):
    where: Attachment
    learned_round: int


@dataclass
class BridgeState:
    """Per-PE forwarding state.  Mutated only by the single engine thread.

    A bridge is never rewired once it has forwarded a frame: any change to
    a port or to the pseudo-wire mesh builds new bridges
    (``Simulation._rebuild_fabric``).  Its flood targets and local MACs
    are therefore derived from ``ports`` and ``pws`` once, on first use,
    and a clone shares them.  Only the MAC table changes.
    """

    pe: str
    ports: Dict[int, MemberPort] = field(default_factory=dict)
    pws: Dict[str, Pseudowire] = field(default_factory=dict)
    mac_table: Dict[str, MacEntry] = field(default_factory=dict)

    @cached_property
    def local_macs(self) -> FrozenSet[str]:
        return frozenset(p.nominated_mac for p in self.ports.values())

    @cached_property
    def port_targets(self) -> Tuple[PortRef, ...]:
        """Active local ports in ASN order."""
        return tuple(_port_attachment(asn)[0] for asn, port in sorted(self.ports.items())
                     if port.state is PortState.ACTIVE)

    @cached_property
    def wire_targets(self) -> Tuple[PwRef, ...]:
        """Pseudo-wires in remote-PE order."""
        return tuple(_wire_attachment(pe)[0] for pe in sorted(self.pws))

    def clone(self) -> "BridgeState":
        """Copy with its own MAC table, sharing everything else."""
        twin = copy.copy(self)  # the instance dict carries the derived values
        twin.mac_table = dict(self.mac_table)
        return twin

    def lookup(self, mac: str, round_no: int) -> Optional[MacEntry]:
        entry = self.mac_table.get(mac)
        if entry is None:
            return None
        if round_no - entry.learned_round >= DEFAULT_MAC_AGING_ROUNDS:
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


def bridge_forward(
    bridge: BridgeState,
    frame: EthernetFrame,
    arrived_via: Attachment,
    round_no: int,
    src_unicast: bool,
) -> Sequence[Attachment]:
    """Learn, then return the attachments the frame leaves by.  The caller
    has already run the ingress policy when the frame came from a local
    port; pseudo-wire arrivals were filtered once at their ingress PE and
    are trusted here.  Only a unicast source is learned; ``src_unicast`` is
    whether the source MAC is unicast, which holds for the whole walk of a
    frame, so the caller decides it once.

    Split horizon: a frame off a pseudo-wire goes to local ports only, and
    the result is then ``bridge.port_targets`` itself, which callers must
    not mutate.  Known unicast toward its own arrival is suppressed entirely.
    """
    src = frame.src_mac
    from_wire = isinstance(arrived_via, PwRef)
    if src_unicast and not (from_wire and src in bridge.local_macs):
        bridge.mac_table[src] = MacEntry(arrived_via, round_no)

    dst = frame.dst_mac
    if dst != BROADCAST_MAC:
        entry = bridge.lookup(dst, round_no)
        if entry is not None:
            where = entry.where
            if where == arrived_via:
                return ()  # would hairpin; the destination already saw it
            if isinstance(where, PortRef) and where.asn not in bridge.ports:
                del bridge.mac_table[dst]  # port went away; relearn
            else:
                return (where,)

    if from_wire:
        return bridge.port_targets
    out: List[Attachment] = [via for via in bridge.port_targets if via != arrived_via]
    out += bridge.wire_targets
    return out


def transmit(size: int, links: Iterable[Link]) -> Optional[Link]:
    """MTU gate for a frame of ``size`` bytes, tunnel headers included.
    Returns the first link that cannot carry it, or None when it fits."""
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


TRACE_HEADER = "round,trace_id,pe,via,action"


def format_trace(rows: Iterable[TraceRow]) -> str:
    lines = [TRACE_HEADER]
    lines += ["%d,%s,%s,%s,%s" % row for row in rows]  # a row is its fields in order
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
    emissions: int = 0


class Fabric:
    """All bridges plus the transport glue between them.

    Owns the frame trace and the drop log; both survive reconvergence so a
    run's history stays complete.  ``ports`` indexes every bridge's member
    ports by ASN.  ``labels`` is the underlay's next-hop table from the
    convergence that built the bridges: each node's tree's own first-hop
    map, keyed by node and then by destination.  A pseudo-wire direction's
    links and its path MTU, the smallest MTU among them, are walked from
    it the first time a frame crosses that direction and kept for this
    fabric's lifetime; reconvergence builds a new fabric, so no path
    outlives its table.  A frame is gated on the path MTU; the links are
    scanned only on a drop.
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
        self.ports: Dict[int, MemberPort] = {
            asn: port for bridge in bridges.values() for asn, port in bridge.ports.items()}
        self._transport: Dict[Tuple[str, str], Tuple[int, List[Link]]] = {}
        self._log = self.trace.append  # None on a probe clone

    def port_with_ip(self, ip) -> Optional[MemberPort]:
        hits = [p for p in self.ports.values() if p.exchange_ip == ip]
        hits.sort(key=lambda p: p.member_asn)
        return hits[0] if hits else None

    def clone(self) -> "Fabric":
        """Copy for probe traffic, with its own MAC tables and drop log, so
        probing never alters the real history.  It shares the topology,
        next-hop table, port index and walked transport, and each bridge's
        wiring.  It records drops but no trace rows: nothing reads a
        probe's rows, so its ``trace`` stays empty."""
        probe = copy.copy(self)
        probe.bridges = {pe: b.clone() for pe, b in self.bridges.items()}
        probe.trace, probe.drops, probe._log = [], [], None
        return probe

    def _path(self, here: BridgeState, remote: str) -> Tuple[int, List[Link]]:
        """Path MTU and links of the wire direction from ``here`` to
        ``remote``."""
        key = (here.pe, remote)
        path = self._transport.get(key)
        if path is None:
            links = [self.topo.links[i]
                     for i in here.pws[remote].transport_from(here.pe, self.labels)]
            path = self._transport[key] = (min(link.mtu for link in links), links)
        return path

    def inject(self, asn: int, frame: EthernetFrame, round_no: int = 0) -> InjectResult:
        """Offer a frame at a member port and propagate it everywhere it goes.

        The walk is breadth-first over pseudo-wire deliveries; split horizon
        in bridge_forward guarantees termination without a visited set, and
        the trace records would expose any violation of that.  A frame has
        the same encapsulated size on every wire, so it is computed once.
        """
        port = self.ports[asn]
        pe = port.attach_pe
        tid = frame.trace_id
        log = self._log
        arrival, via = _port_attachment(asn)
        reason = ingress_filter(port, frame)
        if reason is not None:
            if log:
                log(TraceRow(round_no, tid, pe, via, "drop:" + reason.value))
            self.drops.append(DropRecord(round_no, asn, reason, tid))
            return InjectResult(accepted=False, drop_reason=reason)
        if log:
            log(TraceRow(round_no, tid, pe, via, "accept"))

        result = InjectResult(accepted=True, drop_reason=None)
        deliveries = result.deliveries
        src_unicast = is_unicast(frame.src_mac)
        size = frame.payload_size + ETHERNET_OVERHEAD + MPLS_OVERHEAD
        emitted = crossed = 0
        queue: deque[Tuple[BridgeState, Attachment]] = deque([(self.bridges[pe], arrival)])
        while queue:
            here, arrived = queue.popleft()
            targets = bridge_forward(here, frame, arrived, round_no, src_unicast)
            emitted += len(targets)
            for via in targets:
                if isinstance(via, PortRef):
                    # Local hand-off: no tunnel, no modelled access link.
                    if log:
                        label = _port_attachment(via.asn)[1]
                        log(TraceRow(round_no, tid, here.pe, label, "emit"))
                        log(TraceRow(round_no, tid, here.pe, label, "deliver"))
                    deliveries.append(via.asn)
                    continue
                remote = via.remote_pe
                if log:
                    label = _wire_attachment(remote)[1]
                    log(TraceRow(round_no, tid, here.pe, label, "emit"))
                mtu, links = self._path(here, remote)
                if size > mtu:
                    if log:
                        log(TraceRow(round_no, tid, here.pe, label,
                                     "drop:" + DropReason.MTU_EXCEEDED.value))
                    self.drops.append(DropRecord(
                        round_no, None, DropReason.MTU_EXCEEDED, tid,
                        offending_link=transmit(size, links)))
                    continue
                crossed += 1
                back, back_label = _wire_attachment(here.pe)
                if log:
                    log(TraceRow(round_no, tid, remote, back_label, "receive"))
                queue.append((self.bridges[remote], back))
        result.emissions, result.pw_traversals = emitted, crossed
        return result
