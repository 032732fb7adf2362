"""Scenario files: a line-oriented description of one exchange deployment.

Grammar (one statement per line, ``#`` starts a comment, tokens split on
whitespace):

    node <name> loopback <ipv4> [rr] [rs]
    link <a> <b> [cost <int>] [mtu <int>] type <radio|leased>
    exchange-prefix <ipv4/len>
    member <asn> <name> port <node> mac <xx:..:xx> ip <ipv4> [transit] [quarantine]
    announce <asn> <ipv4/len>
    session bilateral <asn> <asn>
    session rs <asn> <rs-node>
    session transit <asn> <transit-asn> <default|full>
    external <ipv4/len>
    event <round> link-down <a> <b>
    event <round> link-up <a> <b>
    event <round> inject <asn> <dst-mac|broadcast> <arp|ipv4|other> <size>
    event <round> promote <asn>
    event <round> withdraw <asn> <prefix>

Entities must be declared before they are referenced.  Cost and MTU may be
omitted on links: cost defaults by link type (leased 1, radio 10) and MTU
to the fabric minimum of 1600.
"""

from __future__ import annotations

import ipaddress
import re
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Set, Tuple

from ixsim.dataplane import BROADCAST_MAC, EtherType
from ixsim.exchange_l3 import PeerKind, PeeringSession, RouteServer, TransitPolicy
from ixsim.model import (
    DEFAULT_LINK_COST,
    DEFAULT_LINK_MTU,
    DOC_ASN32_FIRST,
    DOC_ASN32_LAST,
    Link,
    LinkKind,
    MemberAs,
    MemberPort,
    PeNode,
    PortState,
    Topology,
    ValidationReport,
    Violation,
    validate_topology,
)

_MAC_RE = re.compile(r"^[0-9a-f]{2}(:[0-9a-f]{2}){5}$")


class ParseError(Exception):
    """Syntax or cross-reference failure, with its 1-based source line, or
    line 0 when no single line is at fault."""

    def __init__(self, line: int, message: str):
        super().__init__("line %d: %s" % (line, message) if line else message)
        self.line = line
        self.message = message


class ScenarioValidationError(ParseError):
    """The file parsed but the described exchange breaks an invariant, on
    source line ``line`` when one event is at fault."""

    def __init__(self, report, line: int = 0):
        worst = report.violations[0]
        parts = (worst.code, worst.subject, worst.detail)
        super().__init__(line, "validation failed: " + " ".join(p for p in parts if p))
        self.report = report


class EventKind(Enum):
    LINK_DOWN = "link_down"
    LINK_UP = "link_up"
    PORT_PROMOTE_CHECK = "port_promote_check"
    INJECT_FRAME = "inject_frame"
    MEMBER_WITHDRAW = "member_withdraw"


@dataclass(frozen=True)
class Event:
    at_round: int
    kind: EventKind
    args: tuple

    def __post_init__(self):
        if self.at_round < 0:
            raise ValueError("event round must be non-negative")


@dataclass(frozen=True)
class Scenario:
    topology: Topology
    members: Tuple[MemberAs, ...]
    ports: Tuple[MemberPort, ...]
    sessions: Tuple[PeeringSession, ...]
    route_servers: Tuple[RouteServer, ...]
    external_prefixes: Tuple[ipaddress.IPv4Network, ...]
    exchange_prefix: Optional[ipaddress.IPv4Network]
    events: Tuple[Event, ...]


class _Builder:
    def __init__(self):
        self.nodes: List[PeNode] = []
        self.links: List[Link] = []
        self.members: Dict[int, dict] = {}
        self.ports: Dict[int, MemberPort] = {}
        self.announced: Dict[int, List[ipaddress.IPv4Network]] = {}
        self.sessions: List[PeeringSession] = []
        self.rs_clients: Dict[str, List[int]] = {}
        self.externals: Dict[ipaddress.IPv4Network, int] = {}  # to its source line
        self.exchange_prefix: Optional[ipaddress.IPv4Network] = None
        self.events: List[Tuple[Event, int]] = []  # with its source line

    def node_names(self) -> set:
        return {n.name for n in self.nodes}


def _fail(line: int, message: str) -> None:
    raise ParseError(line, message)


def _want(tokens: List[str], count: int, line: int, what: str) -> None:
    if len(tokens) != count:
        _fail(line, "%s expects %d tokens, got %d" % (what, count, len(tokens)))


def _int(token: str, line: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        _fail(line, "bad %s %r" % (what, token))


def _ipv4(token: str, line: int) -> ipaddress.IPv4Address:
    try:
        return ipaddress.IPv4Address(token)
    except ValueError:
        _fail(line, "bad IPv4 address %r" % token)


def _network(token: str, line: int) -> ipaddress.IPv4Network:
    try:
        return ipaddress.IPv4Network(token)
    except ValueError:
        _fail(line, "bad prefix %r" % token)


def _mac(token: str, line: int) -> str:
    mac = token.lower()
    if not _MAC_RE.match(mac):
        _fail(line, "bad MAC address %r" % token)
    return mac


def _parse_node(b: _Builder, tokens: List[str], line: int) -> None:
    if len(tokens) < 4 or tokens[2] != "loopback":
        _fail(line, "node expects: node <name> loopback <ipv4> [rr] [rs]")
    name = tokens[1]
    loopback = _ipv4(tokens[3], line)
    flags = tokens[4:]
    for flag in flags:
        if flag not in ("rr", "rs"):
            _fail(line, "unknown node flag %r" % flag)
    b.nodes.append(PeNode(
        name=name,
        loopback=loopback,
        is_route_reflector="rr" in flags,
        hosts_route_server="rs" in flags,
    ))


def _parse_link(b: _Builder, tokens: List[str], line: int) -> None:
    if len(tokens) < 3:
        _fail(line, "link expects two endpoints")
    a, z = tokens[1], tokens[2]
    for end in (a, z):
        if end not in b.node_names():
            _fail(line, "unknown node %r" % end)
    cost: Optional[int] = None
    mtu: Optional[int] = None
    kind: Optional[LinkKind] = None
    rest = tokens[3:]
    i = 0
    while i < len(rest):
        key = rest[i]
        if key in ("cost", "mtu", "type"):
            if i + 1 >= len(rest):
                _fail(line, "%s needs a value" % key)
            value = rest[i + 1]
            if key == "cost":
                cost = _int(value, line, "cost")
            elif key == "mtu":
                mtu = _int(value, line, "mtu")
            else:
                try:
                    kind = LinkKind(value)
                except ValueError:
                    _fail(line, "unknown link type %r" % value)
            i += 2
        else:
            _fail(line, "unexpected token %r" % key)
    if kind is None:
        _fail(line, "link needs a type")
    b.links.append(Link(
        a=a, b=z,
        cost=cost if cost is not None else DEFAULT_LINK_COST[kind],
        mtu=mtu if mtu is not None else DEFAULT_LINK_MTU,
        kind=kind,
    ))


def _parse_member(b: _Builder, tokens: List[str], line: int) -> None:
    if (len(tokens) < 9 or tokens[3] != "port" or tokens[5] != "mac"
            or tokens[7] != "ip"):
        _fail(line, "member expects: member <asn> <name> port <node> "
                    "mac <mac> ip <ipv4> [transit] [quarantine]")
    asn = _int(tokens[1], line, "ASN")
    name = tokens[2]
    pe = tokens[4]
    if pe not in b.node_names():
        _fail(line, "unknown node %r" % pe)
    mac = _mac(tokens[6], line)
    ip = _ipv4(tokens[8], line)
    flags = tokens[9:]
    for flag in flags:
        if flag not in ("transit", "quarantine"):
            _fail(line, "unknown member flag %r" % flag)
    if asn in b.members:
        _fail(line, "member %d declared twice" % asn)
    b.members[asn] = {"name": name, "transit": "transit" in flags}
    b.ports[asn] = MemberPort(
        member_asn=asn,
        attach_pe=pe,
        nominated_mac=mac,
        exchange_ip=ip,
        state=PortState.QUARANTINE if "quarantine" in flags else PortState.ACTIVE,
    )
    b.announced.setdefault(asn, [])


def _parse_announce(b: _Builder, tokens: List[str], line: int) -> None:
    _want(tokens, 3, line, "announce")
    asn = _int(tokens[1], line, "ASN")
    if asn not in b.members:
        _fail(line, "unknown member %d" % asn)
    b.announced[asn].append(_network(tokens[2], line))


def _parse_session(b: _Builder, tokens: List[str], line: int) -> None:
    if len(tokens) < 2:
        _fail(line, "session expects a kind")
    kind = tokens[1]
    if kind == "bilateral":
        _want(tokens, 4, line, "session bilateral")
        left = _int(tokens[2], line, "ASN")
        right = _int(tokens[3], line, "ASN")
        for asn in (left, right):
            if asn not in b.members:
                _fail(line, "unknown member %d" % asn)
        if left == right:
            _fail(line, "bilateral session needs two members")
        b.sessions.append(PeeringSession(
            min(left, right), max(left, right), PeerKind.BILATERAL))
    elif kind == "rs":
        _want(tokens, 4, line, "session rs")
        asn = _int(tokens[2], line, "ASN")
        node = tokens[3]
        if asn not in b.members:
            _fail(line, "unknown member %d" % asn)
        host = next((n for n in b.nodes if n.name == node), None)
        if host is None:
            _fail(line, "unknown node %r" % node)
        if not host.hosts_route_server:
            _fail(line, "node %r hosts no route server" % node)
        b.rs_clients.setdefault(node, []).append(asn)
    elif kind == "transit":
        _want(tokens, 5, line, "session transit")
        asn = _int(tokens[2], line, "ASN")
        upstream = _int(tokens[3], line, "ASN")
        for ref in (asn, upstream):
            if ref not in b.members:
                _fail(line, "unknown member %d" % ref)
        if not b.members[upstream]["transit"]:
            _fail(line, "member %d does not provide transit" % upstream)
        if tokens[4] == "default":
            policy = TransitPolicy.DEFAULT_ONLY
        elif tokens[4] == "full":
            policy = TransitPolicy.FULL_TABLE
        else:
            _fail(line, "transit policy must be default or full, got %r" % tokens[4])
        b.sessions.append(PeeringSession(asn, upstream, PeerKind.TRANSIT, policy))
    else:
        _fail(line, "unknown session kind %r" % kind)


def _parse_event(b: _Builder, tokens: List[str], line: int) -> None:
    if len(tokens) < 3:
        _fail(line, "event expects a round and a kind")
    at_round = _int(tokens[1], line, "round")
    if at_round < 0:
        _fail(line, "event round must be non-negative")
    kind = tokens[2]
    rest = tokens[3:]
    if kind in ("link-down", "link-up"):
        _want(tokens, 5, line, "event %s" % kind)
        which = EventKind.LINK_DOWN if kind == "link-down" else EventKind.LINK_UP
        b.events.append((Event(at_round, which, (rest[0], rest[1])), line))
    elif kind == "inject":
        _want(tokens, 7, line, "event inject")
        asn = _int(rest[0], line, "ASN")
        dst = BROADCAST_MAC if rest[1] == "broadcast" else _mac(rest[1], line)
        try:
            ethertype = EtherType(rest[2])
        except ValueError:
            _fail(line, "unknown ethertype %r" % rest[2])
        size = _int(rest[3], line, "size")
        if size < 0:
            _fail(line, "negative payload size")
        b.events.append((Event(at_round, EventKind.INJECT_FRAME,
                               (asn, dst, ethertype, size)), line))
    elif kind == "promote":
        _want(tokens, 4, line, "event promote")
        b.events.append((Event(at_round, EventKind.PORT_PROMOTE_CHECK,
                               (_int(rest[0], line, "ASN"),)), line))
    elif kind == "withdraw":
        _want(tokens, 5, line, "event withdraw")
        asn = _int(rest[0], line, "ASN")
        b.events.append((Event(at_round, EventKind.MEMBER_WITHDRAW,
                               (asn, _network(rest[1], line))), line))
    else:
        _fail(line, "unknown event kind %r" % kind)


def _check_externals(externals: Dict[ipaddress.IPv4Network, int],
                     announced: Dict[int, Set[ipaddress.IPv4Network]]) -> None:
    """Raise ScenarioValidationError, on the external's line, for an external
    prefix equal to one a member announces: the two would share one
    reachability cell, in which the member probes its own prefix."""
    outside = set(externals)
    for asn, prefixes in announced.items():
        if not outside.isdisjoint(prefixes):
            prefix = min(prefixes & outside, key=externals.__getitem__)
            raise ScenarioValidationError(ValidationReport((Violation(
                "EXTERNAL_IS_MEMBER_PREFIX", str(prefix), str(asn)),)), externals[prefix])


def _check_events(
    topo: Topology,
    announced: Dict[int, Set[ipaddress.IPv4Network]],
    events: List[Tuple[Event, int]],
) -> None:
    """Raise ScenarioValidationError, with its source line, for the first
    event in round order that names what the run would not find when it
    comes: a link event with no link between its endpoints, an inject or
    promote for an ASN without a port, or a withdraw for an unknown member
    or for a prefix that member no longer announces.  ``announced`` maps
    every member's ASN to its prefixes and is used up on the way."""
    pairs = {link.endpoints for link in topo.links}
    for event, line in events:
        kind, args = event.kind, event.args
        bad = None
        if kind in (EventKind.LINK_DOWN, EventKind.LINK_UP):
            if tuple(sorted(args)) not in pairs:
                bad = Violation("NO_LINK", "%s-%s" % args)
        elif kind in (EventKind.INJECT_FRAME, EventKind.PORT_PROMOTE_CHECK):
            if args[0] not in announced:
                bad = Violation("NO_PORT", str(args[0]))
        elif args[0] not in announced:  # a withdraw from here on
            bad = Violation("UNKNOWN_MEMBER", str(args[0]))
        elif args[1] not in announced[args[0]]:
            bad = Violation("NOT_ANNOUNCED", str(args[0]), str(args[1]))
        else:
            announced[args[0]].remove(args[1])
        if bad is not None:
            raise ScenarioValidationError(ValidationReport((bad,)), line)


def parse_scenario(text: str) -> Scenario:
    """Parse and validate one scenario document.

    Raises ParseError for syntax and reference problems (with the offending
    line) and ScenarioValidationError when the parsed exchange violates a
    structural invariant or an event names what the run would not find
    (with the event's line).
    """
    b = _Builder()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        tokens = stripped.split()
        keyword = tokens[0]
        if keyword == "node":
            _parse_node(b, tokens, lineno)
        elif keyword == "link":
            _parse_link(b, tokens, lineno)
        elif keyword == "exchange-prefix":
            _want(tokens, 2, lineno, "exchange-prefix")
            if b.exchange_prefix is not None:
                _fail(lineno, "exchange-prefix declared twice")
            b.exchange_prefix = _network(tokens[1], lineno)
        elif keyword == "member":
            _parse_member(b, tokens, lineno)
        elif keyword == "announce":
            _parse_announce(b, tokens, lineno)
        elif keyword == "session":
            _parse_session(b, tokens, lineno)
        elif keyword == "external":
            _want(tokens, 2, lineno, "external")
            external = _network(tokens[1], lineno)
            if external in b.externals:
                _fail(lineno, "external %s declared twice" % external)
            b.externals[external] = lineno
        elif keyword == "event":
            _parse_event(b, tokens, lineno)
        else:
            _fail(lineno, "unknown statement %r" % keyword)

    topo = Topology.build(b.nodes, b.links)
    members = tuple(
        MemberAs(
            asn=asn,
            name=attrs["name"],
            is_transit=attrs["transit"],
            announced_prefixes=tuple(b.announced[asn]),
        )
        for asn, attrs in sorted(b.members.items())
    )
    ports = tuple(b.ports[asn] for asn in sorted(b.ports))

    servers = []
    for index, node in enumerate(topo.route_server_names()):
        clients = tuple(sorted(set(b.rs_clients.get(node, []))))
        servers.append(RouteServer(node, DOC_ASN32_FIRST + index, clients))

    if len(b.externals) + len(servers) > DOC_ASN32_LAST - DOC_ASN32_FIRST + 1:
        _fail(0, "documentation ASN pool exhausted by externals and route servers")

    report = validate_topology(topo, ports, members, b.exchange_prefix)
    if not report.ok:
        raise ScenarioValidationError(report)

    # A member line declares the member and its port, so ports and members
    # share their ASNs.
    announced = {m.asn: set(m.announced_prefixes) for m in members}
    _check_externals(b.externals, announced)
    events = sorted(b.events, key=lambda e: e[0].at_round)
    _check_events(topo, announced, events)
    return Scenario(
        topology=topo,
        members=members,
        ports=ports,
        sessions=tuple(b.sessions),
        route_servers=tuple(servers),
        external_prefixes=tuple(b.externals),
        exchange_prefix=b.exchange_prefix,
        events=tuple(event for event, _ in events),
    )


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_scenario(handle.read())
