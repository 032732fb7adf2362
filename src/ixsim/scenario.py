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

A node name is ASCII letters, digits, ``.``, ``_`` and ``-``, so that every
output can carry it.  Numbers are ASCII decimal, addresses dotted quads
without leading zeros and prefixes ``<ipv4>/<len>`` with a length from 0 to
32, also without leading zeros; a netmask or hostmask after the ``/`` is
read as ``ipaddress`` reads it.  Entities must be declared before they are
referenced.  Cost and MTU may be omitted on links: cost defaults by link
type (leased 1, radio 10) and MTU to the fabric minimum of 1600.  BGP keeps
one session per peer pair, so a bilateral pair repeated in either order, a
second transit session for the same member and upstream, and a transit
session from a member to itself are rejected on the later line.  A repeated
``session rs`` or ``announce`` line is not: the server keeps each client
once, and the member each prefix once, in first-declared order, so the
repeat changes nothing.
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
# A dotted quad as ipaddress reads one: ASCII digits, no leading zeros, <= 255.
_QUAD_RE = re.compile(r"\.".join([r"(25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9]?[0-9])"] * 4))
# A prefix length: ASCII decimal without leading zeros, at most 32.
_LENGTH_RE = re.compile(r"3[0-2]|[12]?[0-9]")
# A node name every output can carry: quoted in Graphviz, a CSV trace field
# and part of a ``|``-separated RIB line.
_NAME_RE = re.compile(r"[A-Za-z0-9._-]+")


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
        self.named: Dict[str, PeNode] = {}  # first of each name; repeats are DUP_NODE
        self.links: List[Link] = []
        self.members: Dict[int, Tuple[str, bool]] = {}  # to (name, is_transit)
        self.ports: Dict[int, MemberPort] = {}
        self.announced: Dict[int, Dict[ipaddress.IPv4Network, None]] = {}
        self.sessions: Dict[tuple, PeeringSession] = {}  # by (a, b, kind)
        self.rs_clients: Dict[str, Set[int]] = {}
        self.externals: Dict[ipaddress.IPv4Network, int] = {}  # to its source line
        self.exchange_prefix: Optional[ipaddress.IPv4Network] = None
        self.events: List[Tuple[Event, int]] = []  # with its source line


def _fail(line: int, message: str) -> None:
    raise ParseError(line, message)


def _want(tokens: List[str], count: int, line: int, what: str) -> None:
    if len(tokens) != count:
        _fail(line, "%s expects %d tokens, got %d" % (what, count, len(tokens)))


def _int(token: str, line: int, what: str) -> int:
    digits = token[1:] if token[:1] == "-" else token
    try:
        if digits.isascii() and digits.isdigit():
            return int(token)
    except ValueError:  # more digits than int() converts
        pass
    _fail(line, "bad %s %r" % (what, token))


def _packed(token: str) -> bytes:
    match = _QUAD_RE.fullmatch(token)
    if match is None:
        raise ValueError(token)
    return bytes(map(int, match.groups()))


def _ipv4(token: str, line: int) -> ipaddress.IPv4Address:
    try:
        return ipaddress.IPv4Address(_packed(token))
    except ValueError:
        _fail(line, "bad IPv4 address %r" % token)


def _network(token: str, line: int) -> ipaddress.IPv4Network:
    address, slash, mask = token.partition("/")
    try:
        if not slash:
            mask = 32
        elif _LENGTH_RE.fullmatch(mask):
            mask = int(mask)
        elif not _QUAD_RE.fullmatch(mask):  # nor a netmask or hostmask
            raise ValueError(mask)
        return ipaddress.IPv4Network((_packed(address), mask))
    except ValueError:
        _fail(line, "bad prefix %r" % token)


def _mac(token: str, line: int) -> str:
    mac = token.lower()
    if not _MAC_RE.match(mac):
        _fail(line, "bad MAC address %r" % token)
    return mac


def _choice(token: str, options, line: int, message: str):
    """``token`` if it is one of ``options``, or its value when ``options``
    is a map; otherwise a ParseError reading ``message % token``."""
    if token not in options:
        _fail(line, message % (token,))
    return options[token] if isinstance(options, dict) else token


def _node(b: _Builder, token: str, line: int) -> PeNode:
    if token not in b.named:
        _fail(line, "unknown node %r" % token)
    return b.named[token]


def _member(b: _Builder, token: str, line: int) -> int:
    asn = _int(token, line, "ASN")
    if asn not in b.members:
        _fail(line, "unknown member %d" % asn)
    return asn


_LINK_KINDS = {kind.value: kind for kind in LinkKind}
_SESSION_TOKENS = {"bilateral": 4, "rs": 4, "transit": 5}  # tokens on the line
_POLICIES = {policy.value: policy for policy in TransitPolicy}
_ETHERTYPES = {ethertype.value: ethertype for ethertype in EtherType}
_EVENT_FORMS = {  # kind token -> (kind, tokens on the line)
    "link-down": (EventKind.LINK_DOWN, 5),
    "link-up": (EventKind.LINK_UP, 5),
    "inject": (EventKind.INJECT_FRAME, 7),
    "promote": (EventKind.PORT_PROMOTE_CHECK, 4),
    "withdraw": (EventKind.MEMBER_WITHDRAW, 5),
}


def _parse_node(b: _Builder, tokens: List[str], line: int) -> None:
    if len(tokens) < 4 or tokens[2] != "loopback":
        _fail(line, "node expects: node <name> loopback <ipv4> [rr] [rs]")
    if not _NAME_RE.fullmatch(tokens[1]):
        _fail(line, "bad node name %r" % tokens[1])
    loopback = _ipv4(tokens[3], line)
    flags = [_choice(flag, ("rr", "rs"), line, "unknown node flag %r") for flag in tokens[4:]]
    node = PeNode(tokens[1], loopback, is_route_reflector="rr" in flags,
                  hosts_route_server="rs" in flags)
    b.nodes.append(node)
    b.named.setdefault(node.name, node)


def _parse_link(b: _Builder, tokens: List[str], line: int) -> None:
    if len(tokens) < 3:
        _fail(line, "link expects two endpoints")
    a, z = _node(b, tokens[1], line).name, _node(b, tokens[2], line).name
    options = {}
    rest = tokens[3:]
    for i in range(0, len(rest), 2):
        key = _choice(rest[i], ("cost", "mtu", "type"), line, "unexpected token %r")
        if i + 1 == len(rest):
            _fail(line, "%s needs a value" % key)
        value = rest[i + 1]
        options[key] = (_choice(value, _LINK_KINDS, line, "unknown link type %r")
                        if key == "type" else _int(value, line, key))
    if "type" not in options:
        _fail(line, "link needs a type")
    kind = options["type"]
    b.links.append(Link(a, z, cost=options.get("cost", DEFAULT_LINK_COST[kind]),
                        mtu=options.get("mtu", DEFAULT_LINK_MTU), kind=kind))


def _parse_exchange_prefix(b: _Builder, tokens: List[str], line: int) -> None:
    _want(tokens, 2, line, "exchange-prefix")
    if b.exchange_prefix is not None:
        _fail(line, "exchange-prefix declared twice")
    b.exchange_prefix = _network(tokens[1], line)


def _parse_member(b: _Builder, tokens: List[str], line: int) -> None:
    if (len(tokens) < 9 or tokens[3] != "port" or tokens[5] != "mac"
            or tokens[7] != "ip"):
        _fail(line, "member expects: member <asn> <name> port <node> "
                    "mac <mac> ip <ipv4> [transit] [quarantine]")
    asn = _int(tokens[1], line, "ASN")
    pe = _node(b, tokens[4], line).name
    mac = _mac(tokens[6], line)
    ip = _ipv4(tokens[8], line)
    flags = [_choice(flag, ("transit", "quarantine"), line, "unknown member flag %r")
             for flag in tokens[9:]]
    if asn in b.members:
        _fail(line, "member %d declared twice" % asn)
    b.members[asn] = (tokens[2], "transit" in flags)
    b.ports[asn] = MemberPort(asn, pe, mac, ip, state=(
        PortState.QUARANTINE if "quarantine" in flags else PortState.ACTIVE))
    b.announced[asn] = {}


def _parse_announce(b: _Builder, tokens: List[str], line: int) -> None:
    _want(tokens, 3, line, "announce")
    b.announced[_member(b, tokens[1], line)][_network(tokens[2], line)] = None


def _parse_session(b: _Builder, tokens: List[str], line: int) -> None:
    if len(tokens) < 2:
        _fail(line, "session expects a kind")
    kind = tokens[1]
    _want(tokens, _choice(kind, _SESSION_TOKENS, line, "unknown session kind %r"),
          line, "session " + kind)
    asn = _member(b, tokens[2], line)
    if kind == "rs":
        host = _node(b, tokens[3], line)
        if not host.hosts_route_server:
            _fail(line, "node %r hosts no route server" % host.name)
        b.rs_clients.setdefault(host.name, set()).add(asn)
        return
    other = _member(b, tokens[3], line)
    if asn == other:
        _fail(line, "%s session needs two members" % kind)
    if kind == "bilateral":
        session = PeeringSession(min(asn, other), max(asn, other), PeerKind.BILATERAL)
    else:
        if not b.members[other][1]:
            _fail(line, "member %d does not provide transit" % other)
        session = PeeringSession(asn, other, PeerKind.TRANSIT, _choice(
            tokens[4], _POLICIES, line, "transit policy must be default or full, got %r"))
    key = (session.a, session.b, session.kind)
    if key in b.sessions:
        _fail(line, "session %s %d %d declared twice" % (kind, session.a, session.b))
    b.sessions[key] = session


def _parse_external(b: _Builder, tokens: List[str], line: int) -> None:
    _want(tokens, 2, line, "external")
    external = _network(tokens[1], line)
    if external in b.externals:
        _fail(line, "external %s declared twice" % external)
    b.externals[external] = line


def _parse_event(b: _Builder, tokens: List[str], line: int) -> None:
    if len(tokens) < 3:
        _fail(line, "event expects a round and a kind")
    at_round = _int(tokens[1], line, "round")
    if at_round < 0:
        _fail(line, "event round must be non-negative")
    kind, count = _choice(tokens[2], _EVENT_FORMS, line, "unknown event kind %r")
    _want(tokens, count, line, "event " + tokens[2])
    if kind in (EventKind.LINK_DOWN, EventKind.LINK_UP):
        args = (tokens[3], tokens[4])
    elif kind is EventKind.INJECT_FRAME:
        asn = _int(tokens[3], line, "ASN")
        dst = BROADCAST_MAC if tokens[4] == "broadcast" else _mac(tokens[4], line)
        ethertype = _choice(tokens[5], _ETHERTYPES, line, "unknown ethertype %r")
        size = _int(tokens[6], line, "size")
        if size < 0:
            _fail(line, "negative payload size")
        args = (asn, dst, ethertype, size)
    elif kind is EventKind.PORT_PROMOTE_CHECK:
        args = (_int(tokens[3], line, "ASN"),)
    else:
        args = (_int(tokens[3], line, "ASN"), _network(tokens[4], line))
    b.events.append((Event(at_round, kind, args), line))


_STATEMENTS = {
    "node": _parse_node,
    "link": _parse_link,
    "exchange-prefix": _parse_exchange_prefix,
    "member": _parse_member,
    "announce": _parse_announce,
    "session": _parse_session,
    "external": _parse_external,
    "event": _parse_event,
}


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
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            _choice(tokens[0], _STATEMENTS, lineno, "unknown statement %r")(b, tokens, lineno)

    topo = Topology.build(b.nodes, b.links)
    members = tuple(MemberAs(asn, *b.members[asn], tuple(b.announced[asn]))
                    for asn in sorted(b.members))
    ports = tuple(b.ports[asn] for asn in sorted(b.ports))

    servers = tuple(RouteServer(node, DOC_ASN32_FIRST + index,
                                tuple(sorted(b.rs_clients.get(node, ()))))
                    for index, node in enumerate(topo.route_server_names()))

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
        sessions=tuple(b.sessions.values()),
        route_servers=servers,
        external_prefixes=tuple(b.externals),
        exchange_prefix=b.exchange_prefix,
        events=tuple(event for event, _ in events),
    )


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_scenario(handle.read())
