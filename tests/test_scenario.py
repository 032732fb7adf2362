"""Scenario grammar, reference checking and cross-statement wiring."""

from __future__ import annotations

import ipaddress
import re
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import load_generator, load_whix
from ixsim.dataplane import BROADCAST_MAC, EtherType
from ixsim.exchange_l3 import PeerKind, TransitPolicy
from ixsim.model import LinkKind, PortState
from ixsim.scenario import (
    Event,
    EventKind,
    ParseError,
    ScenarioValidationError,
    _ipv4,
    _network,
    load_scenario,
    parse_scenario,
)

BASE = """\
node mallaig loopback 172.16.0.1 rr rs
node kyle loopback 172.16.0.3
link mallaig kyle type radio
exchange-prefix 192.0.2.0/24
member 64496 one port mallaig mac 02:00:00:00:00:01 ip 192.0.2.11
member 64497 two port kyle mac 02:00:00:00:00:02 ip 192.0.2.12
"""


def parse(text):
    return parse_scenario(textwrap.dedent(text))


def line_of(text):
    with pytest.raises(ParseError) as info:
        parse(text)
    return info.value.line, info.value


def test_minimal_scenario_wires_up():
    scn = parse(BASE)
    assert scn.topology.node_names() == ["kyle", "mallaig"]
    assert scn.topology.node("mallaig").is_route_reflector
    assert scn.topology.node("mallaig").hosts_route_server
    assert not scn.topology.node("kyle").is_route_reflector
    assert [m.asn for m in scn.members] == [64496, 64497]
    assert [p.member_asn for p in scn.ports] == [64496, 64497]
    assert scn.exchange_prefix == ipaddress.IPv4Network("192.0.2.0/24")
    assert scn.members[0].name == "one"


def test_comments_and_blank_lines_are_ignored():
    scn = parse("""\
    # a full-line comment

    node solo loopback 172.16.0.1  # trailing comment
    """)
    assert scn.topology.node_names() == ["solo"]


def test_link_defaults_follow_the_kind():
    scn = parse(BASE + "link mallaig kyle type leased\n")
    radio, leased = scn.topology.links
    assert (radio.kind, radio.cost, radio.mtu) == (LinkKind.RADIO, 10, 1600)
    assert (leased.kind, leased.cost, leased.mtu) == (LinkKind.LEASED, 1, 1600)


def test_link_accepts_explicit_cost_and_mtu_in_any_order():
    scn = parse(BASE + "link kyle mallaig mtu 1700 cost 3 type leased\n")
    link = scn.topology.links[-1]
    assert (link.cost, link.mtu, link.kind) == (3, 1700, LinkKind.LEASED)


def test_parse_errors_carry_the_line_number():
    line, err = line_of(BASE + "link mallaig ghost type radio\n")
    assert line == 7
    assert "ghost" in err.message


@pytest.mark.parametrize("stmt,needle", [
    ("node broken 172.16.0.9", "loopback"),
    ("node broken loopback 999.0.0.1", "IPv4"),
    ("node broken loopback 172.16.0.09", "IPv4"),
    ("node broken loopback 172.16.0.\u0669", "IPv4"),
    ("node broken loopback 172.16.0.9 shiny", "flag"),
    ('node ky"le loopback 172.16.0.9', "bad node name"),
    ("node ky,le loopback 172.16.0.9", "bad node name"),
    ("node s|mo loopback 172.16.0.9", "bad node name"),
    ("link mallaig kyle", "type"),
    ("link mallaig kyle type laser", "link type"),
    ("link mallaig kyle type radio cost", "value"),
    ("link mallaig kyle type radio weight 3", "unexpected"),
    ("exchange-prefix 192.0.2.0/24", "twice"),
    ("member 64496 again port mallaig mac 02:00:00:00:00:09 ip 192.0.2.19", "twice"),
    ("member 64498 x port ghost mac 02:00:00:00:00:03 ip 192.0.2.13", "ghost"),
    ("member 64498 x port kyle mac nope ip 192.0.2.13", "MAC"),
    ("member 64498 x port kyle mac 02:00:00:00:00:03 ip 192.0.2.13 vip", "flag"),
    ("announce 99999 10.0.0.0/24", "unknown member"),
    ("announce 64496 10.0.0.0/33", "prefix"),
    ("announce 64496 10.0.0.1/24", "prefix"),
    ("announce 64496 10.0.0.0/24/8", "prefix"),
    ("announce 64496 10.0.0.0/024", "prefix"),
    ("announce 64496 10.0.0.0/+24", "prefix"),
    ("announce 64496 10.0.0.0/\uff12\uff14", "prefix"),
    ("announce 6_4496 10.0.0.0/24", "bad ASN"),
    ("announce +64496 10.0.0.0/24", "bad ASN"),
    ("announce \uff16\uff14\uff14\uff19\uff16 10.0.0.0/24", "bad ASN"),
    pytest.param("announce %s 10.0.0.0/24" % ("1" * 5000), "bad ASN", id="announce-5000-digits"),
    ("session bilateral 64496 64496", "two members"),
    ("session bilateral 64496 99999", "unknown member"),
    ("session rs 64496 kyle", "route server"),
    ("session rs 64496 ghost", "unknown node"),
    ("session transit 64496 64497 default", "transit"),
    ("session transit 64496 64496 default", "two members"),
    ("session carrier 64496 64497", "session kind"),
    ("event 1 explode kyle", "event kind"),
    ("event -1 promote 64496", "non-negative"),
    ("event 1 inject 64496 broadcast smoke 64", "ethertype"),
    ("event 1 inject 64496 broadcast arp -5", "negative"),
    ("banana", "unknown statement"),
])
def test_rejected_statements(stmt, needle):
    line, err = line_of(BASE + stmt + "\n")
    assert line == 7
    assert needle.lower() in err.message.lower()


OCTETS = ["0", "00", "01", "9", "99", "199", "200", "249", "250", "255", "256", "1000", ""]
MASKS = ["0", "24", "32", "33", "024", "-1", "", "255.255.255.0", "0.0.0.255", "255.0.255.0",
         "24/5", "\u0662\u0664"]
ADDRESS_TOKENS = st.text("0123456789./:x-\u0661\uff11\x00\n", max_size=24) | st.builds(
    lambda octets, mask: ".".join(octets) + ("" if mask is None else "/" + mask),
    st.lists(st.sampled_from(OCTETS), min_size=4, max_size=4),
    st.none() | st.sampled_from(MASKS))


@settings(max_examples=400, deadline=None)
@given(token=ADDRESS_TOKENS)
def test_address_reading_matches_ipaddress(token):
    """The parser reads what ``ipaddress`` reads, except a prefix length
    with a leading zero: that is left out of the comparison and must be
    rejected."""
    for read, reference in ((_ipv4, ipaddress.IPv4Address), (_network, ipaddress.IPv4Network)):
        try:
            want = reference(token)
        except ValueError:
            want = None
        if read is _network and re.fullmatch("0[0-9]+", token.partition("/")[2]):
            want = None
        try:
            got = read(token, 1)
        except ParseError:
            got = None
        assert got == want


def test_member_flags_set_role_and_state():
    scn = parse(BASE
                + "member 64510 carrier port kyle mac 02:00:00:00:00:0b"
                  " ip 192.0.2.21 transit\n"
                + "member 64509 newcomer port kyle mac 02:00:00:00:00:0c"
                  " ip 192.0.2.22 quarantine\n")
    members = {m.asn: m for m in scn.members}
    assert members[64510].is_transit
    assert not members[64509].is_transit
    by_asn = {p.member_asn: p for p in scn.ports}
    assert by_asn[64510].state is PortState.ACTIVE
    assert by_asn[64509].state is PortState.QUARANTINE
    assert by_asn[64509].nominated_mac == "02:00:00:00:00:0c"


def test_mac_addresses_are_normalised_to_lower_case():
    scn = parse(BASE.replace("02:00:00:00:00:01", "02:AA:00:00:00:01"))
    assert scn.ports[0].nominated_mac == "02:aa:00:00:00:01"


def test_announce_accumulates_in_order():
    scn = parse(BASE + "announce 64496 10.96.1.0/24\nannounce 64496 10.96.2.0/24\n")
    assert scn.members[0].announced_prefixes == (
        ipaddress.IPv4Network("10.96.1.0/24"),
        ipaddress.IPv4Network("10.96.2.0/24"),
    )


def test_bilateral_sessions_are_normalised():
    scn = parse(BASE + "session bilateral 64497 64496\n")
    session = scn.sessions[0]
    assert (session.a, session.b, session.kind) == (64496, 64497, PeerKind.BILATERAL)


def test_rs_sessions_get_service_numbers_per_host():
    text = BASE.replace("node kyle loopback 172.16.0.3",
                        "node kyle loopback 172.16.0.3 rs")
    scn = parse(text
                + "session rs 64496 mallaig\n"
                + "session rs 64496 mallaig\n"  # duplicates collapse
                + "session rs 64497 mallaig\n"
                + "session rs 64497 kyle\n")
    by_host = {s.host_pe: s for s in scn.route_servers}
    assert by_host["kyle"].service_asn == 65536  # hosts numbered in name order
    assert by_host["mallaig"].service_asn == 65537
    assert by_host["mallaig"].client_sessions == (64496, 64497)
    assert by_host["kyle"].client_sessions == (64497,)
    assert {(asn, s.service_asn, s.host_pe) for s in scn.route_servers
            for asn in s.client_sessions} == {
        (64497, 65536, "kyle"),
        (64496, 65537, "mallaig"),
        (64497, 65537, "mallaig"),
    }


def test_transit_session_needs_a_transit_member():
    text = (BASE
            + "member 64510 carrier port kyle mac 02:00:00:00:00:0b"
              " ip 192.0.2.21 transit\n"
            + "session transit 64496 64510 default\n"
            + "session transit 64497 64510 full\n")
    scn = parse(text)
    transit = [s for s in scn.sessions if s.kind is PeerKind.TRANSIT]
    assert {(s.a, s.policy) for s in transit} == {
        (64496, TransitPolicy.DEFAULT_ONLY),
        (64497, TransitPolicy.FULL_TABLE),
    }
    with pytest.raises(ParseError):
        parse(BASE + "session transit 64496 64497 sideways\n")


@pytest.mark.parametrize("first,again,message", [
    ("session bilateral 64496 64497", "session bilateral 64496 64497",
     "session bilateral 64496 64497 declared twice"),
    ("session bilateral 64496 64497", "session bilateral 64497 64496",
     "session bilateral 64496 64497 declared twice"),
    ("session transit 64496 64510 default", "session transit 64496 64510 full",
     "session transit 64496 64510 declared twice"),
], ids=["bilateral", "bilateral-reversed", "transit-other-policy"])
def test_a_peer_pair_gets_one_session(first, again, message):
    # BGP keeps one session per peer pair (RFC 4271 section 6.8); the
    # transit member takes line 7, the first session line 8
    text = (BASE + "member 64510 carrier port kyle mac 02:00:00:00:00:0b"
                   " ip 192.0.2.21 transit\n" + first + "\n")
    assert len(parse(text).sessions) == 1
    line, err = line_of(text + again + "\n")
    assert (line, err.message) == (9, message)


def test_whix_and_generated_workloads_parse():
    # a parser rule that rejects a generated file fails here, not only in
    # the benchmark
    load_whix()
    generator = load_generator()
    for workload in sorted(generator.WORKLOADS):
        for seed in range(1, 11):
            parse_scenario(generator.generate(workload, seed))


def test_externals_keep_file_order():
    scn = parse(BASE + "external 203.0.113.0/24\nexternal 198.51.100.0/24\n")
    assert [str(p) for p in scn.external_prefixes] == [
        "203.0.113.0/24", "198.51.100.0/24"]


def test_event_forms_parse_to_their_kinds():
    scn = parse(BASE + textwrap.dedent("""\
        announce 64496 10.96.1.0/24
        event 3 link-down mallaig kyle
        event 4 link-up mallaig kyle
        event 1 inject 64496 broadcast arp 64
        event 1 inject 64496 02:00:00:00:00:02 ipv4 1400
        event 5 promote 64497
        event 6 withdraw 64496 10.96.1.0/24
        """))
    kinds = [(e.at_round, e.kind) for e in scn.events]
    assert kinds == [
        (1, EventKind.INJECT_FRAME),
        (1, EventKind.INJECT_FRAME),
        (3, EventKind.LINK_DOWN),
        (4, EventKind.LINK_UP),
        (5, EventKind.PORT_PROMOTE_CHECK),
        (6, EventKind.MEMBER_WITHDRAW),
    ]
    first, second = scn.events[0], scn.events[1]
    assert first.args == (64496, BROADCAST_MAC, EtherType.ARP, 64)
    assert second.args == (64496, "02:00:00:00:00:02", EtherType.IPV4, 1400)
    assert scn.events[2].args == ("mallaig", "kyle")
    assert scn.events[4].args == (64497,)
    assert scn.events[5].args == (64496, ipaddress.IPv4Network("10.96.1.0/24"))


def test_same_round_events_keep_file_order():
    scn = parse(BASE + "event 2 promote 64497\nevent 2 promote 64496\n"
                + "event 1 promote 64496\n")
    assert [(e.at_round, e.args[0]) for e in scn.events] == [
        (1, 64496), (2, 64497), (2, 64496)]


def test_event_round_must_be_an_integer():
    line, err = line_of(BASE + "event soon promote 64496\n")
    assert "round" in err.message


@pytest.mark.parametrize("events,line,diagnostic", [
    (["event 1 link-down mallaig nessie"], 8, "NO_LINK mallaig-nessie"),
    (["event 1 link-up kyle kyle"], 8, "NO_LINK kyle-kyle"),
    (["event 1 inject 64999 broadcast arp 64"], 8, "NO_PORT 64999"),
    (["event 1 promote 64999"], 8, "NO_PORT 64999"),
    (["event 1 withdraw 64999 10.96.1.0/24"], 8, "UNKNOWN_MEMBER 64999"),
    (["event 1 withdraw 64496 10.96.2.0/24"], 8, "NOT_ANNOUNCED 64496 10.96.2.0/24"),
    # round order, not file order, decides which withdrawal comes second
    (["event 9 withdraw 64496 10.96.1.0/24", "event 2 withdraw 64496 10.96.1.0/24"],
     8, "NOT_ANNOUNCED 64496 10.96.1.0/24"),
])
def test_events_naming_what_the_run_lacks_are_rejected(events, line, diagnostic):
    # checked at load in round order, with the line of the first bad event;
    # BASE and the announcement take lines 1-7
    text = BASE + "announce 64496 10.96.1.0/24\n" + "".join(e + "\n" for e in events)
    with pytest.raises(ScenarioValidationError) as info:
        parse(text)
    assert info.value.line == line
    assert str(info.value) == "line %d: validation failed: %s" % (line, diagnostic)


def test_events_naming_what_the_run_finds_parse():
    scn = parse(BASE + "announce 64496 10.96.1.0/24\n"
                + "event 1 withdraw 64496 10.96.1.0/24\n"
                + "event 2 link-down kyle mallaig\nevent 3 promote 64497\n")
    assert [e.kind for e in scn.events] == [
        EventKind.MEMBER_WITHDRAW, EventKind.LINK_DOWN, EventKind.PORT_PROMOTE_CHECK]


def test_only_an_external_equal_to_a_member_prefix_is_rejected():
    # BASE and the announcement take lines 1-7; a covering or a covered
    # external keeps a cell of its own
    text = BASE + "announce 64496 10.96.1.0/24\n"
    nested = "external 10.0.0.0/8\nexternal 10.96.1.128/25\n"
    assert [str(p) for p in parse(text + nested).external_prefixes] == [
        "10.0.0.0/8", "10.96.1.128/25"]
    with pytest.raises(ScenarioValidationError) as info:
        parse(text + nested + "external 10.96.1.0/24\n")
    assert str(info.value) == (
        "line 10: validation failed: EXTERNAL_IS_MEMBER_PREFIX 10.96.1.0/24 64496")


def test_negative_event_round_rejected_even_when_built_directly():
    with pytest.raises(ValueError):
        Event(-1, EventKind.PORT_PROMOTE_CHECK, (64496,))


def test_structural_violations_surface_as_validation_errors():
    bad = BASE.replace("member 64496", "member 64512")  # private ASN
    bad = bad.replace("session", "")  # keep the rest untouched
    with pytest.raises(ScenarioValidationError) as info:
        parse(bad)
    err = info.value
    assert isinstance(err, ParseError)
    assert err.line == 0
    assert str(err).startswith("validation failed: ")
    assert "PRIVATE_ASN" in err.report.codes()


def test_documentation_asn_pool_is_bounded():
    # BASE already spends one number on the mallaig route server
    fifteen = "".join("external 203.0.%d.0/24\n" % i for i in range(15))
    parse(BASE + fifteen)
    with pytest.raises(ParseError) as info:
        parse(BASE + fifteen + "external 203.0.15.0/24\n")
    assert "pool" in info.value.message
    assert str(info.value) == info.value.message


def test_load_scenario_reads_files(tmp_path):
    path = tmp_path / "tiny.scn"
    path.write_text(BASE, encoding="utf-8")
    scn = load_scenario(str(path))
    assert [m.asn for m in scn.members] == [64496, 64497]


def test_bundled_scenario_shape():
    scn = load_whix()
    assert len(scn.topology.nodes) == 8
    assert len(scn.topology.links) == 10
    assert scn.topology.reflector_names() == ["mallaig", "smo"]
    assert scn.topology.route_server_names() == ["mallaig", "smo"]
    assert len(scn.members) == 11
    assert sum(m.is_transit for m in scn.members) == 1
    kinds = [s.kind for s in scn.sessions]
    assert kinds.count(PeerKind.BILATERAL) == 3
    assert kinds.count(PeerKind.TRANSIT) == 9
    assert sum(len(s.client_sessions) for s in scn.route_servers) == 22
    assert {s.service_asn for s in scn.route_servers} == {65536, 65537}
    assert all(len(s.client_sessions) == 11 for s in scn.route_servers)
    assert len(scn.external_prefixes) == 3
    assert len(scn.events) == 3
    assert all(len(m.announced_prefixes) == 1 for m in scn.members)
