"""Structural model: validation and mesh arithmetic."""

from __future__ import annotations

import dataclasses
import ipaddress
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_port, make_topology
from ixsim.model import (
    ASN_FIRST,
    ASN_LAST,
    DOC_ASN32_FIRST,
    DOC_ASN32_LAST,
    Link,
    LinkKind,
    MemberAs,
    PeNode,
    Topology,
    full_mesh_size,
    validate_topology,
)
from oracles import count_unordered_pairs

EXCHANGE = ipaddress.IPv4Network("192.0.2.0/24")


def _node(name, loopback, rr=False):
    return PeNode(name, ipaddress.IPv4Address(loopback), is_route_reflector=rr)


def test_clean_topology_has_no_violations():
    topo = make_topology([("a", "b", 5), ("b", "c", 5)], reflectors={"a"})
    ports = [make_port(63001, "a", 1), make_port(63002, "c", 2)]
    members = [MemberAs(63001, "one"), MemberAs(63002, "two")]
    report = validate_topology(topo, ports, members, EXCHANGE)
    assert report.ok
    assert list(report) == []


def test_duplicate_loopback_flagged():
    topo = Topology.build([
        _node("a", "172.16.50.1", rr=True),
        _node("b", "172.16.50.1"),
    ])
    report = validate_topology(topo)
    assert "DUP_LOOPBACK" in report.codes()


def test_duplicate_node_name_flagged():
    topo = Topology.build([
        _node("a", "172.16.50.1", rr=True),
        _node("a", "172.16.50.2"),
    ])
    assert "DUP_NODE" in validate_topology(topo).codes()


def test_low_mtu_flagged():
    topo = make_topology([("a", "b", 1, 1500)], reflectors={"a"})
    report = validate_topology(topo)
    assert report.codes() == ["MTU_TOO_SMALL"]
    assert report.violations[0].subject == "a-b"


def test_bad_cost_flagged():
    topo = make_topology([("a", "b", 0)], reflectors={"a"})
    assert "BAD_COST" in validate_topology(topo).codes()


def test_self_loop_flagged():
    nodes = [_node("a", "172.16.50.1", rr=True), _node("b", "172.16.50.2")]
    links = [Link("a", "a", 1, 1600, LinkKind.RADIO)]
    report = validate_topology(Topology.build(nodes, links))
    assert "SELF_LOOP" in report.codes()


def test_unknown_endpoint_flagged():
    nodes = [_node("a", "172.16.50.1", rr=True), _node("b", "172.16.50.2")]
    links = [Link("a", "ghost", 1, 1600, LinkKind.RADIO)]
    report = validate_topology(Topology.build(nodes, links))
    assert "UNKNOWN_ENDPOINT" in report.codes()


def test_missing_reflector_flagged_for_two_nodes():
    topo = make_topology([("a", "b", 1)])
    assert "NO_REFLECTOR" in validate_topology(topo).codes()


def test_single_node_needs_no_reflector():
    topo = Topology.build([_node("solo", "172.16.50.1")])
    assert validate_topology(topo).ok


def test_private_asn_flagged():
    topo = Topology.build([_node("a", "172.16.50.1")])
    members = [MemberAs(64512, "wrong")]
    report = validate_topology(topo, [], members, EXCHANGE)
    assert "PRIVATE_ASN" in report.codes()
    # Just above the private block is fine again.
    ok = validate_topology(topo, [], [MemberAs(65535, "edge")], EXCHANGE)
    assert "PRIVATE_ASN" not in ok.codes()


def test_simulator_asn_block_is_reserved():
    topo = Topology.build([_node("a", "172.16.50.1")])
    for asn in (DOC_ASN32_FIRST, DOC_ASN32_LAST):
        report = validate_topology(topo, [], [MemberAs(asn, "taken")], EXCHANGE)
        assert "RESERVED_ASN" in report.codes()
    for asn in (DOC_ASN32_FIRST - 1, DOC_ASN32_LAST + 1):
        report = validate_topology(topo, [], [MemberAs(asn, "free")], EXCHANGE)
        assert "RESERVED_ASN" not in report.codes()


def test_member_asn_outside_32_bits_flagged():
    topo = Topology.build([_node("a", "172.16.50.1")])
    for asn in (ASN_FIRST - 1, -5, ASN_LAST + 1):
        report = validate_topology(topo, [], [MemberAs(asn, "bad")], EXCHANGE)
        assert "BAD_ASN" in report.codes()
    for asn in (ASN_FIRST, ASN_LAST):
        report = validate_topology(topo, [], [MemberAs(asn, "good")], EXCHANGE)
        assert "BAD_ASN" not in report.codes()


def test_duplicate_asn_flagged():
    topo = Topology.build([_node("a", "172.16.50.1")])
    members = [MemberAs(63001, "x"), MemberAs(63001, "y")]
    assert "DUP_ASN" in validate_topology(topo, [], members, EXCHANGE).codes()


def test_prefix_overlap_between_members_flagged():
    topo = Topology.build([_node("a", "172.16.50.1")])
    members = [
        MemberAs(63001, "x", False, (ipaddress.IPv4Network("10.177.0.0/16"),)),
        MemberAs(63002, "y", False, (ipaddress.IPv4Network("10.177.4.0/24"),)),
    ]
    report = validate_topology(topo, [], members, EXCHANGE)
    assert "PREFIX_OVERLAP" in report.codes()


def test_same_member_may_announce_nested_prefixes():
    topo = Topology.build([_node("a", "172.16.50.1")])
    members = [MemberAs(63001, "x", False, (
        ipaddress.IPv4Network("10.177.0.0/16"),
        ipaddress.IPv4Network("10.177.4.0/24"),
    ))]
    assert validate_topology(topo, [], members, EXCHANGE).ok


def test_duplicate_mac_flagged():
    topo = Topology.build([_node("a", "172.16.50.1")])
    ports = [make_port(63001, "a", 1), make_port(63002, "a", 1)]
    ports[1] = type(ports[1])(
        member_asn=63002, attach_pe="a",
        nominated_mac=ports[0].nominated_mac,
        exchange_ip=ipaddress.IPv4Address("192.0.2.99"),
        state=ports[1].state)
    members = [MemberAs(63001, "x"), MemberAs(63002, "y")]
    report = validate_topology(topo, ports, members, EXCHANGE)
    assert "DUP_MAC" in report.codes()


def test_duplicate_exchange_ip_flagged():
    topo = Topology.build([_node("a", "172.16.50.1")])
    p1 = make_port(63001, "a", 1)
    p2 = type(p1)(member_asn=63002, attach_pe="a",
                  nominated_mac="02:00:00:00:00:42",
                  exchange_ip=p1.exchange_ip, state=p1.state)
    report = validate_topology(topo, [p1, p2],
                               [MemberAs(63001, "x"), MemberAs(63002, "y")],
                               EXCHANGE)
    assert "DUP_EXCHANGE_IP" in report.codes()


def test_exchange_ip_outside_prefix_flagged():
    topo = Topology.build([_node("a", "172.16.50.1")])
    port = type(make_port(63001, "a", 1))(
        member_asn=63001, attach_pe="a",
        nominated_mac="02:00:00:00:00:01",
        exchange_ip=ipaddress.IPv4Address("198.18.0.1"),
        state=make_port(63001, "a", 1).state)
    report = validate_topology(topo, [port], [MemberAs(63001, "x")], EXCHANGE)
    assert "IP_OUT_OF_EXCHANGE" in report.codes()


@pytest.mark.parametrize("mac", ["03:00:00:00:00:01", "01:00:5e:00:00:01",
                                 "ff:ff:ff:ff:ff:ff"])
def test_group_bit_mac_flagged(mac):
    topo = Topology.build([_node("a", "172.16.50.1")])
    port = dataclasses.replace(make_port(63001, "a", 1), nominated_mac=mac)
    report = validate_topology(topo, [port], [MemberAs(63001, "x")], EXCHANGE)
    assert report.codes() == ["MAC_NOT_UNICAST"]


@pytest.mark.parametrize("prefix,ip,ok", [
    ("192.0.2.0/24", "192.0.2.0", False),
    ("192.0.2.0/24", "192.0.2.255", False),
    ("192.0.2.0/24", "192.0.2.1", True),
    ("192.0.2.0/24", "192.0.2.254", True),
    ("192.0.2.0/31", "192.0.2.0", True),  # RFC 3021: both are hosts
    ("192.0.2.7/32", "192.0.2.7", True),
])
def test_exchange_ip_must_name_a_host(prefix, ip, ok):
    topo = Topology.build([_node("a", "172.16.50.1")])
    port = dataclasses.replace(make_port(63001, "a", 1),
                               exchange_ip=ipaddress.IPv4Address(ip))
    report = validate_topology(topo, [port], [MemberAs(63001, "x")],
                               ipaddress.IPv4Network(prefix))
    assert report.codes() == ([] if ok else ["IP_NOT_HOST"])


def test_port_on_unknown_node_flagged():
    topo = Topology.build([_node("a", "172.16.50.1")])
    port = make_port(63001, "ghost", 1)
    report = validate_topology(topo, [port], [MemberAs(63001, "x")], EXCHANGE)
    assert "UNKNOWN_ATTACH" in report.codes()


def test_private_exchange_prefix_flagged():
    topo = Topology.build([_node("a", "172.16.50.1")])
    port = make_port(63001, "a", 1)
    report = validate_topology(
        topo, [port], [MemberAs(63001, "x")],
        exchange_prefix=ipaddress.IPv4Network("192.0.2.0/24"))
    assert report.ok
    bad = validate_topology(
        topo, [port], [MemberAs(63001, "x")],
        exchange_prefix=ipaddress.IPv4Network("10.0.0.0/24"))
    assert "EXCHANGE_PREFIX_PRIVATE" in bad.codes()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_validation_is_order_insensitive(seed):
    rng = random.Random(seed)
    nodes = [
        _node("a", "172.16.50.1"),
        _node("b", "172.16.50.1"),  # duplicate loopback on purpose
        _node("c", "172.16.50.3"),
    ]
    links = [
        Link("a", "b", 1, 1500, LinkKind.RADIO),
        Link("b", "c", 0, 1600, LinkKind.LEASED),
        Link("a", "ghost", 1, 1600, LinkKind.RADIO),
    ]
    members = [MemberAs(64512, "bad"), MemberAs(63001, "good")]
    baseline = validate_topology(Topology.build(nodes, links), [], members)
    rng.shuffle(nodes)
    rng.shuffle(links)
    rng.shuffle(members)
    shuffled = validate_topology(Topology.build(nodes, links), [], members)
    assert baseline.violations == shuffled.violations


def test_full_mesh_size_small_values():
    assert full_mesh_size(0) == 0
    assert full_mesh_size(1) == 0
    assert full_mesh_size(2) == 1
    assert full_mesh_size(8) == 28


@given(n=st.integers(0, 64))
def test_full_mesh_size_matches_enumeration(n):
    assert full_mesh_size(n) == count_unordered_pairs(range(n))


def test_full_mesh_size_rejects_negative():
    with pytest.raises(ValueError):
        full_mesh_size(-1)
