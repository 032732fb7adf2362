"""Seeded scenario generator for the benchmark workloads.

``generate(workload, seed)`` returns scenario text in the ixsim file
grammar.  Everything random comes from one ``random.Random`` seeded with a
string, so the same workload and seed give byte-identical text under any
``PYTHONHASHSEED``.  The simulator only ever sees this text, through its
public ``load_scenario``/``parse_scenario``.

Every workload has the same shape: P PEs, two of them route reflectors
that also host route servers, M members that are all clients of both route
servers, exactly one transit member with a tenth of the others taking its
full table and half a default route, and a stream of member frames.  The
parameters below set how much of each layer's work a workload asks for.

Run ``python3 perfbench/generate.py <workload> <seed>`` to print a scenario.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass

FRAME_SIZES = (46, 512, 1500, 1580)  # 1580 + 26 header bytes > MTU 1600 on a pseudo-wire
JUMBO_MTU = 9000
BASE_MTU = 1600
DEFAULT_SEED = 1
FULL_SHARE = 0.10  # members taking the full table from the transit member
DEFAULT_SHARE = 0.50  # members taking only a default route from it


@dataclass(frozen=True)
class Workload:
    name: str
    pes: int
    members: int
    externals: int
    bilateral: int
    quarantined: int
    frames: int
    flaps: int
    outputs: tuple  # what the benchmark renders: "report", "ribs", "trace"
    why: str


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="probe_mesh", pes=20, members=20, externals=3, bilateral=10,
            quarantined=3, frames=40, flaps=0,
            outputs=("report", "trace"),
            why="P20/M20, 3 quarantined ports, 40 frames, run outputs: report() "
                "is almost all reachability probing through dataplane inject "
                "and MemberRib.covering/chosen"),
        Workload(
            name="route_scale", pes=20, members=150, externals=12, bilateral=80,
            quarantined=0, frames=20, flaps=0,
            outputs=("ribs", "trace"),
            why="P20/M150, 80 bilateral, 12 externals, ribs output: route "
                "exchange (~0.1M MemberRib.add) and rib_dump; O(M^2) prefix "
                "validation makes set-up material"),
        Workload(
            name="link_churn", pes=48, members=8, externals=3, bilateral=4,
            quarantined=2, frames=125, flaps=5,
            outputs=("report", "trace"),
            why="P48/M8, 5 link flaps among 125 member frames (20% ARP "
                "broadcast, some over MTU): each flap reruns SPF, labels and "
                "the pseudo-wire mesh; frames keep trace logging"),
    )
}


def _mac(index: int) -> str:
    return "02:00:00:%02x:%02x:%02x" % (index >> 16, (index >> 8) & 255, index & 255)


def _pick(rng: random.Random, pool: list, count: int) -> list:
    """``count`` items of ``pool``, each used once before any is used again."""
    out = []
    while len(out) < count:
        out += rng.sample(pool, min(len(pool), count - len(out)))
    return out


def _topology(rng: random.Random, w: Workload, out: list) -> tuple:
    """A fixed shape with random names, costs and placement, so that the
    work of a run varies little between seeds.  The core is a ring with a
    chord from each node to the opposite one, which no single link failure
    disconnects.  One PE in six hangs off a random core PE by a single link,
    so flapping that link partitions the underlay.  Exactly 30% of the links
    are leased and, picked apart from those, 30% have the jumbo MTU.
    Returns the core PEs, the leaf PEs, the ring links, the chord links, the
    leaf links and the two route-reflector/route-server PEs, which are in
    the core."""
    names = ["pe%02d" % i for i in range(1, w.pes + 1)]
    order = names[:]
    rng.shuffle(order)
    leaves = order[:w.pes // 6]
    core = order[w.pes // 6:]
    reflectors = set(rng.sample(core, 2))
    for i, name in enumerate(names, start=1):
        flags = " rr rs" if name in reflectors else ""
        out.append("node %s loopback 172.16.%d.%d%s" % (name, i >> 8, i & 255, flags))

    size = len(core)
    ring = [(core[i], core[(i + 1) % size]) for i in range(size)]
    chords = [(core[i], core[i + size // 2]) for i in range(size // 2)]
    leaf_links = [(leaf, rng.choice(core)) for leaf in leaves]
    links = ring + chords + leaf_links
    leased = set(rng.sample(range(len(links)), round(0.3 * len(links))))
    jumbo = set(rng.sample(range(len(links)), round(0.3 * len(links))))
    for i, (a, b) in enumerate(links):
        out.append("link %s %s cost %d mtu %d type %s"
                   % (a, b, rng.randint(5, 15), JUMBO_MTU if i in jumbo else BASE_MTU,
                      "leased" if i in leased else "radio"))
    out.append("")
    return core, leaves, ring, chords, leaf_links, sorted(reflectors)


def generate(workload: str, seed: int) -> str:
    """Scenario text for one workload and seed."""
    w = WORKLOADS[workload]
    rng = random.Random("%s:%d" % (w.name, seed))
    out = ["# %s seed %d: generated by perfbench/generate.py" % (w.name, seed), ""]
    core, leaves, ring, chords, leaf_links, route_servers = _topology(rng, w, out)
    # Members on leaf PEs in the leaves' share of all PEs, so that as many
    # are cut off by a leaf flap on every seed.
    on_leaves = round(w.members * len(leaves) / w.pes)
    ports = _pick(rng, leaves, on_leaves) + _pick(rng, core, w.members - on_leaves)
    rng.shuffle(ports)

    out.append("exchange-prefix 100.64.0.0/16")
    asns = sorted(rng.sample(range(1000, 60000), w.members))
    transit = rng.choice(asns)
    others = [a for a in asns if a != transit]
    quarantined = set(rng.sample(others, w.quarantined))
    mac_of = {}
    for i, asn in enumerate(asns, start=1):
        mac_of[asn] = _mac(i)
        flags = (" transit" if asn == transit else "") + \
                (" quarantine" if asn in quarantined else "")
        out.append("member %d m%d port %s mac %s ip 100.64.%d.%d%s"
                   % (asn, asn, ports[i - 1], mac_of[asn], i >> 8, i & 255, flags))
    for i, asn in enumerate(asns):
        out.append("announce %d 45.%d.%d.0/24" % (asn, i >> 8, i & 255))
    for asn in asns:
        for rs in route_servers:
            out.append("session rs %d %s" % (asn, rs))
    pairs = set()
    while len(pairs) < w.bilateral:
        pairs.add(tuple(sorted(rng.sample(asns, 2))))
    for a, b in sorted(pairs):
        out.append("session bilateral %d %d" % (a, b))
    takers = rng.sample(others, round((FULL_SHARE + DEFAULT_SHARE) * len(others)))
    full = set(takers[:round(FULL_SHARE * len(others))])
    for asn in sorted(takers):
        out.append("session transit %d %d %s"
                   % (asn, transit, "full" if asn in full else "default"))
    for k in range(w.externals):
        out.append("external 198.18.%d.0/24" % k)
    out.append("")

    events = _frames(rng, w.frames, asns, quarantined, mac_of)
    if w.flaps:
        # One flap in five is on a leaf link and partitions the underlay; the
        # rest are on ring and chord links in the proportion of their counts.
        leaf_flaps = round(0.2 * w.flaps)
        chord_flaps = round((w.flaps - leaf_flaps) * len(chords) / (len(ring) + len(chords)))
        flapped = (_pick(rng, leaf_links, leaf_flaps) + _pick(rng, chords, chord_flaps)
                   + _pick(rng, ring, w.flaps - leaf_flaps - chord_flaps))
        rng.shuffle(flapped)
        events = _interleave(rng, flapped, events)
    for round_no, text in enumerate(events, start=1):
        out.append("event %d %s" % (round_no, text))
    return "\n".join(out) + "\n"


def _frames(rng: random.Random, count: int, asns, quarantined, mac_of) -> list:
    """Member frames in fixed proportions, shuffled: 20% broadcast ARP, 3% to
    multicast destinations (forbidden), 3% toward quarantined ports, the rest
    unicast IPv4 between random members; each size in FRAME_SIZES equally."""
    kinds = ["arp"] * round(0.20 * count) + ["multicast"] * round(0.03 * count)
    if quarantined:
        kinds += ["quarantined"] * round(0.03 * count)
    kinds += ["unicast"] * (count - len(kinds))
    sizes = [FRAME_SIZES[i % len(FRAME_SIZES)] for i in range(count)]
    rng.shuffle(kinds)
    rng.shuffle(sizes)
    frames = []
    for kind, size in zip(kinds, sizes):
        src = rng.choice(asns)
        if kind == "arp":
            frames.append("inject %d broadcast arp %d" % (src, size))
            continue
        if kind == "multicast":
            dst = "01:00:5e:00:00:%02x" % rng.randrange(256)
        elif kind == "quarantined":
            dst = mac_of[rng.choice(sorted(quarantined))]
        else:
            dst = mac_of[rng.choice(asns)]
        frames.append("inject %d %s ipv4 %d" % (src, dst, size))
    return frames


def _interleave(rng: random.Random, flapped: list, frames: list) -> list:
    """Each flap's down and up events placed among an equal share of the
    frames.  Flaps do not overlap, so every link is up after the last one."""
    per_flap = len(frames) // len(flapped)
    out = []
    for k, (a, b) in enumerate(flapped):
        block = frames[k * per_flap:(k + 1) * per_flap]
        cut = rng.randint(0, len(block))
        out.append("link-down %s %s" % (a, b))
        out.extend(block[:cut])
        out.append("link-up %s %s" % (a, b))
        out.extend(block[cut:])
    out.extend(frames[len(flapped) * per_flap:])
    return out


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] not in WORKLOADS:
        sys.exit("usage: generate.py {%s} <seed>" % "|".join(WORKLOADS))
    sys.stdout.write(generate(sys.argv[1], int(sys.argv[2])))
