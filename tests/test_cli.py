"""Exit codes and artefact routing for the command-line front end."""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import os
import re
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ixsim.engine
from helpers import WHIX, load_generator
from ixsim.cli import EXIT_INVALID, EXIT_OK, EXIT_PARSE, main
from ixsim.dataplane import TRACE_HEADER
from ixsim.engine import DOT_LAYERS, Simulation, export_dot
from ixsim.scenario import parse_scenario

GOOD = str(WHIX)
SRC = WHIX.parent.parent / "src"


def write(tmp_path, text, name="case.scn"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    return str(path)


def test_check_accepts_the_bundled_scenario(capsys):
    assert main(["check", GOOD]) == EXIT_OK
    out = capsys.readouterr()
    assert out.out == "" and out.err == ""


def test_missing_file_is_a_parse_failure(tmp_path, capsys):
    assert main(["check", "/nonexistent/nowhere.scn"]) == EXIT_PARSE
    assert capsys.readouterr().err == (
        "parse error: cannot read /nonexistent/nowhere.scn: No such file or directory\n")
    assert main(["run", str(tmp_path)]) == EXIT_PARSE
    assert capsys.readouterr().err == (
        "parse error: cannot read %s: Is a directory\n" % tmp_path)


def _ixsim(*args):
    """Run the command line in a fresh interpreter: (exit code, stderr)."""
    done = subprocess.run([sys.executable, "-m", "ixsim.cli", *args],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True)
    return done.returncode, done.stderr


def _assert_one_line_diagnostic(err, start):
    assert err.startswith(start) and err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err


def test_scenario_that_is_not_utf8_is_a_parse_failure(tmp_path):
    path = tmp_path / "whix.scn"
    path.write_bytes(WHIX.read_bytes() + b"# caf\xe9\n")
    code, err = _ixsim("check", str(path))
    assert code == EXIT_PARSE
    _assert_one_line_diagnostic(err, "parse error: cannot read %s: " % path)


@pytest.mark.parametrize("flag", ["--report", "--trace"])
def test_unwritable_output_path_exits_two(tmp_path, flag):
    target = tmp_path / "missing" / "out.txt"
    code, err = _ixsim("run", GOOD, flag, str(target))
    assert code == EXIT_PARSE
    _assert_one_line_diagnostic(err, "cannot write %s: No such file or directory" % target)


def test_syntax_error_reports_line_and_exits_two(tmp_path, capsys):
    path = write(tmp_path, """\
        node a loopback 172.16.0.1 rr
        link a ghost type radio
        """)
    assert main(["check", path]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert "line 2" in err and "ghost" in err


def test_invalid_scenario_exits_one(tmp_path, capsys):
    path = write(tmp_path, """\
        node a loopback 172.16.0.1 rr
        exchange-prefix 192.0.2.0/24
        member 64512 private port a mac 02:00:00:00:00:01 ip 192.0.2.11
        """)
    assert main(["check", path]) == EXIT_INVALID
    assert "PRIVATE_ASN" in capsys.readouterr().err
    path = write(tmp_path, """\
        node a loopback 172.16.0.1
        node b loopback 172.16.0.2
        link a b type radio
        """)
    assert main(["run", path]) == EXIT_INVALID
    assert capsys.readouterr().err == (
        "invalid scenario: validation failed: NO_REFLECTOR topology\n")


def test_run_prints_the_report(capsys):
    assert main(["run", GOOD]) == EXIT_OK
    out = capsys.readouterr().out
    assert "pseudowire_count=28" in out
    assert "ibgp_session_count=13" in out
    lines = out.strip().splitlines()
    assert lines == sorted(lines)


def test_run_redirects_artefacts_to_files(tmp_path, capsys):
    report = tmp_path / "report.txt"
    trace = tmp_path / "trace.csv"
    code = main(["run", GOOD, "--report", str(report), "--trace", str(trace)])
    assert code == EXIT_OK
    assert capsys.readouterr().out == ""
    assert "pseudowire_count=28" in report.read_text()
    trace_text = trace.read_text()
    assert trace_text.startswith(TRACE_HEADER + "\n")
    assert trace_text.count("\n") == 75 + 1  # rows plus the header


@pytest.mark.parametrize("asn", ["65536", "65551"])
def test_member_asn_in_the_simulator_block_is_invalid(tmp_path, capsys, asn):
    # 65536 is route server 0's service ASN; 65551 is the synthetic origin
    # of the first external prefix.
    path = write(tmp_path, WHIX.read_text(encoding="utf-8").replace("64511", asn))
    assert main(["run", path]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("invalid scenario: ") and err.count("\n") == 1
    assert "RESERVED_ASN %s" % asn in err


@pytest.mark.parametrize("asn", ["0", "-5", "4294967296"])
def test_member_asn_out_of_range_is_invalid(tmp_path, capsys, asn):
    # 0 would also collide with the owner of external prefixes in the
    # reachability matrix
    path = write(tmp_path, WHIX.read_text(encoding="utf-8").replace("64496", asn))
    assert main(["run", path]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("invalid scenario: ") and err.count("\n") == 1
    assert "BAD_ASN %s" % asn in err


@pytest.mark.parametrize("old,new,violation", [
    ("mac 02:00:00:00:00:02", "mac 03:00:00:00:00:02", "MAC_NOT_UNICAST 03:00:00:00:00:02"),
    ("mac 02:00:00:00:00:05", "mac 01:00:00:00:00:05", "MAC_NOT_UNICAST 01:00:00:00:00:05"),
    ("ip 192.0.2.11", "ip 192.0.2.0", "IP_NOT_HOST 192.0.2.0"),
    ("ip 192.0.2.11", "ip 192.0.2.255", "IP_NOT_HOST 192.0.2.255"),
], ids=["mac-03", "mac-01", "ip-network", "ip-broadcast"])
def test_identity_the_fabric_cannot_use_is_invalid(tmp_path, capsys, old, new, violation):
    # A group-bit MAC cannot be learned or unicast to, and a network or
    # broadcast address names no host: either would zero reachability cells.
    text = WHIX.read_text(encoding="utf-8")
    assert text.count(old) == 1
    path = write(tmp_path, text.replace(old, new))
    for command in ("check", "run"):
        assert main([command, path]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("invalid scenario: ") and err.count("\n") == 1
        assert violation in err


def test_reachability_and_upstream_are_made_only_for_the_report(monkeypatch):
    """``ribs`` probes nothing and announces nothing upstream; ``run``
    probes once and asks each active transit member, whix's one, once."""
    calls = {"reachability_matrix": 0, "upstream_announcements": 0}

    def counted(name):
        real = getattr(ixsim.engine, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(ixsim.engine, name, counted(name))
    assert main(["ribs", GOOD]) == EXIT_OK
    assert calls == {"reachability_matrix": 0, "upstream_announcements": 0}
    assert main(["run", GOOD]) == EXIT_OK
    assert calls == {"reachability_matrix": 1, "upstream_announcements": 1}


def test_runtime_event_against_missing_entity_fails(tmp_path, capsys):
    path = write(tmp_path, """\
        node a loopback 172.16.0.1 rr
        node b loopback 172.16.0.2
        link a b type radio
        exchange-prefix 192.0.2.0/24
        member 64496 one port a mac 02:00:00:00:00:01 ip 192.0.2.11
        event 1 link-down a nessie
        """)
    for command in ("check", "run"):
        assert main([command, path]) == EXIT_INVALID
        assert capsys.readouterr().err == (
            "invalid scenario: line 6: validation failed: NO_LINK a-nessie\n")


@pytest.mark.parametrize("events,diagnostic", [
    (["event 5 inject 64999 broadcast arp 28"], "NO_PORT 64999"),
    (["event 5 withdraw 64496 10.96.1.0/24"] * 2, "NOT_ANNOUNCED 64496 10.96.1.0/24"),
])
def test_check_rejects_events_the_run_would_trip_over(tmp_path, capsys, events, diagnostic):
    """``check`` is as strict as ``run``: an event naming what the run would
    not find fails at load, on the line of the first such event."""
    text = WHIX.read_text(encoding="utf-8") + "".join(e + "\n" for e in events)
    path = write(tmp_path, text)
    line = len(WHIX_LINES) + len(events)
    for command in ("check", "run"):
        assert main([command, path]) == EXIT_INVALID
        assert capsys.readouterr().err == (
            "invalid scenario: line %d: validation failed: %s\n" % (line, diagnostic))


@pytest.mark.parametrize("external,code,diagnostic", [
    # whix declares 203.0.113.0/24 already: a second line would give the
    # same cell a second synthetic origin
    ("203.0.113.0/24", EXIT_PARSE,
     "parse error: line %d: external 203.0.113.0/24 declared twice"),
    # 64496 announces 10.96.1.0/24: the external would make 64496 probe
    # its own prefix
    ("10.96.1.0/24", EXIT_INVALID, "invalid scenario: line %d: validation failed: "
     "EXTERNAL_IS_MEMBER_PREFIX 10.96.1.0/24 64496"),
], ids=["declared-twice", "member-prefix"])
def test_check_rejects_externals_whose_cells_collide(tmp_path, capsys, external, code,
                                                     diagnostic):
    """An external prefix gets one reachability cell per member, so one
    declared twice, or equal to a member's prefix, fails at load, on the
    external's line."""
    path = write(tmp_path, WHIX.read_text(encoding="utf-8") + "external %s\n" % external)
    for command in ("check", "run"):
        assert main([command, path]) == code
        assert capsys.readouterr().err == diagnostic % (len(WHIX_LINES) + 1) + "\n"


@pytest.mark.parametrize("session,message", [
    ("session bilateral 64496 64503", "session bilateral 64496 64503 declared twice"),
    ("session bilateral 64503 64496", "session bilateral 64496 64503 declared twice"),
    ("session transit 64496 64511 full", "session transit 64496 64511 declared twice"),
    ("session transit 64511 64511 default", "transit session needs two members"),
], ids=["bilateral", "bilateral-reversed", "transit-twice", "transit-to-itself"])
def test_check_rejects_sessions_the_run_would_count_twice(tmp_path, capsys, session,
                                                          message):
    """whix already peers 64496 with 64503 and gives 64496 a default route
    from 64511: a repeat would count one relationship twice and draw its
    edge twice, and a member taking transit from itself would draw a
    self-loop."""
    path = write(tmp_path, WHIX.read_text(encoding="utf-8") + session + "\n")
    for command in ("check", "run"):
        assert main([command, path]) == EXIT_PARSE
        assert capsys.readouterr().err == "parse error: line %d: %s\n" % (
            len(WHIX_LINES) + 1, message)


def test_dot_layers(capsys):
    assert main(["dot", GOOD]) == EXIT_OK
    assert capsys.readouterr().out.startswith("graph physical {")
    assert main(["dot", GOOD, "--layer", "vpls"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("graph vpls {")
    assert out.count(" -- ") == 28
    with pytest.raises(SystemExit):
        main(["dot", GOOD, "--layer", "underwater"])


def test_dot_draws_the_state_after_the_events(tmp_path, capsys):
    text = WHIX.read_text(encoding="utf-8") + "event 50 link-down mallaig datacentre\n"
    path = write(tmp_path, text)
    assert main(["dot", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert '"datacentre" -- "mallaig" [label="1", style=solid, color=gray];' in out
    assert main(["dot", path, "--layer", "vpls"]) == EXIT_OK
    assert capsys.readouterr().out.count(" -- ") == 21


def test_ribs_dump(capsys):
    assert main(["ribs", GOOD]) == EXIT_OK
    out = capsys.readouterr().out
    assert "64496|0.0.0.0/0|64511|192.0.2.21|bgp/64511" in out.splitlines()


def test_repeated_runs_emit_identical_bytes(tmp_path):
    paths = []
    for name in ("one", "two"):
        report = tmp_path / ("%s.report" % name)
        trace = tmp_path / ("%s.trace" % name)
        assert main(["run", GOOD, "--report", str(report),
                     "--trace", str(trace)]) == EXIT_OK
        paths.append((report.read_bytes(), trace.read_bytes()))
    assert paths[0] == paths[1]


WHIX_LINES = WHIX.read_text(encoding="utf-8").splitlines()
WHIX_TOKENS = sorted({token for line in WHIX_LINES if not line.startswith("#")
                      for token in line.split()})
# Every linked pair, plus one pair with no link between them.
WHIX_PAIRS = [tuple(line.split()[1:3]) for line in WHIX_LINES
              if line.startswith("link ")] + [("kyle", "eigg")]
OUT_OF_RANGE = ("0", "-1", "65536", "4294967296", "99999999999999999999")
MUTATIONS = ("delete", "duplicate", "swap", "drop", "insert", "truncate", "number")


@st.composite
def whix_mutants(draw):
    """whix.scn with up to three statement lines deleted, duplicated,
    truncated, given an out-of-range number, or with tokens swapped,
    dropped or inserted from elsewhere in the file; then up to four link
    events appended, so that flaps repair shortest-path trees on the
    mutated topology."""
    lines = list(WHIX_LINES)
    for _ in range(draw(st.integers(0, 3))):
        statements = [i for i, line in enumerate(lines)
                      if line.strip() and not line.startswith("#")]
        i = draw(st.sampled_from(statements))
        tokens = lines[i].split()
        numeric = [j for j, token in enumerate(tokens) if re.search(r"\d", token)]
        how = draw(st.sampled_from(MUTATIONS if numeric else MUTATIONS[:-1]))
        if how == "delete":
            del lines[i]
        elif how == "duplicate":
            lines.insert(i, lines[i])
        elif how == "swap":
            j = draw(st.integers(0, len(tokens) - 1))
            k = draw(st.integers(0, len(tokens) - 1))
            tokens[j], tokens[k] = tokens[k], tokens[j]
            lines[i] = " ".join(tokens)
        elif how == "drop":
            del tokens[draw(st.integers(0, len(tokens) - 1))]
            lines[i] = " ".join(tokens)
        elif how == "insert":
            tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(WHIX_TOKENS)))
            lines[i] = " ".join(tokens)
        elif how == "truncate":
            lines[i] = " ".join(tokens[:draw(st.integers(0, len(tokens) - 1))])
        else:
            j = draw(st.sampled_from(numeric))
            runs = list(re.finditer(r"\d+", tokens[j]))
            run = runs[draw(st.integers(0, len(runs) - 1))]
            tokens[j] = (tokens[j][:run.start()] + draw(st.sampled_from(OUT_OF_RANGE))
                         + tokens[j][run.end():])
            lines[i] = " ".join(tokens)
    for at in range(50, 50 + draw(st.integers(0, 4))):
        a, b = draw(st.sampled_from(WHIX_PAIRS))
        kind = draw(st.sampled_from(("link-down", "link-up")))
        lines.append("event %d %s %s %s" % (at, kind, a, b))
    return "\n".join(lines) + "\n"


@settings(max_examples=150, derandomize=True, deadline=None)
@given(text=whix_mutants())
def test_whix_mutants_exit_cleanly(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("mutant") / "whix.scn"
    path.write_text(text, encoding="utf-8")
    codes = {}
    for command in ("check", "run", "dot", "ribs"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = codes[command] = main([command, str(path)])
        assert code in (EXIT_OK, EXIT_INVALID, EXIT_PARSE)
        if code == EXIT_OK:
            assert err.getvalue() == ""
        else:
            assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
    assert codes["check"] == codes["run"]


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit):
        main([])


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    """whix as it is, and whix with applecross quarantined plus a
    promotion, a withdrawal and a cut and heal with frames between."""
    applecross = "member 64505 applecross       port kyle       mac 02:00:00:00:00:0a ip 192.0.2.20"
    text = WHIX.read_text(encoding="utf-8")
    assert applecross in text
    churned = write(tmp_path, text.replace(applecross, applecross + " quarantine") + (
        "event 4 inject 64498 broadcast arp 64\n"
        "event 5 promote 64505\n"
        "event 6 inject 64505 broadcast arp 64\n"
        "event 7 withdraw 64500 10.96.5.0/24\n"
        "event 8 inject 64497 02:00:00:00:00:01 ipv4 1400\n"
        "event 9 link-down mallaig datacentre\n"
        "event 10 inject 64496 broadcast arp 64\n"
        "event 11 link-up mallaig datacentre\n"
        "event 12 inject 64500 02:00:00:00:00:07 ipv4 1200\n"))

    def ixsim(seed, command, path, *flags):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
        return subprocess.run(
            [sys.executable, "-m", "ixsim.cli", command, path, *flags],
            env=env, capture_output=True, check=True).stdout

    for path in (GOOD, churned):
        outputs = []
        for seed in ("0", "1"):
            trace = tmp_path / ("trace-%s.csv" % seed)
            got = [ixsim(seed, "run", path, "--trace", str(trace)), trace.read_bytes(),
                   ixsim(seed, "ribs", path)]
            got += [ixsim(seed, "dot", path, "--layer", layer) for layer in DOT_LAYERS]
            outputs.append(got)
        assert outputs[0] == outputs[1]
        assert all(outputs[0])


# SHA-256 of each whix artefact as the simulator emits it today.  Any change
# to these bytes must be deliberate: re-record the digest and say why.
WHIX_DIGESTS = {
    ("run",): "eea9ec93408077920625b6ea2ef90f6a0fcc0649e56256c7c11fa5e489078706",
    ("run", "--trace"): "2fe0915bdf6e43e221c888835f8b129b421e51b69d17888d623fa091139bd4b8",
    ("ribs",): "b439d656cff597dc002a32f9a8fe578ddbde187aade107f3fc519a8ed46de5bd",
    ("dot", "physical"): "0704e938715cbcf39948da07a02c2a3d5131a5900993528fb7873c34ed493333",
    ("dot", "vpls"): "4a5a8b1f5f0ae186ecd7055971fead7b0092338dc9b60d6eeee2c480c53205c8",
    ("dot", "peering"): "ea6c6e7c461676cba9a62676e9e824edf3301752fd0c7bb55d5d0a48a7242c6c",
}

# Event tails appended to whix, and the digests they change.  The cut
# isolates datacentre, the leaf behind mallaig, from the other PEs; the
# second tail withdraws a prefix and heals the cut, so the underlay and
# mesh return to whix's.
LINK_CUT = ("event 50 link-down mallaig datacentre",)
CUT_AND_HEAL = LINK_CUT + ("event 51 withdraw 64496 10.96.1.0/24",
                           "event 52 link-up mallaig datacentre")
WHIX_TAIL_DIGESTS = {
    LINK_CUT: {
        **WHIX_DIGESTS,
        ("run",): "96a82419ef3823027e532d0b609c0b489cc14144ea3113ebdaa5d7a6f22af950",
        ("dot", "physical"): "1c2a419ddf6fa218980f9b0c19b5e35943540ab5d20cd77ee68b495c6ea22a5a",
        ("dot", "vpls"): "2d2cd55277a3159788b03e708b6c6866c90ff5bb805de9ca27285640d61bd9af",
    },
    CUT_AND_HEAL: {
        **WHIX_DIGESTS,
        ("run",): "df3bc112e488ab91ad333cfee9ab61f440448fd8fa2d61b2f631d84b62243e64",
        ("ribs",): "880e9ce6327322f1680a4c095173636563311db2a4feb9cc8b7a362f4a0ba8a0",
    },
}


def _whix_digests(tmp_path, capsys, tail=()):
    """SHA-256 of every whix artefact, with the ``tail`` events appended."""
    def digest(data):
        return hashlib.sha256(data.encode("utf-8")).hexdigest()

    path = write(tmp_path, WHIX.read_text(encoding="utf-8") + "".join(e + "\n" for e in tail))
    trace = tmp_path / "trace.csv"
    got = {}
    assert main(["run", path, "--trace", str(trace)]) == EXIT_OK
    got[("run",)] = digest(capsys.readouterr().out)
    got[("run", "--trace")] = digest(trace.read_text(encoding="utf-8"))
    assert main(["ribs", path]) == EXIT_OK
    got[("ribs",)] = digest(capsys.readouterr().out)
    for layer in DOT_LAYERS:
        assert main(["dot", path, "--layer", layer]) == EXIT_OK
        got[("dot", layer)] = digest(capsys.readouterr().out)
    return got


def test_whix_outputs_match_committed_digests(tmp_path, capsys):
    assert _whix_digests(tmp_path, capsys) == WHIX_DIGESTS


@pytest.mark.parametrize("tail", list(WHIX_TAIL_DIGESTS), ids=["cut", "cut-and-heal"])
def test_whix_outputs_after_link_events_match_committed_digests(tmp_path, capsys, tail):
    assert _whix_digests(tmp_path, capsys, tail) == WHIX_TAIL_DIGESTS[tail]


# SHA-256 of report() on generated rungs, recorded before reachability
# probing moved to one ARP flood per source member; route_scale's, with
# 149 upstream lines, before upstream announcements moved into report().
GENERATED_REPORT_DIGESTS = {
    ("probe_mesh", 1): "8a9be30073d50ff2930cc1ae5b972d223a32523dd3809906bc5c9f8ece6dad70",
    ("probe_mesh", 2): "2044987d96f955e871f31733d4369080dd63bf636d152d385a593f60defef8aa",
    ("link_churn", 1): "1914db2bdbb5c8f1b8bf2fc958bc7a4cb9edf25ab0a06afe4400d962b39916fb",
    ("route_scale", 1): "9d745ca8c7398848e4d627bd437842f3819d51770737c289833736102e5a9274",
}


@pytest.mark.parametrize("workload,seed", sorted(GENERATED_REPORT_DIGESTS))
def test_generated_reports_match_committed_digests(workload, seed):
    scenario = parse_scenario(load_generator().generate(workload, seed))
    sim = Simulation(scenario)
    sim.run()
    got = hashlib.sha256(sim.report().to_text().encode("utf-8")).hexdigest()
    assert got == GENERATED_REPORT_DIGESTS[(workload, seed)]


def test_larger_probe_rung_matches_its_committed_digest():
    """``probe_mesh`` at P40/M100 with no frames: 10,200 cells decided by
    18,624 unicast probe legs and 97 floods."""
    generator = load_generator()
    generator.WORKLOADS["probe_mesh"] = dataclasses.replace(
        generator.WORKLOADS["probe_mesh"], pes=40, members=100, frames=0)
    sim = Simulation(parse_scenario(generator.generate("probe_mesh", 1)))
    sim.run()
    got = hashlib.sha256(sim.report().to_text().encode("utf-8")).hexdigest()
    assert got == "f79a5dc8487dc9fa24bfaca2df05765eeb8415f901228cf0df36ca9df5820f68"


def test_larger_route_rung_matches_its_committed_digest():
    """``route_scale`` at P20/M400: 160,279 selected routes, most of them
    shared by groups of members viewing the same route-server tables."""
    generator = load_generator()
    generator.WORKLOADS["route_scale"] = dataclasses.replace(
        generator.WORKLOADS["route_scale"], pes=20, members=400)
    sim = Simulation(parse_scenario(generator.generate("route_scale", 1)))
    sim.run()
    dump = sim.rib_dump()
    assert dump.count("\n") == 160279
    got = hashlib.sha256(dump.encode("utf-8")).hexdigest()
    assert got == "eeb08c8108be2d509c2f8c489403a1e09886c1c7570bd827a413a6066b6fdd8b"


# SHA-256 of the other artefacts of generated rungs, recorded before a
# pseudo-wire's transport was resolved lazily by the fabric.
GENERATED_ARTEFACT_DIGESTS = {
    ("link_churn", 1): {
        "trace": "8ce5ab5d1f97f7c05f5a9fee7970cb544172921e6f328f91dccb58e22a351fdd",
        "ribs": "973c0de52af39f79642b3d2a2f9d3cfa19e87263aa6266a80e576528818d0335",
        "dot.physical": "6ca9cdf735e2e6c498386621a219c69e7f3572d70a5f3a3bd4d4ff110991c6c6",
        "dot.vpls": "3390ac0951397556373a4176fc37ea1cf7656983f12ac488a89550ea038aa7bc",
        "dot.peering": "5e912e29aa95309f63ca60f0abf21dc9efd86ad2327b66ba317a98674006aa89",
    },
    ("probe_mesh", 1): {
        "trace": "c45951bd7ffc551335d859f68b8542a2ff755c3bff91becae4792808840690ba",
        "ribs": "de5a3d75c5266159e96a3d4d2341949058893baf5dc36af21f60c9c2f6ca91a0",
        "dot.physical": "741683747a30641b90d57549ee3e5613ea3b29a1bce0d780c0c5fd0498623ab4",
        "dot.vpls": "f4c1114840c802999e380578429f81ea0a2b88c585cf868d3e33f5f8a7819b6f",
        "dot.peering": "05b38a4cf241c71d31ca08787c47cc679f285ad5e839d82d07f28a88ba8c3bca",
    },
    ("route_scale", 1): {
        "ribs": "9b319c333572568b150101f54c02f89c9595e44b8a8fb8dfb584b5e0445cd086",
    },
    # Recorded before route servers kept one shared client table each.
    ("route_scale", 2): {
        "trace": "a24541620aabb5f45c937f66c8cfe09fd6073ee8045bb9caf01f20de2aae4e88",
        "ribs": "e203c64e76b75a2df404d7e540ac1c889d23bd507e69d0d5f2aa5a2da95dfec1",
    },
    ("route_scale", 3): {
        "trace": "9f480645c838c78cd612dca3393a342222466231c72655c2eaca72e9419e6f13",
        "ribs": "e1ad4ca50c057f38e337e078717e3449f0207d3dc3ee9cd321f520b9d9d6dc74",
    },
}


@pytest.mark.parametrize("workload,seed", sorted(GENERATED_ARTEFACT_DIGESTS))
def test_generated_artefacts_match_committed_digests(workload, seed):
    """The ``run --trace`` trace, ``ribs`` and ``dot`` bytes, built the way
    the command line builds them; reachability probing runs on a clone, so
    the trace does not depend on whether the report was made."""
    scenario = parse_scenario(load_generator().generate(workload, seed))
    sim = Simulation(scenario)
    sim.run()
    artefacts = {"trace": sim.trace_dump, "ribs": sim.rib_dump}
    for layer in DOT_LAYERS:
        artefacts["dot." + layer] = lambda layer=layer: export_dot(sim, layer)
    want = GENERATED_ARTEFACT_DIGESTS[(workload, seed)]
    got = {key: hashlib.sha256(artefacts[key]().encode("utf-8")).hexdigest()
           for key in want}
    assert got == want
