"""Exit codes and artefact routing for the command-line front end."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import textwrap

import pytest

import ixsim.engine
from helpers import WHIX
from ixsim.cli import EXIT_INVALID, EXIT_OK, EXIT_PARSE, main
from ixsim.dataplane import TRACE_HEADER
from ixsim.engine import DOT_LAYERS

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


def test_missing_file_is_a_parse_failure(capsys):
    assert main(["check", "/nonexistent/nowhere.scn"]) == EXIT_PARSE
    assert "cannot read" in capsys.readouterr().err


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


def test_reachability_is_probed_only_for_the_report(monkeypatch):
    calls = []
    probe = ixsim.engine.reachability_matrix

    def counted(*args, **kwargs):
        calls.append(1)
        return probe(*args, **kwargs)

    monkeypatch.setattr(ixsim.engine, "reachability_matrix", counted)
    assert main(["ribs", GOOD]) == EXIT_OK
    assert len(calls) == 0
    assert main(["run", GOOD]) == EXIT_OK
    assert len(calls) == 1


def test_runtime_event_against_missing_entity_fails(tmp_path, capsys):
    path = write(tmp_path, """\
        node a loopback 172.16.0.1 rr
        node b loopback 172.16.0.2
        link a b type radio
        exchange-prefix 192.0.2.0/24
        member 64496 one port a mac 02:00:00:00:00:01 ip 192.0.2.11
        event 1 link-down a nessie
        """)
    assert main(["run", path]) == EXIT_INVALID
    assert "run failed" in capsys.readouterr().err


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


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit):
        main([])


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    def ixsim(seed, command, *flags):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
        return subprocess.run(
            [sys.executable, "-m", "ixsim.cli", command, GOOD, *flags],
            env=env, capture_output=True, check=True).stdout

    outputs = []
    for seed in ("0", "1"):
        trace = tmp_path / ("trace-%s.csv" % seed)
        got = [ixsim(seed, "run", "--trace", str(trace)), trace.read_bytes(),
               ixsim(seed, "ribs")]
        got += [ixsim(seed, "dot", "--layer", layer) for layer in DOT_LAYERS]
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


def test_whix_outputs_match_committed_digests(tmp_path, capsys):
    def digest(data):
        return hashlib.sha256(data.encode("utf-8")).hexdigest()

    trace = tmp_path / "trace.csv"
    got = {}
    assert main(["run", GOOD, "--trace", str(trace)]) == EXIT_OK
    got[("run",)] = digest(capsys.readouterr().out)
    got[("run", "--trace")] = digest(trace.read_text(encoding="utf-8"))
    assert main(["ribs", GOOD]) == EXIT_OK
    got[("ribs",)] = digest(capsys.readouterr().out)
    for layer in DOT_LAYERS:
        assert main(["dot", GOOD, "--layer", layer]) == EXIT_OK
        got[("dot", layer)] = digest(capsys.readouterr().out)
    assert got == WHIX_DIGESTS
