"""Tests of the benchmark's own code: the generator is deterministic and
produces the workload it claims, and the tracer's bookkeeping is right.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import collections
import json
import os
import subprocess
import sys
import time
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from generate import DEFAULT_SHARE, FULL_SHARE, WORKLOADS, generate  # noqa: E402
from run import end_to_end, high_percentile  # noqa: E402
from tracer import Tracer  # noqa: E402
import worker  # noqa: E402

from ixsim.model import PortState  # noqa: E402
from ixsim.scenario import EventKind, parse_scenario  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_bytes_under_any_hash_seed(name):
    text = generate(name, 7)
    assert generate(name, 7) == text
    for hashseed in ("0", "4242"):
        printed = subprocess.run(
            [sys.executable, os.path.join(HERE, "generate.py"), name, "7"],
            env=dict(os.environ, PYTHONHASHSEED=hashseed),
            capture_output=True, text=True, check=True).stdout
        assert printed == text
    assert generate(name, 8) != text


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generated_scenario_has_the_workload_shape(name):
    w = WORKLOADS[name]
    scenario = parse_scenario(generate(name, 3))
    assert len(scenario.topology.nodes) == w.pes
    assert len(scenario.topology.reflector_names()) == 2
    assert len(scenario.members) == w.members
    assert sum(m.is_transit for m in scenario.members) == 1
    assert len(scenario.external_prefixes) == w.externals
    assert [len(s.client_sessions) for s in scenario.route_servers] == [w.members] * 2
    assert sum(p.state is PortState.QUARANTINE for p in scenario.ports) == w.quarantined
    kinds = collections.Counter(e.kind for e in scenario.events)
    assert kinds[EventKind.INJECT_FRAME] == w.frames
    assert kinds[EventKind.LINK_DOWN] == kinds[EventKind.LINK_UP] == w.flaps
    sessions = collections.Counter(s.kind.value for s in scenario.sessions)
    assert sessions["bilateral"] == w.bilateral
    assert sessions["transit"] == round((FULL_SHARE + DEFAULT_SHARE) * (w.members - 1))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_work_mix_is_the_same_on_every_seed(name):
    """Link types, jumbo MTUs, members on leaf PEs and which kind of link
    each flap hits are counts fixed by the workload, not drawn per seed."""
    def mix(seed):
        scenario = parse_scenario(generate(name, seed))
        links = scenario.topology.links
        degree = collections.Counter(end for link in links for end in (link.a, link.b))
        leaves = {pe for pe, n in degree.items() if n == 1}
        leaf_links = {link.endpoints for link in links if link.a in leaves or link.b in leaves}
        flapped = [tuple(sorted(e.args[:2])) for e in scenario.events
                   if e.kind is EventKind.LINK_DOWN]
        return (len(leaves), sum(link.mtu == 9000 for link in links),
                collections.Counter(link.kind for link in links),
                sum(p.attach_pe in leaves for p in scenario.ports),
                sum(f in leaf_links for f in flapped))
    assert mix(2) == mix(3) == mix(4)


class Box:
    def outer(self):
        return self.inner() + self.inner() + self.hot()

    def inner(self):
        time.sleep(0.01)
        return 1

    def hot(self):
        return 0


def test_tracer_self_time_excludes_children_and_restores_names():
    originals = dict(Box.__dict__)
    tracer = Tracer("run-1")
    tracer.span(Box, "outer", "box.outer")
    tracer.span(Box, "inner", lambda args: "box.inner",
                after=lambda args, result, token: {"ones": result})
    tracer.count(Box, "hot", "box.hot")
    assert Box.__dict__["outer"] is not originals["outer"]
    assert Box().outer() == 2
    tracer.restore()
    assert all(Box.__dict__[k] is originals[k] for k in ("outer", "inner", "hot"))

    rows = tracer.summary()
    assert rows["box.outer"]["calls"] == 1 and rows["box.inner"]["calls"] == 2
    assert tracer.counts == {"box.inner.ones": 2, "box.hot.calls": 1}
    outer, inner = rows["box.outer"], rows["box.inner"]
    assert outer["self_s"] == pytest.approx(outer["total_s"] - inner["total_s"])
    assert 0 <= outer["self_s"] < inner["total_s"]
    assert inner["self_s"] == inner["total_s"] >= 0.02
    assert [span[3] for span in tracer.spans] == [-1, 0, 0]
    assert tracer.roots() == [0, 0, 0]


def test_tracer_wraps_module_globals_and_sees_open_spans(tmp_path):
    module = types.ModuleType("fake")
    seen = []
    module.work = lambda: seen.append(tracer.inside("fake.work"))
    tracer = Tracer("run-2")
    tracer.span(module, "work", "fake.work")
    module.work()
    tracer.restore()
    module.work()
    assert seen == [True, False]
    path = tmp_path / "spans.csv"
    tracer.write(str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "run_id,index,name,start,end,parent"
    assert lines[1].startswith("run-2,0,fake.work,") and lines[1].endswith(",-1")


def test_install_restores_every_wrapped_name():
    from ixsim import dataplane, engine, exchange_l3, scenario, vpls_signal
    owners = (dataplane, engine, exchange_l3, scenario, vpls_signal,
              dataplane.Fabric, engine.Simulation, engine.Report, exchange_l3.MemberRib)
    before = [dict(vars(owner)) for owner in owners]
    tracer = Tracer("run-3")
    worker.install(tracer)
    assert vars(engine)["compute_all_spf"] is not before[1]["compute_all_spf"]
    tracer.restore()
    for owner, saved in zip(owners, before):
        assert all(vars(owner)[k] is v for k, v in saved.items())


def test_end_to_end_sums_each_step_at_its_fastest():
    its = [{"setup_s": 0.5, "run_s": 9.0,
            "steps": [["converge", 1.0], ["inject_frame", 2.0], ["report", 6.0]]},
           {"setup_s": 0.4, "run_s": 9.0,
            "steps": [["converge", 3.0], ["inject_frame", 1.0], ["report", 5.0]]}]
    figures = end_to_end(its, [10.0, 30.0, 20.0])
    assert figures == {"setup_s": 0.4, "converge_s": 1.0, "run_s": 7.0,
                       "frames_per_s": 1.0, "peak_rss_mib": 20.0}
    assert end_to_end(its[:1], [10.0])["run_s"] == 9.0


def test_high_percentile_leaves_ten_samples_above():
    assert high_percentile(list(range(100))) == (90, 89)
    assert high_percentile(list(range(1000))) == (99, 989)
    assert high_percentile(list(range(50))) == (75, 37)
    assert high_percentile(list(range(15))) == (None, None)


def test_benchmark_json_names_each_workload_with_its_reason():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert spec["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]
