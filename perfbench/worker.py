"""Benchmark iterations in a fresh process.

An iteration loads the generated scenario (set-up), then runs it the way
the ``ixsim`` command does: ``Simulation(...)``, ``converge()``, every
event through ``apply_event()``, and the workload's outputs rendered to
strings.  Untraced, the worker repeats iterations for ``--budget`` seconds;
traced, it runs one under a ``Tracer``.  Prints one JSON object: for each
iteration its host times, SHA-256 digests of the outputs and structural
check failures; peak RSS from this process's own ``getrusage``; and, with
``--trace 1``, per-layer numbers.

The ``ixsim`` package is imported from ``src/`` of the checkout this file
sits in, never from anywhere else.  Normally started by ``run.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from generate import WORKLOADS  # noqa: E402
from tracer import Tracer  # noqa: E402

LAYERS = ("scenario", "model", "underlay", "vpls_signal", "dataplane",
          "exchange_l3", "engine")
OUTPUT_SPANS = ("engine.report", "engine.Report.to_text", "engine.rib_dump",
                "engine.trace_dump")
REACH = "exchange_l3.reachability_matrix"


def import_ixsim():
    """Import the package from this checkout's src/, or exit with a message."""
    sys.path.insert(0, SRC)
    import ixsim
    if not os.path.abspath(ixsim.__file__).startswith(SRC + os.sep):
        sys.exit("perfbench: imported ixsim from %s, not %s" % (ixsim.__file__, SRC))


def install(tracer: Tracer) -> None:
    """Wrap each layer boundary at the name its caller looks up."""
    from ixsim import dataplane, engine, exchange_l3, scenario, vpls_signal
    from ixsim.dataplane import Fabric
    from ixsim.engine import Report, Simulation
    from ixsim.exchange_l3 import MemberRib

    def sized(key):
        return lambda args, result, token: {key: len(result)}

    tracer.span(scenario, "load_scenario", "scenario.load_scenario")
    tracer.span(scenario, "parse_scenario", "scenario.parse_scenario")
    tracer.span(scenario, "validate_topology", "model.validate_topology")

    tracer.span(engine, "compute_all_spf", "underlay.compute_all_spf")
    tracer.span(engine, "allocate_labels", "underlay.allocate_labels",
                after=lambda args, result, token: {"bindings": len(result)})
    tracer.count(vpls_signal, "resolve_lsp", "underlay.resolve_lsp")

    for fn in ("build_session_graph", "originate_adverts", "propagate"):
        tracer.span(engine, fn, "vpls_signal." + fn)
    tracer.span(engine, "derive_pseudowires", "vpls_signal.derive_pseudowires",
                after=lambda args, result, token: {
                    "pseudowires": len(result[0]), "missing": len(result[1])})

    def inject_name(args):
        return "dataplane.inject.probe" if tracer.inside(REACH) \
            else "dataplane.inject.member"

    def inject_after(args, result, token):
        fabric = args[0]
        return {"trace_rows": len(fabric.trace) - token[0],
                "drops": len(fabric.drops) - token[1],
                "emissions": result.emissions,
                "pw_traversals": result.pw_traversals}

    tracer.span(Fabric, "inject", inject_name,
                before=lambda args: (len(args[0].trace), len(args[0].drops)),
                after=inject_after)
    tracer.count(dataplane, "bridge_forward", "dataplane.bridge_forward")

    tracer.span(engine, "rs_redistribute", "exchange_l3.rs_redistribute",
                after=sized("out"))
    tracer.span(engine, "transit_deliveries", "exchange_l3.transit_deliveries",
                after=sized("out"))
    tracer.span(engine, "upstream_announcements", "exchange_l3.upstream_announcements",
                after=sized("out"))
    tracer.span(engine, "reachability_matrix", REACH,
                after=lambda args, result, token: {
                    "cells": len(result), "cells_true": sum(result.values())})
    tracer.span(exchange_l3, "arp_resolve", "exchange_l3.arp_resolve",
                after=lambda args, result, token: {"answered": result is not None})
    tracer.span(MemberRib, "covering", "exchange_l3.MemberRib.covering")
    tracer.span(MemberRib, "chosen", "exchange_l3.MemberRib.chosen")
    tracer.count(MemberRib, "add", "exchange_l3.MemberRib.add")

    tracer.span(Simulation, "converge", "engine.converge",
                after=lambda args, result, token: {"changed_sweeps": result})
    tracer.span(Simulation, "_exchange_routes", "engine.exchange_routes")
    tracer.span(Simulation, "apply_event",
                lambda args: "engine.apply_event." + args[1].kind.value)
    tracer.span(Simulation, "report", "engine.report")
    tracer.span(Report, "to_text", "engine.Report.to_text")
    tracer.span(Simulation, "rib_dump", "engine.rib_dump")
    tracer.span(Simulation, "trace_dump", "engine.trace_dump")


def expected_rib_lines(scenario) -> int:
    """Selected routes every member must hold: one per prefix of every other
    active member (both route servers carry all of them), plus the default
    or the external table from the transit member."""
    from ixsim.exchange_l3 import PeerKind, TransitPolicy
    from ixsim.model import PortState
    active = {p.member_asn for p in scenario.ports if p.state is PortState.ACTIVE}
    prefixes = {m.asn: len(m.announced_prefixes) for m in scenario.members}
    total = 0
    for asn in active:
        total += sum(n for other, n in prefixes.items() if other in active and other != asn)
    for s in scenario.sessions:
        if s.kind is PeerKind.TRANSIT and s.a in active and s.b in active:
            total += 1 if s.policy is TransitPolicy.DEFAULT_ONLY \
                else len(scenario.external_prefixes)
    return total


def structural_problems(workload, scenario, sim, outputs) -> list:
    from ixsim.scenario import EventKind
    problems = []
    mesh = workload.pes * (workload.pes - 1) // 2
    if len(sim.pseudowires) != mesh or sim.missing_transport:
        problems.append("pseudo-wires %d, missing %d after the last event; want %d, 0"
                        % (len(sim.pseudowires), len(sim.missing_transport), mesh))
    if "report" in outputs:
        lines = outputs["report"].splitlines()
        cells = [line for line in lines if line.startswith("reach.")]
        want = workload.members * (workload.members + workload.externals) - workload.members
        true = sum(line.endswith("=1") for line in cells)
        if len(cells) != want or not 0 < true < want:
            problems.append("reachability cells %d (%d true); want %d, some 0"
                            % (len(cells), true, want))
        if "pseudowire_count=%d" % mesh not in lines:
            problems.append("report pseudowire_count differs from %d" % mesh)
    if "ribs" in outputs:
        got, want = outputs["ribs"].count("\n"), expected_rib_lines(scenario)
        if got != want:
            problems.append("rib dump has %d routes; want %d" % (got, want))
    if "trace" in outputs:
        frames = sum(e.kind is EventKind.INJECT_FRAME for e in scenario.events)
        ids = {row.split(",", 2)[1] for row in outputs["trace"].splitlines()[1:]}
        if len(ids) != frames:
            problems.append("trace holds %d frames; want %d" % (len(ids), frames))
    return problems


def run_once(workload, path: str) -> dict:
    """One iteration: set-up, then the run, timed step by step.

    Each step is a (kind, seconds) pair: "converge" for ``Simulation(...)``
    with the first ``converge()``, the event kind for each ``apply_event()``
    ("link_down", "inject_frame", ...), and the output's name for each output
    rendered.  Every iteration of a scenario runs the same steps, so
    ``run.py`` can line them up across iterations."""
    from ixsim import engine
    from ixsim.scenario import load_scenario

    start = perf_counter()
    scenario = load_scenario(path)
    setup_s = perf_counter() - start

    steps = []
    begin = perf_counter()
    sim = engine.Simulation(scenario)
    sim.converge()
    steps.append(("converge", perf_counter() - begin))
    for event in scenario.events:
        start = perf_counter()
        sim.apply_event(event)
        steps.append((event.kind.value, perf_counter() - start))
    outputs = {}
    for name, render in (("report", lambda: sim.report().to_text()),
                         ("ribs", sim.rib_dump), ("trace", sim.trace_dump)):
        if name in workload.outputs:
            start = perf_counter()
            outputs[name] = render()
            steps.append((name, perf_counter() - start))
    run_s = perf_counter() - begin

    return {
        "setup_s": setup_s,
        "steps": steps,
        "run_s": run_s,
        "rib_candidates": sum(len(routes) for rib in sim.l3.ribs.values()
                              for routes in rib.candidates.values()),
        "digests": {k: hashlib.sha256(v.encode()).hexdigest() for k, v in outputs.items()},
        "problems": structural_problems(workload, scenario, sim, outputs),
    }


def layer_metrics(tracer: Tracer, result: dict) -> dict:
    """Per-layer numbers of one traced iteration, keyed by metric name."""
    rows = tracer.summary()
    counts = tracer.counts
    out = {}

    def row(name):
        return rows.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    for name, r in rows.items():
        out[name + ".calls"] = r["calls"]
        out[name + ".self_s"] = r["self_s"]
    for key, value in counts.items():
        out[key] = value
    for layer in LAYERS:
        out[layer + ".self_s"] = sum(r["self_s"] for n, r in rows.items()
                                     if n.split(".", 1)[0] == layer)
    out["engine.outputs.self_s"] = sum(row(n)["self_s"] for n in OUTPUT_SPANS)
    out["engine.apply_event.self_s"] = sum(
        r["self_s"] for n, r in rows.items() if n.startswith("engine.apply_event."))

    cells = row("exchange_l3.arp_resolve")["calls"]
    probes = row("dataplane.inject.probe")["calls"]
    out["dataplane.inject.probe.frames_per_cell"] = probes / cells if cells else 0.0
    covering = row("exchange_l3.MemberRib.covering")["calls"]
    chosen = row("exchange_l3.MemberRib.chosen")["calls"]
    out["exchange_l3.MemberRib.chosen_per_covering"] = chosen / covering if covering else 0.0
    out["exchange_l3.rib_candidates"] = result["rib_candidates"]
    out["underlay.label_bindings"] = counts["underlay.allocate_labels.bindings"]
    out["vpls_signal.pseudowires"] = counts["vpls_signal.derive_pseudowires.pseudowires"]
    out["vpls_signal.missing_transport"] = counts["vpls_signal.derive_pseudowires.missing"]
    sweeps = row("engine.exchange_routes")["calls"]
    out["engine.sweeps"] = sweeps
    out["engine.useful_sweep_ratio"] = counts["engine.converge.changed_sweeps"] / sweeps

    run_s = result["run_s"]
    out["load.reachability_share"] = row(REACH)["total_s"] / run_s
    out["load.route_share"] = (row("engine.exchange_routes")["total_s"]
                               + row("engine.rib_dump")["total_s"]) / run_s
    # Share of event time spent in the layers an event exercises: underlay
    # and signalling for link events, the data plane for member frames.
    roots = tracer.roots()
    event_s = layer_s = 0.0
    for i, (name, start, end, _) in enumerate(tracer.spans):
        if roots[i] == i and name.startswith("engine.apply_event."):
            event_s += end - start
        elif tracer.spans[roots[i]][0].startswith("engine.apply_event.") and (
                name.startswith(("underlay.", "vpls_signal."))
                or name == "dataplane.inject.member"):
            layer_s += end - start
    out["load.event_layers_share"] = layer_s / event_s if event_s else 0.0
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--scenario", required=True, help="generated scenario file")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-id", default="0", help="tags this iteration's spans")
    parser.add_argument("--spans", help="write the spans here as CSV (with --trace 1)")
    parser.add_argument("--budget", type=float, default=0,
                        help="untraced: start iterations until this many seconds "
                             "have passed (at least one)")
    args = parser.parse_args(argv)
    import_ixsim()

    workload = WORKLOADS[args.workload]
    result = {}
    if args.trace:
        tracer = Tracer(args.run_id)
        install(tracer)
        try:
            iterations = [run_once(workload, args.scenario)]
        finally:
            tracer.restore()
        result["layers"] = layer_metrics(tracer, iterations[0])
        if args.spans:
            tracer.write(args.spans)
    else:
        iterations, start = [], perf_counter()
        while not iterations or perf_counter() - start < args.budget:
            iterations.append(run_once(workload, args.scenario))
    result["iterations"] = iterations
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
