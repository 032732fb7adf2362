"""ixsim benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload probe_mesh --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  The scenario is generated from the seed
(perfbench/generate.py) and written under perfbench/.work/.  Then worker
processes (perfbench/worker.py) run one at a time, each under its own
PYTHONHASHSEED and each repeating full iterations for WORKER_BUDGET_S,
until the next one would overrun --seconds.  A worker failing, a structural
check failing, or an output digest that differs from the other iterations
(or, on the default seed, from perfbench/goldens.json) counts as a failed
iteration.

With --trace 0 the end-to-end metrics of BENCHMARK.json are reported, each
host time summed from the steps of an iteration at their fastest over the
run (see end_to_end); with --trace 1 every other worker runs one traced
iteration and the per-layer metrics come from those, together with the
tracing overhead (traced against untraced iteration run_s).  Human-readable
lines come first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
sys.path.insert(0, HERE)

from generate import DEFAULT_SEED, WORKLOADS, generate  # noqa: E402

HARD_LIMIT_S = 170  # a run must end well inside 180 s
WORKER_BUDGET_S = 3.0  # each untraced worker repeats iterations this long


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def high_percentile(values):
    """Highest of p99, p90, p75 and p50 (nearest rank) that leaves at least
    ten samples above it, as (percentile, value)."""
    ordered = sorted(values)
    for pct in (99, 90, 75, 50):
        rank = math.ceil(len(ordered) * pct / 100)
        if len(ordered) - rank >= 10:
            return pct, ordered[rank - 1]
    return None, None


def run_worker(workload: str, path: str, trace: int, hashseed: int, timeout: float,
               spans: str = "", budget: float = 0.0) -> dict:
    """A worker in a fresh interpreter, running iterations for ``budget``
    seconds (one traced iteration with ``trace``); raises RuntimeError on
    failure."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--scenario", path, "--trace", str(trace), "--run-id", str(hashseed),
           "--budget", str(budget)]
    if spans:
        cmd += ["--spans", spans]
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    try:
        done = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise RuntimeError("worker timed out after %.0f s" % timeout)
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-1:] or ["no output"]
        raise RuntimeError("worker exit %d: %s" % (done.returncode, tail[0]))
    return json.loads(done.stdout.strip().splitlines()[-1])


def scenario_file(workload: str, seed: int) -> str:
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, "%s-%d.scn" % (workload, seed))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(generate(workload, seed))
    return path


def load_goldens() -> dict:
    with open(os.path.join(HERE, "goldens.json"), encoding="utf-8") as handle:
        return json.load(handle)


def measure(workload: str, seed: int, seconds: float, trace: int) -> list:
    """Start workers until the budget is spent.  Each worker is a dict with
    its PYTHONHASHSEED, whether it was traced, its output (or None) and a
    list of problems."""
    path = scenario_file(workload, seed)
    spans = os.path.join(WORK, "%s-%d.spans.csv" % (workload, seed))
    runs, took = [], []
    start = time.monotonic()
    minimum = 4 if trace else 2
    while True:
        elapsed = time.monotonic() - start
        next_s = max(took) if took else 0
        if len(runs) >= minimum and elapsed + next_s > seconds:
            break
        if elapsed + next_s > HARD_LIMIT_S:
            print("stopped after %d workers: time limit" % len(runs))
            break
        hashseed = (seed * 1009 + len(runs)) % 4294967296
        run = {"hashseed": hashseed, "traced": bool(trace and len(runs) % 2),
               "out": None, "problems": []}
        began = time.monotonic()
        try:
            run["out"] = run_worker(workload, path, int(run["traced"]), hashseed,
                                    HARD_LIMIT_S - elapsed, spans if run["traced"] else "",
                                    WORKER_BUDGET_S)
        except (RuntimeError, ValueError) as err:
            run["problems"].append(str(err))
        took.append(time.monotonic() - began)
        runs.append(run)
    return runs


def iterations(runs: list) -> list:
    """One record per iteration (or per worker that failed outright), with
    the worker it ran in and its problems so far."""
    records = []
    for run in runs:
        if run["out"] is None:
            records.append({"run": run, "it": None, "problems": list(run["problems"])})
        else:
            records.extend({"run": run, "it": it, "problems": list(it["problems"])}
                           for it in run["out"]["iterations"])
    return records


def check(workload: str, seed: int, records: list) -> None:
    """Digest agreement between iterations (with the goldens on the default
    seed) and identical per-layer counts between traced workers; adds to
    each record's problems.  The structural checks ran in the worker."""
    done = [r for r in records if r["it"] is not None]
    if seed == DEFAULT_SEED:
        reference = load_goldens()[workload]
    else:
        reference = done[0]["it"]["digests"] if done else None
    first_counts = None
    for record in done:
        digests = record["it"]["digests"]
        if digests != reference:
            record["problems"].append("digests %s differ from %s" % (digests, reference))
        if record["run"]["traced"]:
            layers = record["run"]["out"]["layers"]
            counts = {k: v for k, v in layers.items() if isinstance(v, int)}
            if first_counts is None:
                first_counts = counts
            elif counts != first_counts:
                record["problems"].append("per-layer counts differ between traced workers")


def fastest_steps(its: list) -> list:
    """(kind, seconds) for each step of an iteration, at its fastest over
    ``its``.  All iterations run one scenario, so their steps line up."""
    kinds = [kind for kind, _ in its[0]["steps"]]
    return [(kind, min(it["steps"][i][1] for it in its)) for i, kind in enumerate(kinds)]


UNITS = {"setup_s": "s", "converge_s": "s", "run_s": "s", "frames_per_s": "1/s",
         "peak_rss_mib": "MiB"}


def end_to_end(its: list, rss: list) -> dict:
    """The end-to-end figures of a run, keyed as in UNITS, from its untraced
    iterations and the peak RSS of their workers.

    A host-time figure is each step at its fastest over the run's
    iterations, summed: set-up is the fastest ``load_scenario``, run_s the
    fastest ``Simulation(...)`` with ``converge()`` plus each event's
    fastest ``apply_event()`` plus each output's fastest render.  Every
    iteration does the same work and the host can only add time to it, so
    the fastest time of a step is the best estimate of its cost on an idle
    core."""
    steps = fastest_steps(its)
    frames = [s for kind, s in steps if kind == "inject_frame"]
    return {
        "setup_s": min(it["setup_s"] for it in its),
        "converge_s": steps[0][1],
        "run_s": sum(s for _, s in steps),
        "frames_per_s": len(frames) / sum(frames),
        "peak_rss_mib": statistics.median(rss),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "ixsim", "__init__.py")):
        print("perfbench: no ixsim sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)

    w = WORKLOADS[args.workload]
    print("workload %s seed %d: P=%d M=%d externals=%d bilateral=%d quarantined=%d "
          "frames=%d flaps=%d outputs=%s"
          % (w.name, args.seed, w.pes, w.members, w.externals, w.bilateral,
             w.quarantined, w.frames, w.flaps, "+".join(w.outputs)))
    runs = measure(args.workload, args.seed, args.seconds, args.trace)
    records = iterations(runs)
    check(args.workload, args.seed, records)
    failed = [r for r in records if r["problems"]]
    for r in failed:
        print("FAILED PYTHONHASHSEED=%d: %s" % (r["run"]["hashseed"], "; ".join(r["problems"])))
    print("workers %d, iterations %d, failed %d, ops_failed_ratio %.4f"
          % (len(runs), len(records), len(failed), len(failed) / len(records)))
    good = [r for r in records if not r["problems"]]
    for r in good[:1]:
        for name, digest in sorted(r["it"]["digests"].items()):
            print("digest %s sha256 %s" % (name, digest))

    plain = [r["it"] for r in good if not r["run"]["traced"]]
    traced = [r for r in good if r["run"]["traced"]]
    metrics = {}
    if plain:
        rss = [run["out"]["peak_rss_mib"] for run in runs
               if run["out"] is not None and not run["traced"]]
        figures = end_to_end(plain, rss)
        for name, value in figures.items():
            print("%-14s %.6g %s" % (name, value, UNITS[name]))
        whole = [it["run_s"] for it in plain]
        q1, q3 = quartiles(whole)
        print("iteration run_s median %.6g q1 %.6g q3 %.6g n=%d s (each step at its "
              "fastest sums to run_s)" % (statistics.median(whole), q1, q3, len(whole)))
        flaps = [s * 1e3 for it in plain for kind, s in it["steps"]
                 if kind in ("link_down", "link_up")]
        if flaps:
            pct, value = high_percentile(flaps)
            print("flap_ms        p50 %.6g p%s %s n=%d" % (
                statistics.median(flaps), pct, "%.6g" % value if pct else "-", len(flaps)))

    if not args.trace:
        if plain:
            metrics = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]}
                       for m in spec["end_to_end"]}
    elif plain and traced:
        layers = {}
        outs = [r["run"]["out"]["layers"] for r in traced]
        for key in sorted({k for out in outs for k in out}):
            values = [out.get(key, 0) for out in outs]
            # Counts agree between traced workers (checked above); keep them whole.
            layers[key] = values[0] if len(set(values)) == 1 else statistics.median(values)
            print("layer %-50s %.6g" % (key, layers[key]))
        layers["tracer.overhead_ratio"] = (
            statistics.median(r["it"]["run_s"] for r in traced) / statistics.median(whole))
        print("tracing overhead: traced / untraced iteration run_s = %.4f"
              % layers["tracer.overhead_ratio"])
        metrics = {m["name"]: {"value": layers.get(m["name"], 0), "unit": m["unit"]}
                   for m in spec["per_layer"]}

    print(json.dumps({"correct": not failed and bool(metrics), "attempted": len(records),
                      "failed": len(failed), "metrics": metrics}))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
