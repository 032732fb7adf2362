"""Run the benchmark once per seed on every workload and summarise.

    python3 perfbench/prove.py --seeds 1            # every workload, once
    python3 perfbench/prove.py --seeds 2-11 --seconds 40 --out proof.json
    python3 perfbench/prove.py --seeds 1,1,1,1,1,1,1,1,1,1   # one seed, ten runs

It prints each run's human-readable lines, which name every end-to-end
figure with its unit, then for each workload and gated metric the median
of the runs, the quartiles and their distance as a share of the median
(the spread that a metric's bound in BENCHMARK.json must cover).  Over
several seeds the spread holds both run-to-run noise and the differences
between scenarios; repeating one seed gives the noise alone.
``--traced-seed`` adds one traced run per workload and records its per-layer metrics and every span
line it printed.  Compare two commits by running this on each, alternating
which goes first.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from generate import WORKLOADS
from run import HERE, ROOT, quartiles


def seeds(text: str) -> list:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def bench(workload: str, seed: int, seconds: int, trace: int):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit("%s seed %d failed: %s" % (workload, seed, done.stderr.strip()))
    return json.loads(lines[-1]), lines[:-1]


def summarise(values: list) -> dict:
    q1, q3 = quartiles(values)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="2-11", help="first-last or a,b,c")
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--traced-seed", type=int, help="also one traced run on this seed")
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        units = {m["name"]: m["unit"] for m in json.load(handle)["end_to_end"]}
    summary = {"seeds": seeds(args.seeds), "seconds": args.seconds,
               "end_to_end": {}, "per_layer": {}, "spans": {}}
    for workload in WORKLOADS:
        values, failed = {}, 0
        for seed in summary["seeds"]:
            result, lines = bench(workload, seed, args.seconds, 0)
            failed += not result["correct"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print("\n".join(lines), flush=True)
        summary["end_to_end"][workload] = {k: summarise(v) for k, v in values.items()}
        summary["end_to_end"][workload]["failed_runs"] = failed
        for name, s in summary["end_to_end"][workload].items():
            if name != "failed_runs":
                print("%s %-14s median %.5g q1 %.5g q3 %.5g spread %.4f %s"
                      % (workload, name, s["median"], s["q1"], s["q3"], s["spread"],
                         units[name]))
        if args.traced_seed is not None:
            result, lines = bench(workload, args.traced_seed, args.seconds, 1)
            summary["per_layer"][workload] = {
                k: v["value"] for k, v in result["metrics"].items()}
            summary["spans"][workload] = [line for line in lines
                                          if line.startswith(("layer ", "tracing "))]
            print("\n".join(summary["spans"][workload]))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
