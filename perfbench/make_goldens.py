"""Record perfbench/goldens.json: the output digests of every workload on
the default seed.  Rerun only when a change to the simulator is meant to
change its outputs, and say in the change which bytes moved and why.

    python3 perfbench/make_goldens.py
"""

from __future__ import annotations

import json
import os
import sys

from run import HERE, HARD_LIMIT_S, run_worker, scenario_file
from generate import DEFAULT_SEED, WORKLOADS


def main() -> int:
    goldens = {}
    for name in sorted(WORKLOADS):
        out = run_worker(name, scenario_file(name, DEFAULT_SEED), 0, 0, HARD_LIMIT_S)
        first = out["iterations"][0]
        if first["problems"]:
            sys.exit("%s: %s" % (name, "; ".join(first["problems"])))
        goldens[name] = first["digests"]
    with open(os.path.join(HERE, "goldens.json"), "w", encoding="utf-8") as handle:
        json.dump(goldens, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
