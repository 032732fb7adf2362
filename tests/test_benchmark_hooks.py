"""The benchmark's traced iteration still finds every name it wraps.

``perfbench/worker.py --trace 1`` wraps functions and methods of the package
by name and reads results through them; a renamed or moved name fails only
there.  One traced iteration per workload, in a fresh interpreter, checks
that the hooks run and that upstream announcements are made only for the
report.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from helpers import WHIX, load_generator

WORKER = WHIX.parent.parent / "perfbench" / "worker.py"
UPSTREAM = "exchange_l3.upstream_announcements.calls"


@pytest.mark.parametrize("workload", ["link_churn", "probe_mesh", "route_scale"])
def test_traced_iteration_runs_every_hook(tmp_path, workload):
    scenario = tmp_path / ("%s.scn" % workload)
    scenario.write_text(load_generator().generate(workload, 1), encoding="utf-8")
    done = subprocess.run(
        [sys.executable, str(WORKER), "--workload", workload,
         "--scenario", str(scenario), "--trace", "1"],
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    (iteration,) = result["iterations"]
    assert iteration["problems"] == []
    # Only probe_mesh and link_churn make the report, which announces.
    want = 0 if workload == "route_scale" else 1
    assert result["layers"].get(UPSTREAM, 0) == want
