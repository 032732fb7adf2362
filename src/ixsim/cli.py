"""Command-line front end.

Exit codes: 0 on success, 1 when the scenario is structurally invalid or a
run fails, 2 when the file cannot be read or parsed.  Diagnostics go to
stderr; requested artefacts go to stdout unless a path flag redirects them.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from ixsim.engine import (
    DOT_LAYERS,
    Simulation,
    UnknownEntityError,
    export_dot,
)
from ixsim.scenario import ParseError, Scenario, ScenarioValidationError, load_scenario

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ixsim",
        description="deterministic exchange-fabric simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="parse and validate a scenario")
    check.add_argument("scenario")

    run = sub.add_parser("run", help="run a scenario and report")
    run.add_argument("scenario")
    run.add_argument("--report", metavar="PATH",
                     help="write the report here instead of stdout")
    run.add_argument("--trace", metavar="PATH",
                     help="write the frame trace log here")

    dot = sub.add_parser("dot", help="export one layer as graphviz text")
    dot.add_argument("scenario")
    dot.add_argument("--layer", choices=DOT_LAYERS, default="physical")

    ribs = sub.add_parser("ribs", help="dump every member's selected routes")
    ribs.add_argument("scenario")
    return parser


def _load(path: str) -> Scenario:
    try:
        return load_scenario(path)
    except OSError as err:
        raise ParseError(0, "cannot read %s: %s" % (path, err.strerror))


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        scenario = _load(args.scenario)
        if args.command == "check":
            return EXIT_OK
        sim = Simulation(scenario)
        sim.run()
        if args.command == "dot":
            sys.stdout.write(export_dot(sim, args.layer))
            return EXIT_OK
        if args.command == "ribs":
            sys.stdout.write(sim.rib_dump())
            return EXIT_OK
        report = sim.report().to_text()
        if args.report:
            with open(args.report, "w", encoding="utf-8") as handle:
                handle.write(report)
        else:
            sys.stdout.write(report)
        if args.trace:
            with open(args.trace, "w", encoding="utf-8") as handle:
                handle.write(sim.trace_dump())
        return EXIT_OK
    except ScenarioValidationError as err:
        print("invalid scenario: %s" % err, file=sys.stderr)
        return EXIT_INVALID
    except ParseError as err:
        print("parse error: %s" % err, file=sys.stderr)
        return EXIT_PARSE
    except UnknownEntityError as err:
        print("run failed: %s" % err, file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
