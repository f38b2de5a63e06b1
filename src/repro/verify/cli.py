"""Command-line entry point for the verification subsystem.

Usage::

    python -m repro.verify fuzz --seed 0 --budget 200
    python -m repro.verify fuzz --property sim_differential --budget 40
    python -m repro.verify fuzz --property pacing_plan --case '{...}'
    python -m repro.verify fuzz --budget 200 --trace-dir traces/
    python -m repro.verify chaos --profile smoke --out chaos.jsonl
    python -m repro.verify properties

``fuzz`` runs the seeded fuzz harness (failing cases are shrunk and
printed with a one-line repro command; ``--property sim_differential``
runs the event backend against the per-cycle loop alone); ``chaos``
induces failures and checks recovery; ``properties`` lists the
registered fuzz properties.
Also reachable as ``python -m repro.cli verify ...``.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.errors import ConfigurationError


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.verify import fuzz

    if args.case is not None:
        if not args.property:
            print(
                "--case requires --property to name the check",
                file=sys.stderr,
            )
            return 2
        name = args.property[0]
        try:
            params = json.loads(args.case)
        except json.JSONDecodeError as error:
            print(f"--case is not valid JSON: {error}", file=sys.stderr)
            return 2
        try:
            messages = fuzz.evaluate_case(name, params)
        except ConfigurationError as error:
            print(f"invalid case: {error}", file=sys.stderr)
            return 2
        if messages:
            print(f"{name}: FAILED")
            for message in messages:
                print(f"  {message}")
            return 1
        print(f"{name}: passed")
        return 0

    report = fuzz.run_fuzz(
        seed=args.seed,
        budget=args.budget,
        properties=args.property or None,
        shrink=not args.no_shrink,
    )
    print(report.summary())
    for failure in report.failures:
        print()
        print(failure.describe())
        if args.trace_dir:
            path = fuzz.write_failure_trace(failure, args.trace_dir)
            if path:
                print(f"  trace: {path}")
    return 0 if report.ok else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.verify import chaos

    report = chaos.run_chaos(
        profile=args.profile,
        seed=args.seed,
        scenarios=args.scenario or None,
        out=args.out,
    )
    print(report.summary())
    if report.ledger_path:
        print(f"chaos ledger: {report.ledger_path}")
    return 0 if report.ok else 1


def _cmd_properties(args: argparse.Namespace) -> int:
    from repro.verify.fuzz import PROPERTIES

    for prop in PROPERTIES:
        print(prop.name)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.verify",
        description="differential verification: live invariants, "
        "oracles and seeded fuzzing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fuzz_cmd = sub.add_parser("fuzz", help="run the seeded fuzz harness")
    fuzz_cmd.add_argument("--seed", type=int, default=0)
    fuzz_cmd.add_argument(
        "--budget",
        type=int,
        default=200,
        help="total generated cases across all properties",
    )
    fuzz_cmd.add_argument(
        "--property",
        action="append",
        help="restrict to this property (repeatable)",
    )
    fuzz_cmd.add_argument(
        "--case",
        help="JSON params for one explicit case (requires --property)",
    )
    fuzz_cmd.add_argument(
        "--no-shrink",
        action="store_true",
        help="report failing cases without shrinking them",
    )
    fuzz_cmd.add_argument(
        "--trace-dir",
        help="write a Chrome trace of each failing (shrunk) sim case "
        "into this directory",
    )
    fuzz_cmd.set_defaults(func=_cmd_fuzz)

    chaos_cmd = sub.add_parser(
        "chaos",
        help="induce failures (killed/frozen workers, torn files, "
        "deadline-cancelled jobs) and assert the recovery invariants",
    )
    chaos_cmd.add_argument(
        "--profile",
        choices=("smoke", "full"),
        default="smoke",
        help="smoke = kill + deadline cancel (CI gate); full = every "
        "scenario",
    )
    chaos_cmd.add_argument("--seed", type=int, default=0)
    chaos_cmd.add_argument(
        "--scenario",
        action="append",
        help="run just this scenario (repeatable, overrides --profile)",
    )
    chaos_cmd.add_argument(
        "--out", help="write the JSONL chaos ledger here"
    )
    chaos_cmd.set_defaults(func=_cmd_chaos)

    props_cmd = sub.add_parser(
        "properties", help="list registered fuzz properties"
    )
    props_cmd.set_defaults(func=_cmd_properties)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
