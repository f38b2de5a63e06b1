"""Command-line interface for fault-injection campaigns.

Usage::

    python -m repro.inject campaign [--seed N] [--maps N] [--rows N]
        [--cols N] [--cell-faults N] [--line-faults N] [--no-retention]
        [--pause-s S] [--spare-rows N] [--spare-cols N]
        [--json] [--out FILE]

``campaign`` runs march tests over seeded fault maps and exits nonzero
when measured detection diverges from the analytical prediction or the
repair verdicts disagree.  Also reachable as ``repro inject ...``.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.inject.campaign import CampaignConfig, run_campaign


def _cmd_campaign(args: argparse.Namespace) -> int:
    config = CampaignConfig(
        seed=args.seed,
        n_maps=args.maps,
        rows=args.rows,
        cols=args.cols,
        n_cell_faults=args.cell_faults,
        n_line_faults=args.line_faults,
        include_retention=not args.no_retention,
        pause_s=args.pause_s,
        spare_rows=args.spare_rows,
        spare_cols=args.spare_cols,
    )
    report = run_campaign(config)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.summary())
    if args.out:
        report.write_json(args.out)
        print(f"wrote campaign report to {args.out}")
    if not report.ok:
        print(
            "campaign: measured detection or repair verdicts diverged "
            "from the analytical prediction",
            file=sys.stderr,
        )
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro inject",
        description="fault-injection campaigns",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    campaign = sub.add_parser(
        "campaign",
        help="march tests over seeded fault maps vs analytical coverage",
    )
    campaign.add_argument("--seed", type=int, default=0)
    campaign.add_argument("--maps", type=int, default=4)
    campaign.add_argument("--rows", type=int, default=32)
    campaign.add_argument("--cols", type=int, default=32)
    campaign.add_argument("--cell-faults", type=int, default=6)
    campaign.add_argument("--line-faults", type=int, default=2)
    campaign.add_argument(
        "--no-retention",
        action="store_true",
        help="exclude retention faults from the cell mix",
    )
    campaign.add_argument("--pause-s", type=float, default=0.2)
    campaign.add_argument("--spare-rows", type=int, default=2)
    campaign.add_argument("--spare-cols", type=int, default=2)
    campaign.add_argument(
        "--json", action="store_true", help="print the report as JSON"
    )
    campaign.add_argument("--out", help="write the report JSON here")
    campaign.set_defaults(func=_cmd_campaign)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
