"""CLI for the exploration service: `repro serve` and `repro client`.

The server side is one blocking command (``repro serve``).  The client
side mirrors the HTTP surface one subcommand per endpoint and is
forwarded from the root CLI (``repro client submit ...``) or run
directly as ``python -m repro.serve ...``; see docs/SERVICE.md for a
walkthrough.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.errors import ReproError


def add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8765)
    parser.add_argument(
        "--cache-size",
        type=int,
        default=256,
        help="in-memory result-cache entries (LRU beyond this)",
    )
    parser.add_argument(
        "--cache-path",
        default=None,
        help="JSONL spill file; results survive restarts",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=4,
        help="job executor threads",
    )
    parser.add_argument(
        "--journal-dir",
        default=None,
        help="directory for per-job sweep checkpoints: cancelled jobs "
        "leave a resumable journal here",
    )
    parser.add_argument(
        "--no-tracing",
        action="store_true",
        help="do not mint trace contexts at job submission (ledger "
        "events lose their trace_id/span_id stamps)",
    )


def run_serve(args: argparse.Namespace) -> int:
    from repro.serve.server import run_server

    def ready(address) -> None:
        host, port = address
        print(f"repro serve listening on http://{host}:{port}", flush=True)

    run_server(
        host=args.host,
        port=args.port,
        cache_size=args.cache_size,
        cache_path=args.cache_path,
        max_workers=args.workers,
        ready=ready,
        journal_dir=args.journal_dir,
        tracing=not args.no_tracing,
    )
    return 0


def _load_job(args: argparse.Namespace) -> dict:
    if args.job is not None:
        return json.loads(args.job)
    if args.job_file == "-":
        return json.load(sys.stdin)
    with open(args.job_file, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _emit(document: dict, out: str | None) -> None:
    text = json.dumps(document, indent=2, sort_keys=True)
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def build_client_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro client",
        description="client for a running `repro serve` instance",
    )
    parser.add_argument(
        "--url",
        default="http://127.0.0.1:8765",
        help="server base URL",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    submit = sub.add_parser("submit", help="submit a job document")
    group = submit.add_mutually_exclusive_group(required=True)
    group.add_argument("--job", help="inline JSON job document")
    group.add_argument(
        "--job-file", help="path to a JSON job document ('-' = stdin)"
    )
    submit.add_argument(
        "--wait",
        action="store_true",
        help="block until the job finishes and print its result",
    )
    submit.add_argument(
        "--timeout-s", type=float, default=120.0, help="--wait deadline"
    )
    submit.add_argument("--out", help="write the response JSON here")

    for name, help_text in (
        ("status", "job status"),
        ("result", "job result document"),
        ("report", "job run report (markdown inside JSON)"),
        ("events", "stream the job's events until it finishes"),
        ("cancel", "request cooperative cancellation of a running job"),
    ):
        command = sub.add_parser(name, help=help_text)
        command.add_argument("job_id")
        if name != "events":
            command.add_argument("--out", help="write the response here")

    sub.add_parser("stats", help="service counters and cache stats")
    sub.add_parser(
        "metrics",
        help="Prometheus exposition text from GET /v1/metrics",
    )
    sub.add_parser("healthz", help="liveness check")
    return parser


def client_main(argv=None) -> int:
    from repro.serve.client import ServeClient, ServeClientError

    args = build_client_parser().parse_args(argv)
    client = ServeClient(args.url)
    try:
        if args.command == "submit":
            response = client.submit(_load_job(args))
            if args.wait:
                job_id = response["job_id"]
                final = client.wait(job_id, timeout_s=args.timeout_s)
                if final["status"] == "failed":
                    _emit(final, args.out)
                    return 2
                response = client.result(job_id)
            _emit(response, args.out)
        elif args.command == "status":
            _emit(client.status(args.job_id), args.out)
        elif args.command == "result":
            _emit(client.result(args.job_id), args.out)
        elif args.command == "report":
            _emit(client.report(args.job_id), args.out)
        elif args.command == "events":
            for event in client.events(args.job_id):
                print(json.dumps(event), flush=True)
        elif args.command == "cancel":
            _emit(client.cancel(args.job_id), args.out)
        elif args.command == "stats":
            _emit(client.stats(), None)
        elif args.command == "metrics":
            sys.stdout.write(client.metrics_text())
        elif args.command == "healthz":
            _emit(client.healthz(), None)
    except ServeClientError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except (ConnectionError, OSError) as error:
        print(f"error: cannot reach {args.url}: {error}", file=sys.stderr)
        return 2
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        client.close()
    return 0


def main(argv=None) -> int:
    """`python -m repro.serve` entry: `serve` or any client command."""
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if argv and argv[0] == "serve":
            parser = argparse.ArgumentParser(
                prog="python -m repro.serve serve"
            )
            add_serve_arguments(parser)
            return run_serve(parser.parse_args(argv[1:]))
        return client_main(argv)
    except KeyboardInterrupt:
        print("repro: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
