"""``patchitpy serve`` — run the scan daemon in the foreground.

This module owns the serve-mode argument parser and hands a
:class:`~repro.server.app.PatchitPyServer` to the foreground runner
(:func:`~repro.server.pipeline.run_foreground`: signal handling, event
loop lifetime) that ``patchitpy fleet`` uses too.  The CLI dispatches
here when the first argument is ``serve``; everything else about the
daemon lives in :mod:`repro.server.app`.

Exit codes mirror the main CLI contract: ``0`` for a clean (signalled)
shutdown, ``2`` when the server cannot start (bad arguments, bind
failure).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.server.app import PatchitPyServer, ServerConfig
from repro.server.pipeline import add_pipeline_flags, pipeline_settings, run_foreground

__all__ = ["build_serve_parser", "main"]


def build_serve_parser() -> argparse.ArgumentParser:
    """Construct the ``patchitpy serve`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="patchitpy serve",
        description=(
            "Run the persistent scan server: one warm engine, an open "
            "result cache per scan root, and a reusable worker pool "
            "behind POST /v1/analyze, /v1/batch, /v1/scan, /v1/review "
            "plus GET /healthz, /metrics, and the /statusz dashboard."
        ),
        epilog=(
            "exit codes: 0 = clean shutdown (SIGTERM/SIGINT drain), "
            "2 = server could not start"
        ),
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="TCP bind address (default 127.0.0.1; ignored with --unix-socket)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8753,
        metavar="N",
        help="TCP port to listen on (default 8753; 0 picks a free port)",
    )
    parser.add_argument(
        "--unix-socket",
        metavar="PATH",
        help="listen on a unix domain socket at PATH instead of TCP",
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        metavar="N",
        help="analysis pool size: 1 = analyze on the event loop under a "
        "one-switch-interval budget, with a single worker thread for what "
        "overruns it; N>1 = a process pool of N warm engines (default 1)",
    )
    parser.add_argument(
        "--queue-depth",
        type=int,
        default=64,
        metavar="N",
        help="max queued-plus-running analysis units before requests are "
        "refused with 429 (default 64)",
    )
    parser.add_argument(
        "--deadline-ms",
        type=float,
        default=30_000.0,
        metavar="MS",
        help="default per-request deadline; expiry answers 504 "
        "(default 30000; 0 disables, requests may override)",
    )
    parser.add_argument(
        "--shared-cache",
        metavar="DIR",
        help="open the cross-process shared snippet cache at DIR: analyze "
        "and batch results are keyed by content digest and written "
        "through, so fleet siblings serve each other's warm hits "
        "(see docs/fleet.md)",
    )
    parser.add_argument(
        "--port-file",
        metavar="PATH",
        help="after binding, write the actual listening port to PATH — how "
        "a supervisor (patchitpy fleet) learns the port when --port 0 "
        "picked a free one",
    )
    parser.add_argument(
        "--extended",
        action="store_true",
        help="serve the extended rule catalog instead of the paper's 85 rules",
    )
    parser.add_argument(
        "--access-log",
        action="store_true",
        help="emit one structured JSON log line per request (trace id, "
        "method, path, status, bytes, durations by phase) to stderr",
    )
    add_pipeline_flags(parser)
    return parser


def config_from_args(args: argparse.Namespace) -> ServerConfig:
    """Map parsed serve-mode arguments onto a :class:`ServerConfig`."""
    return ServerConfig(
        host=args.host,
        port=args.port,
        unix_socket=args.unix_socket,
        jobs=max(1, args.jobs),
        queue_depth=max(1, args.queue_depth),
        default_deadline_ms=max(0.0, args.deadline_ms),
        shared_cache_dir=args.shared_cache,
        **pipeline_settings(args),
    )


def main(argv: Optional[List[str]] = None) -> int:
    """``patchitpy serve`` entry point; returns the process exit code."""
    parser = build_serve_parser()
    args = parser.parse_args(argv)
    from repro import PatchitPy, extended_ruleset

    engine = PatchitPy(rules=extended_ruleset() if args.extended else None)
    server = PatchitPyServer(engine=engine, config=config_from_args(args))
    cfg = server.config

    def banner() -> str:
        where = cfg.unix_socket if cfg.unix_socket else f"http://{cfg.host}:{server.port}"
        return (
            f"patchitpy server listening on {where} "
            f"({len(server.engine.rules)} rules, pool={server._pool_kind}, "
            f"jobs={max(1, cfg.jobs)}, queue_depth={cfg.queue_depth})"
        )

    return run_foreground(server, "server", banner, port_file=args.port_file)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
