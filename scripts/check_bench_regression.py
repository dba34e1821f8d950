#!/usr/bin/env python3
"""CI gate: the production engine must not lose to running every rule.

Reads the BENCH JSON written by ``benchmarks/bench_candidate_index.py``
and fails (exit 1) when any recorded speedup falls below the floor — a
production engine slower than ``reference_run`` over every rule means
rule selection has regressed into pure overhead and the change should
not merge.

Usage::

    python scripts/check_bench_regression.py \
        [benchmarks/output/candidate_index.json] [--min-speedup 1.0] \
        [--server-artifact benchmarks/output/server.json]

The default floor of 1.0 only demands "no slower"; the benchmark's own
assertions already require a strict win at full scale, so this gate is
the belt to that suspender on noisy CI runners.

With ``--server-artifact`` the gate additionally reads the server BENCH
JSON (``benchmarks/bench_server.py``) and fails when the warm-analyze
*p95* does not beat the cold CLI median — the observability layer (PR 8
histograms, rolling windows, request accounting) must not erode the
daemon's tail-latency win, not just its median.

With ``--fleet-artifact`` the gate also reads the fleet BENCH JSON
(``benchmarks/bench_fleet.py``) and fails when ``cross_worker_hit`` is
not 1 (the shared cache tier must turn one worker's scan into its
sibling's warm hit) or when ``scaling_ratio`` falls below
``--min-fleet-scaling`` (default 0.5 — a lenient floor because the CI
container is 1-CPU; it proves the router adds no throughput collapse,
while real multi-core scaling is documented in docs/fleet.md).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_ARTIFACT = (
    Path(__file__).resolve().parent.parent
    / "benchmarks"
    / "output"
    / "candidate_index.json"
)

GATED_SPEEDUPS = ("single_file_speedup", "project_scan_speedup")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "artifact",
        nargs="?",
        type=Path,
        default=DEFAULT_ARTIFACT,
        help=f"BENCH JSON to gate on (default: {DEFAULT_ARTIFACT})",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=1.0,
        help="fail when any gated speedup is below this ratio (default 1.0)",
    )
    parser.add_argument(
        "--server-artifact",
        type=Path,
        default=None,
        metavar="JSON",
        help="also gate the server BENCH JSON: warm-analyze p95 must beat "
        "the cold CLI median",
    )
    parser.add_argument(
        "--fleet-artifact",
        type=Path,
        default=None,
        metavar="JSON",
        help="also gate the fleet BENCH JSON: cross_worker_hit must be 1 "
        "and scaling_ratio must clear --min-fleet-scaling",
    )
    parser.add_argument(
        "--min-fleet-scaling",
        type=float,
        default=0.5,
        help="fail when the 2-worker/1-worker throughput ratio is below "
        "this floor (default 0.5; lenient because CI is 1-CPU)",
    )
    args = parser.parse_args(argv[1:])

    if not args.artifact.exists():
        print(f"bench regression gate: artifact not found: {args.artifact}")
        print("run: PYTHONPATH=src python -m pytest -q benchmarks/bench_candidate_index.py")
        return 1
    try:
        results = json.loads(args.artifact.read_text())
    except (OSError, json.JSONDecodeError) as error:
        print(f"bench regression gate: unreadable artifact {args.artifact}: {error}")
        return 1

    problems = []
    for key in GATED_SPEEDUPS:
        value = results.get(key)
        if not isinstance(value, (int, float)):
            problems.append(f"{key}: missing from artifact")
        elif value < args.min_speedup:
            problems.append(
                f"{key}: x{value:.3f} is below the x{args.min_speedup:.2f} floor "
                "— production dispatch lost to running every rule"
            )

    server_note = ""
    if args.server_artifact is not None:
        if not args.server_artifact.exists():
            problems.append(f"server artifact not found: {args.server_artifact}")
        else:
            try:
                server = json.loads(args.server_artifact.read_text())
            except (OSError, json.JSONDecodeError) as error:
                server = None
                problems.append(
                    f"unreadable server artifact {args.server_artifact}: {error}"
                )
            if server is not None:
                p95 = server.get("warm_analyze_p95_s")
                cold = server.get("cold_cli_s")
                if not isinstance(p95, (int, float)) or not isinstance(
                    cold, (int, float)
                ):
                    problems.append(
                        "warm_analyze_p95_s/cold_cli_s: missing from server "
                        "artifact (re-run benchmarks/bench_server.py)"
                    )
                elif p95 >= cold:
                    problems.append(
                        f"warm_analyze_p95_s: {p95 * 1000:.2f}ms does not beat "
                        f"the cold CLI median of {cold * 1000:.2f}ms — request "
                        "accounting has eroded the daemon's tail-latency win"
                    )
                else:
                    server_note = (
                        f", warm p95 {p95 * 1000:.2f}ms < cold {cold * 1000:.1f}ms"
                    )

    fleet_note = ""
    if args.fleet_artifact is not None:
        if not args.fleet_artifact.exists():
            problems.append(f"fleet artifact not found: {args.fleet_artifact}")
        else:
            try:
                fleet = json.loads(args.fleet_artifact.read_text())
            except (OSError, json.JSONDecodeError) as error:
                fleet = None
                problems.append(
                    f"unreadable fleet artifact {args.fleet_artifact}: {error}"
                )
            if fleet is not None:
                hit = fleet.get("cross_worker_hit")
                scaling = fleet.get("scaling_ratio")
                if not isinstance(hit, (int, float)) or not isinstance(
                    scaling, (int, float)
                ):
                    problems.append(
                        "cross_worker_hit/scaling_ratio: missing from fleet "
                        "artifact (re-run benchmarks/bench_fleet.py)"
                    )
                else:
                    if hit != 1:
                        problems.append(
                            "cross_worker_hit: a worker did not serve its "
                            "sibling's scan from the shared cache tier — "
                            "re-hash after a worker death would re-scan"
                        )
                    if scaling < args.min_fleet_scaling:
                        problems.append(
                            f"scaling_ratio: x{scaling:.3f} is below the "
                            f"x{args.min_fleet_scaling:.2f} floor — adding a "
                            "worker collapsed fleet throughput"
                        )
                    if hit == 1 and scaling >= args.min_fleet_scaling:
                        fleet_note = (
                            f", fleet scaling x{scaling:.2f} with the "
                            "cross-worker warm hit served"
                        )

    if problems:
        print(f"bench regression gate FAILED ({args.artifact}):")
        for problem in problems:
            print(f"  {problem}")
        return 1
    gated = ", ".join(f"{key}=x{results[key]:.2f}" for key in GATED_SPEEDUPS)
    print(
        f"bench regression gate ok: {gated} "
        f"(floor x{args.min_speedup:.2f}){server_note}{fleet_note}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
