"""PatchitPy's benchmark: one command for the paths users hit.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ide_snippets --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end figures; ``--trace 1`` measures
every layer on the same workload's inputs.  The last line of standard
output is one JSON object; the lines above it are for people.  See
``perfbench/METRICS.md`` for the workloads, the metrics and why.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

from common import SRC, TRACE_DIR, WORK_ROOT

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "success_share": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.import_s": "s",
    "rules.catalog_s": "s",
    "candidates.index_build_s": "s",
    "engine.warmup_s": "s",
    "candidates.lookup_us": "us",
    "candidates.candidate_ratio": "ratio",
    "candidates.plan_memo_hit_ratio": "ratio",
    "groupcompile.probe_us": "us",
    "groupcompile.clear_ratio": "ratio",
    "groupcompile.compile_misses": "count",
    "rules.match_us": "us",
    "rules.dispatched_per_detect": "count",
    "rules.useful_ratio": "ratio",
    "engine.detect_us": "us",
    "engine.detects_per_op": "count",
    "engine.render_us": "us",
    "patcher.apply_us": "us",
    "imports.prune_us": "us",
    "verify.verify_us": "us",
    "verify.ok_ratio": "ratio",
    "types.to_dict_us": "us",
    "serialize.json_us": "us",
    "serialize.bytes_per_op": "bytes",
    "app.handler_ms": "ms",
    "app.queue_wait_ms": "ms",
    "app.detect_ms": "ms",
    "app.patch_ms": "ms",
    "app.verify_ms": "ms",
    "http11.outside_handler_ms": "ms",
    "router.route_us": "us",
    "fleet.hop_ms": "ms",
    "cache.hit_ratio": "ratio",
    "cache.lookup_us": "us",
    "cache.store_bytes": "bytes",
    "cache.open_ms.n100": "ms",
    "cache.open_ms.n10000": "ms",
    "cache.open_ms.n100000": "ms",
    "cache.save_ms.n100": "ms",
    "cache.save_ms.n10000": "ms",
    "cache.save_ms.n100000": "ms",
    "project.walk_ms": "ms",
    "project.files_analyzed_per_push": "count",
    "review.diff_parse_ms": "ms",
    "review.review_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

SETUP_PHASES = ("cli.import_s", "rules.catalog_s", "candidates.index_build_s", "engine.warmup_s")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("ide_snippets", "fleet_shared", "ci_push"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def stamp(args, attempted: int, failed: int) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "attempted": attempted,
        "succeeded": attempted - failed,
        "failed": failed,
        "failed_share": failed / attempted,
    }


def measure(args) -> dict:
    """Run one workload; returns the result object printed last."""
    from layers import traced
    from workloads import WORKLOADS

    run, ops_for = WORKLOADS[args.workload]
    ops = ops_for(args.seconds)
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        if args.trace:
            trace_file = TRACE_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
            values, tally = traced(args.workload, args.seed, ops, work, trace_file)
            failures = tally.failures
            attempted = int(tally.n["attempted"])
            units = PER_LAYER
            info = stamp(args, attempted, len(failures))
            info["spans"] = str(trace_file.relative_to(TRACE_DIR.parent))
            info["setup_dominant"] = max(SETUP_PHASES, key=values.__getitem__)
        else:
            outcome = run(args.seed, ops, work)
            values = outcome.end_to_end()
            failures = outcome.failures
            attempted = outcome.attempted
            units = END_TO_END
            info = stamp(args, attempted, len(failures))
            info.update(outcome.extra)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(info, sort_keys=True))
    for failure in failures[:10]:
        print("FAILED", failure)
    width = max(map(len, units))
    for name, unit in units.items():
        print(f"  {name:<{width}}  {values[name]:.6g} {unit}")
    if args.trace:
        print(f"cold start is dominated by {info['setup_dominant']}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no PatchitPy sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
