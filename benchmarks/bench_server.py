"""E12 — the scan server's reason to exist: warm requests vs cold CLI.

Every ``patchitpy`` CLI invocation pays interpreter start, catalog
import/compilation and cache open before the first byte of analysis;
the daemon pays them once at startup.  This benchmark quantifies the
difference on the same snippet:

- **cold CLI** — ``python -m repro.cli <file>`` as a subprocess, median
  of several runs (the per-invocation cost an IDE shell-out pays);
- **warm server** — ``POST /v1/analyze`` against a running
  :class:`~repro.server.PatchitPyServer` over a keep-alive connection,
  median of many requests after one discarded warmup call;
- **warm batch** — ``POST /v1/batch`` throughput for the same snippet,
  amortizing HTTP framing across items.

The acceptance gate of the server PR is pinned here: the warm request
must beat the cold CLI.  Artifacts: ``server.txt`` (human table) and a
BENCH JSON (``server.json``).

``run_server_benchmark`` is importable without pytest so the tier-1
suite can run it in smoke mode (tests/test_server.py exercises the
endpoints themselves; this file owns the latency claim).
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict

import repro
from repro import BackgroundServer, PatchitPyServer, ServerClient, ServerConfig

OUTPUT_DIR = Path(__file__).resolve().parent / "output"

SNIPPET = """\
import hashlib
import pickle
import subprocess


def load_session(blob):
    return pickle.loads(blob)


def fingerprint(secret_value):
    return hashlib.md5(secret_value).hexdigest()


def run(cmd):
    return subprocess.call(cmd, shell=True)
"""


def _cold_cli_seconds(target: Path, runs: int) -> float:
    """Median wall time of a full CLI invocation on ``target``."""
    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    samples = []
    for _ in range(runs):
        t0 = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "scan", str(target)],
            capture_output=True,
            text=True,
            env=env,
        )
        samples.append(time.perf_counter() - t0)
        assert result.returncode == 1, result.stderr  # findings reported
    return statistics.median(samples)


def run_server_benchmark(
    work_dir: Path, cli_runs: int = 5, warm_requests: int = 50, batch_size: int = 32
) -> Dict[str, float]:
    """Time cold-CLI vs warm-server analysis of the same snippet."""
    target = work_dir / "generated_snippet.py"
    target.write_text(SNIPPET)

    cold_cli_s = _cold_cli_seconds(target, cli_runs)

    server = PatchitPyServer(config=ServerConfig(port=0))
    with BackgroundServer(server) as handle:
        with ServerClient(port=handle.port) as client:
            first = client.analyze(SNIPPET)  # connection + first-request warmup
            assert first["vulnerable"] is True
            samples = []
            for _ in range(warm_requests):
                t0 = time.perf_counter()
                payload = client.analyze(SNIPPET)
                samples.append(time.perf_counter() - t0)
                assert payload["vulnerable"] is True
            warm_request_s = statistics.median(samples)
            # Tail percentiles, client-observed: what an IDE plugin's
            # worst keystroke actually waits.  n=100 quantile cut points
            # give exact p50/p95/p99 ranks for any sample size.
            cuts = statistics.quantiles(samples, n=100, method="inclusive")
            warm_p50_s, warm_p95_s, warm_p99_s = cuts[49], cuts[94], cuts[98]

            t0 = time.perf_counter()
            batch = client.batch([SNIPPET] * batch_size)
            batch_wall_s = time.perf_counter() - t0
            assert batch["failed"] == 0 and batch["count"] == batch_size

            health = client.healthz()

    return {
        "cli_runs": cli_runs,
        "warm_requests": warm_requests,
        "batch_size": batch_size,
        "cold_cli_s": cold_cli_s,
        "warm_request_s": warm_request_s,
        "warm_analyze_p50_s": warm_p50_s,
        "warm_analyze_p95_s": warm_p95_s,
        "warm_analyze_p99_s": warm_p99_s,
        "warm_batch_wall_s": batch_wall_s,
        "warm_batch_per_item_s": batch_wall_s / batch_size,
        "warm_speedup": cold_cli_s / warm_request_s,
        "server_requests_total": health["requests_total"],
        "rules": health["rules"],
    }


def format_report(results: Dict[str, float]) -> str:
    return (
        f"Scan server benchmark ({results['rules']:.0f} rules):\n"
        f"  cold CLI invocation : {results['cold_cli_s'] * 1000:.1f}ms "
        f"(median of {results['cli_runs']:.0f})\n"
        f"  warm POST /v1/analyze: {results['warm_request_s'] * 1000:.2f}ms "
        f"(median of {results['warm_requests']:.0f}, "
        f"x{results['warm_speedup']:.0f} vs cold CLI)\n"
        f"  warm analyze tails  : p50 {results['warm_analyze_p50_s'] * 1000:.2f}ms / "
        f"p95 {results['warm_analyze_p95_s'] * 1000:.2f}ms / "
        f"p99 {results['warm_analyze_p99_s'] * 1000:.2f}ms\n"
        f"  warm POST /v1/batch : {results['warm_batch_per_item_s'] * 1000:.2f}"
        f"ms/item ({results['batch_size']:.0f} items in "
        f"{results['warm_batch_wall_s'] * 1000:.1f}ms)"
    )


def test_server_benchmark(tmp_path):
    """Full benchmark: records warm-vs-cold numbers as an artifact."""
    results = run_server_benchmark(tmp_path)
    text = format_report(results)
    OUTPUT_DIR.mkdir(exist_ok=True)
    path = OUTPUT_DIR / "server.txt"
    path.write_text(text + "\n")
    json_path = OUTPUT_DIR / "server.json"
    json_path.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"\n[artifacts written: {path}, {json_path}]")
    print(text)
    # the acceptance gate: a warm server request beats a cold CLI run —
    # and not just at the median: the p95 tail must beat it too, which
    # is what scripts/check_bench_regression.py --server-artifact pins.
    assert results["warm_request_s"] < results["cold_cli_s"]
    assert results["warm_speedup"] > 1.0
    assert results["warm_analyze_p95_s"] < results["cold_cli_s"]
