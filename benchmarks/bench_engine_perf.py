"""E10 — engine performance: throughput scaling with rule count and
corpus size (the 'lightweight' claim of §II-B), plus the warm
single-file latency benchmark for production dispatch.

``run_engine_perf_benchmark`` times the production dispatch
(``PatchitPy().detect``: candidate-index selection, then the per-rule
body) against the naive tier rebuilt from the public API
(``reference_run`` over every rule, no selection at all) on the
clean-heavy corpus from :mod:`bench_candidate_index`, records warm
per-``detect`` latency quantiles through
:class:`~repro.observability.LatencyHistogram`, asserts both tiers
produce byte-identical findings, and writes
``benchmarks/output/engine_perf.{txt,json}`` for CI to upload.  Like
the candidate-index benchmark it is importable without pytest so the
tier-1 suite runs it in smoke mode (tests/test_bench_candidate_index.py).
"""

from __future__ import annotations

import importlib.util
import json
import time
from pathlib import Path
from typing import Dict

from repro.core import PatchitPy, reference_run
from repro.core.rules import RuleSet, default_ruleset, extended_ruleset
from repro.observability import LatencyHistogram

OUTPUT_DIR = Path(__file__).resolve().parent / "output"


def _subset(rules, count):
    return RuleSet(list(rules)[:count])


def _candidate_bench():
    """The sibling candidate-index benchmark module (corpus generator).

    Loaded by path so this works both under pytest (benchmarks/ rootdir)
    and when the tier-1 suite imports this module from tests/.
    """
    path = Path(__file__).resolve().parent / "bench_candidate_index.py"
    spec = importlib.util.spec_from_file_location("bench_candidate_index", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_engine_perf_benchmark(
    files: int = 120, sections: int = 10, repeats: int = 3
) -> Dict[str, float]:
    """Warm single-file latency of production dispatch against naive.

    Returns a BENCH dict with best-of totals, per-``detect`` latency
    quantiles (p50/p95/p99 seconds) for both tiers and the
    ``production_vs_naive_speedup`` headline.  Asserts the two tiers'
    findings are byte-identical over the whole corpus first — the
    speedup is only meaningful if the tiers agree.
    """
    sources = _candidate_bench()._sources(files, sections)

    engine = PatchitPy()
    engine.warmup()
    rules = engine.rules
    production = engine.detect

    def naive(source):
        return reference_run(rules, source)

    findings = 0
    for source in sources:
        from_production = [f.to_dict() for f in production(source)]
        assert from_production == [f.to_dict() for f in naive(source)]
        findings += len(from_production)

    def _timed_pass(detect, histogram):
        clock = time.perf_counter
        t0 = clock()
        for source in sources:
            started = clock()
            detect(source)
            histogram.observe(clock() - started)
        return clock() - t0

    def _best_of(detect, histogram):
        return min(_timed_pass(detect, histogram) for _ in range(repeats))

    # The equivalence sweep above already warmed both tiers (candidate
    # index, regex caches); these passes are all-warm.
    production_hist = LatencyHistogram()
    naive_hist = LatencyHistogram()
    production_total = _best_of(production, production_hist)
    naive_total = _best_of(naive, naive_hist)

    production_p = production_hist.quantiles((0.5, 0.95, 0.99))
    naive_p = naive_hist.quantiles((0.5, 0.95, 0.99))
    return {
        "files": files,
        "findings": findings,
        "production_total_s": production_total,
        "naive_total_s": naive_total,
        "production_vs_naive_speedup": naive_total / production_total,
        "production_p50_s": production_p[0],
        "production_p95_s": production_p[1],
        "production_p99_s": production_p[2],
        "naive_p50_s": naive_p[0],
        "naive_p95_s": naive_p[1],
        "naive_p99_s": naive_p[2],
    }


def format_engine_perf_report(results: Dict[str, float]) -> str:
    return (
        f"Engine warm single-file latency ({results['files']:.0f} files, "
        f"{results['findings']:.0f} findings, best-of totals):\n"
        f"  production : {results['production_total_s'] * 1000:7.1f}ms  "
        f"p50 {results['production_p50_s'] * 1e6:6.0f}us  "
        f"p95 {results['production_p95_s'] * 1e6:6.0f}us\n"
        f"  naive      : {results['naive_total_s'] * 1000:7.1f}ms  "
        f"p50 {results['naive_p50_s'] * 1e6:6.0f}us  "
        f"p95 {results['naive_p95_s'] * 1e6:6.0f}us\n"
        f"  production vs naive: x{results['production_vs_naive_speedup']:.2f}"
    )


def test_engine_perf_benchmark():
    """Full benchmark: records the two-tier numbers as an artifact.

    The acceptance claim of rule selection: the warm production path
    beats the naive no-selection loop by at least x1.5 on the
    clean-heavy corpus.
    """
    results = run_engine_perf_benchmark(files=120, sections=10)
    text = format_engine_perf_report(results)
    OUTPUT_DIR.mkdir(exist_ok=True)
    path = OUTPUT_DIR / "engine_perf.txt"
    path.write_text(text + "\n")
    json_path = OUTPUT_DIR / "engine_perf.json"
    json_path.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"\n[artifacts written: {path}, {json_path}]")
    print(text)
    assert results["production_vs_naive_speedup"] >= 1.5


def test_detection_throughput_85_rules(flat_samples, benchmark):
    engine = PatchitPy()
    subset = flat_samples[:100]

    def run():
        return sum(1 for s in subset if engine.is_vulnerable(s.source))

    benchmark(run)


def test_detection_throughput_20_rules(flat_samples, benchmark):
    engine = PatchitPy(rules=_subset(default_ruleset(), 20))
    subset = flat_samples[:100]
    benchmark(lambda: sum(1 for s in subset if engine.is_vulnerable(s.source)))


def test_detection_throughput_extended_rules(flat_samples, benchmark):
    engine = PatchitPy(rules=extended_ruleset())
    subset = flat_samples[:100]
    benchmark(lambda: sum(1 for s in subset if engine.is_vulnerable(s.source)))


def test_patch_throughput(flat_samples, benchmark):
    engine = PatchitPy()
    vulnerable = [s for s in flat_samples if s.is_vulnerable][:50]
    benchmark(lambda: [engine.patch(s.source).patched for s in vulnerable])


def test_scaling_artifact(flat_samples, artifact_dir, benchmark):
    from conftest import write_artifact

    def measure():
        rows = []
        for label, rules in (
            ("20 rules", _subset(default_ruleset(), 20)),
            ("85 rules (default)", default_ruleset()),
            ("109 rules (extended)", extended_ruleset()),
        ):
            engine = PatchitPy(rules=rules)
            started = time.perf_counter()
            for sample in flat_samples:
                engine.is_vulnerable(sample.source)
            elapsed = time.perf_counter() - started
            rows.append((label, len(flat_samples) / elapsed))
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    lines = ["Engine throughput (samples/second, single thread):"]
    for label, rate in rows:
        lines.append(f"  {label:22s} {rate:8.0f} samples/s")
    write_artifact(artifact_dir, "engine_throughput.txt", "\n".join(lines))


def test_lsp_interactive_latency(benchmark):
    """Latency of one didChange→diagnostics cycle (the IDE loop)."""
    from repro.ide.protocol import LanguageServer

    server = LanguageServer()
    uri = "file:///bench.py"
    source = (
        "import pickle\nfrom flask import Flask, request\n\napp = Flask(__name__)\n\n"
        '@app.route("/x", methods=["POST"])\ndef x():\n'
        "    state = pickle.loads(request.data)\n"
        '    return f"<p>{state}</p>"\n'
    )
    server.did_open(uri, source)
    benchmark(lambda: server.did_change(uri, source))


def test_extension_selection_latency(benchmark):
    """Latency of one selection assessment in the VS Code-style flow."""
    from repro.ide import PatchitPyExtension, TextDocument

    source = "import hashlib\n\n" + "\n".join(
        f"def f{i}(x):\n    return hashlib.sha256(x)" for i in range(40)
    ) + "\nweak = hashlib.md5(data)\n"

    def run():
        document = TextDocument(source)
        return PatchitPyExtension().assess_selection(document)

    session = benchmark(run)
    assert session.findings


def test_prefilter_ablation(flat_samples, artifact_dir, benchmark):
    """Rule selection on/off: production ``run_rules`` vs ``reference_run``.

    Production selects through the candidate index (the multi-literal
    prefilter); the reference runs every rule.  Each side gets its own
    fresh engine, and one untimed sweep warms it before the timed one.
    """
    from conftest import write_artifact

    from repro.core import reference_run, run_rules

    def sweep(run):
        rules = PatchitPy().rules
        for sample in flat_samples:
            run(rules, sample.source)
        t0 = time.perf_counter()
        for sample in flat_samples:
            run(rules, sample.source)
        return time.perf_counter() - t0

    def measure():
        return sweep(run_rules), sweep(reference_run)

    production, reference = benchmark.pedantic(measure, rounds=1, iterations=1)
    text = (
        "Rule-selection ablation (609-sample detection sweep):\n"
        f"  run_rules (candidate index) : {production:.3f}s\n"
        f"  reference_run (every rule)  : {reference:.3f}s\n"
        f"  speedup                     : x{reference / production:.2f}"
    )
    write_artifact(artifact_dir, "prefilter_ablation.txt", text)
    assert production < reference
