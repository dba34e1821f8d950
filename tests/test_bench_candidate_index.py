"""Smoke-mode runs of the rule-selection benchmarks under the tier-1 suite.

The full benchmarks live in ``benchmarks/bench_candidate_index.py`` and
``benchmarks/bench_engine_perf.py`` and are sized for meaningful
timings; these tests import them directly and run a tiny corpus so
every CI run still exercises the production-vs-naive comparison end to
end (including the byte-identical-findings assertions inside each
benchmark) and publishes the candidate-index numbers as a build
artifact (``benchmarks/output/candidate_index_smoke.txt``).
"""

import importlib.util
from pathlib import Path

import pytest

_BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


def _load_bench_module(name):
    spec = importlib.util.spec_from_file_location(name, _BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.benchmark_smoke
def test_candidate_index_benchmark_smoke(tmp_path):
    bench = _load_bench_module("bench_candidate_index")
    results = bench.run_candidate_index_benchmark(
        tmp_path, files=16, sections=4, repeats=1
    )

    # correctness invariants hold even at smoke scale: the benchmark
    # itself asserts indexed and naive findings are byte-identical
    assert results["findings"] > 0
    assert results["index_rules"] == 85
    assert results["index_candidates"] + results["index_skips"] == 16 * 85
    # the index prunes hard on the clean-heavy corpus
    assert results["candidate_fraction"] < 0.7

    text = bench.format_report(results)
    bench.OUTPUT_DIR.mkdir(exist_ok=True)
    artifact = bench.OUTPUT_DIR / "candidate_index_smoke.txt"
    artifact.write_text(text + "\n")
    assert artifact.exists()
    assert "project scan indexed" in text


@pytest.mark.benchmark_smoke
def test_engine_perf_benchmark_smoke():
    """Smoke-mode run of the engine-perf benchmark (tiny corpus, no
    speedup floor — timing at this scale is noise; the full benchmark
    asserts the x1.5 production-vs-naive claim)."""
    bench = _load_bench_module("bench_engine_perf")
    results = bench.run_engine_perf_benchmark(files=12, sections=4, repeats=1)
    assert results["findings"] > 0
    assert results["production_total_s"] > 0
    assert results["production_p95_s"] >= results["production_p50_s"]
    report = bench.format_engine_perf_report(results)
    assert "production vs naive" in report
