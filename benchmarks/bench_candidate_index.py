"""E12 — candidate-index performance: rule selection vs running every rule.

Measures the production engine (``PatchitPy()``: candidate-index
selection) against the naive tier, ``reference_run`` over every
rule with no selection at all (served through a bench-local engine
subclass so the project scanner can drive it), in the two regimes that
matter:

- **single-file** — repeated ``detect()`` calls over in-memory sources,
  the ``/v1/analyze`` daemon hot path;
- **project-scan** — ``ProjectScanner.scan`` over a synthetic repository
  (cold, serial, uncached), the CLI/batch path.

Each regime takes the best of several repeats, asserts the two engines
produce byte-identical findings, and records the speedup.  Artifacts:
a human-readable table (``candidate_index.txt``) and a BENCH JSON
(``candidate_index.json``) embedding the index shape (literal counts,
always-run bucket size) and the per-scan candidate/skip counters; CI
uploads the JSON and ``scripts/check_bench_regression.py`` gates on its
speedups.

``run_candidate_index_benchmark`` is importable without pytest so the
tier-1 suite can run it in smoke mode (tests/test_bench_candidate_index.py)
while the full run records the headline numbers.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List

from repro import PatchitPy, ProjectScanner, ScanMetrics
from repro.core import reference_run

OUTPUT_DIR = Path(__file__).resolve().parent / "output"

_VULNERABLE_BODY = '''\
import hashlib
import pickle
import subprocess


def load_session(blob):
    return pickle.loads(blob)


def fingerprint(secret_value):
    return hashlib.md5(secret_value).hexdigest()


def run(cmd):
    return subprocess.call(cmd, shell=True)


def helper_{index}_{line}(value):
    return value * {line}
'''

_CLEAN_BODY = '''\
def add_{index}_{line}(a, b):
    """Pure helper; nothing to report."""
    return a + b


def mul_{index}_{line}(a, b):
    return a * b
'''


def _sources(files: int, sections: int) -> List[str]:
    """``files`` unique module texts, realistically clean-heavy.

    Every 8th file carries one vulnerable section; the rest is clean
    filler.  Real trees look like this — most files match no rule — and
    it is exactly the regime rule *selection* governs: on a matching
    file the regex/guard/dedupe work is identical with or without the
    index, so a finding-dense corpus would measure that shared work, not
    the selection being benchmarked.
    """
    sources = []
    for index in range(files):
        parts = [
            _CLEAN_BODY.format(index=index, line=section)
            for section in range(sections)
        ]
        if index % 8 == 0:
            parts[0] = _VULNERABLE_BODY.format(index=index, line=0)
        sources.append("".join(parts) + f"\n# uid {index}\n")
    return sources


def build_corpus(root: Path, files: int, sections: int = 12) -> None:
    """Write the synthetic repository ``_sources`` describes."""
    root.mkdir(parents=True, exist_ok=True)
    for index, text in enumerate(_sources(files, sections)):
        (root / f"module_{index:04d}.py").write_text(text)


class NaiveEngine(PatchitPy):
    """The naive tier: every rule through ``reference_run``, no selection."""

    def detect(self, source, metrics=None, trace=None):
        return reference_run(self.rules, source)


def _best_of(repeats: int, action) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        action()
        best = min(best, time.perf_counter() - t0)
    return best


def run_candidate_index_benchmark(
    corpus_root: Path, files: int = 120, sections: int = 10, repeats: int = 3
) -> Dict[str, float]:
    """Time indexed vs naive engines in both regimes; assert equivalence."""
    indexed = PatchitPy()
    naive = NaiveEngine()
    indexed.warmup()  # build the index outside the timed region, like the daemon
    naive.warmup()

    sources = _sources(files, sections)

    # Equivalence first: the speedup below is only meaningful if the two
    # engines agree byte for byte on every file.
    for source in sources:
        assert [f.to_dict() for f in indexed.detect(source)] == [
            f.to_dict() for f in naive.detect(source)
        ]

    single_indexed = _best_of(
        repeats, lambda: [indexed.detect(source) for source in sources]
    )
    single_naive = _best_of(
        repeats, lambda: [naive.detect(source) for source in sources]
    )

    corpus = corpus_root / "corpus"
    build_corpus(corpus, files=files, sections=sections)
    indexed_scanner = ProjectScanner(engine=indexed)
    naive_scanner = ProjectScanner(engine=naive)

    indexed_scan = indexed_scanner.scan(corpus, jobs=1)
    naive_scan = naive_scanner.scan(corpus, jobs=1)
    assert [
        [fi.to_dict() for fi in f.findings] for f in indexed_scan.files
    ] == [[fi.to_dict() for fi in f.findings] for f in naive_scan.files]

    scan_indexed = _best_of(repeats, lambda: indexed_scanner.scan(corpus, jobs=1))
    scan_naive = _best_of(repeats, lambda: naive_scanner.scan(corpus, jobs=1))

    # One instrumented pass records how hard the index actually prunes.
    collector = ScanMetrics()
    instrumented = PatchitPy(metrics=collector)
    for source in sources:
        instrumented.detect(source)
    candidates = collector.counters["index_candidates"]
    skips = collector.counters["index_skips"]

    index_shape = indexed.rules.candidate_index().describe()
    return {
        "files": files,
        "findings": indexed_scan.total_findings,
        "single_file_indexed_s": single_indexed,
        "single_file_naive_s": single_naive,
        "single_file_speedup": single_naive / single_indexed,
        "project_scan_indexed_s": scan_indexed,
        "project_scan_naive_s": scan_naive,
        "project_scan_speedup": scan_naive / scan_indexed,
        "index_candidates": candidates,
        "index_skips": skips,
        "candidate_fraction": candidates / (candidates + skips),
        "index_rules": index_shape["rules"],
        "index_always_run": index_shape["always_run"],
        "index_exact_literals": index_shape["exact_literals"],
        "index_folded_literals": index_shape["folded_literals"],
    }


def format_report(results: Dict[str, float]) -> str:
    return (
        f"Candidate index benchmark ({results['files']:.0f} files, "
        f"{results['findings']:.0f} findings):\n"
        f"  single-file indexed : {results['single_file_indexed_s']:.3f}s\n"
        f"  single-file naive   : {results['single_file_naive_s']:.3f}s "
        f"(indexed x{results['single_file_speedup']:.2f} faster)\n"
        f"  project scan indexed: {results['project_scan_indexed_s']:.3f}s\n"
        f"  project scan naive  : {results['project_scan_naive_s']:.3f}s "
        f"(indexed x{results['project_scan_speedup']:.2f} faster)\n"
        f"  candidate fraction  : {results['candidate_fraction']:.1%} "
        f"({results['index_candidates']:.0f} run / "
        f"{results['index_skips']:.0f} skipped)\n"
        f"  index shape         : {results['index_rules']:.0f} rules, "
        f"{results['index_always_run']:.0f} always-run, "
        f"{results['index_exact_literals']:.0f} exact + "
        f"{results['index_folded_literals']:.0f} folded literals"
    )


def test_candidate_index_benchmark(tmp_path):
    """Full benchmark: records indexed-vs-naive numbers as an artifact."""
    results = run_candidate_index_benchmark(tmp_path, files=120, sections=10)
    text = format_report(results)
    OUTPUT_DIR.mkdir(exist_ok=True)
    path = OUTPUT_DIR / "candidate_index.txt"
    path.write_text(text + "\n")
    json_path = OUTPUT_DIR / "candidate_index.json"
    json_path.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"\n[artifacts written: {path}, {json_path}]")
    print(text)
    # the acceptance claim: the indexed engine wins the project-scan regime
    assert results["project_scan_speedup"] > 1.0
    assert results["single_file_speedup"] > 1.0
    # and it must actually prune: most rule executions skipped up front
    assert results["candidate_fraction"] < 0.7
