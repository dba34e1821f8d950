"""Tests for grouped-alternation dispatch (repro.core.groupcompile).

The load-bearing property sits at the bottom: over the full bundled
corpus and the complete default catalog, detection through the grouped
tier is byte-identical to the index-only tier (``reference_run`` over
the index's candidates) and to the naive tier (``reference_run`` over
every rule), in every execution regime.  The broader production ==
``reference_run`` property, mutations included, lives in
tests/test_candidates.py.  Everything above pins the pieces the grouped
tier rests on — mergeability classification, alpha-renaming of member
group names, clear-on-miss / fallback-on-hit planning, the compilation
LRU, the per-source plan memo, and pickling of primed caches into
worker processes.
"""

import importlib.util
import pickle
import re
from pathlib import Path

import pytest

from repro.core import reference_run
from repro.core.candidates import RuleIndex
from repro.core.engine import PatchitPy
from repro.core.groupcompile import (
    GroupedCache,
    _rename_groups,
    build_grouped,
    mergeable,
)
from repro.core.rules import default_ruleset, extended_ruleset, full_catalog
from repro.core.rules.base import rule
from repro.observability import ScanMetrics, TraceRecorder


def _rules(*specs):
    """Terse rule list: one detection rule per (id, pattern[, flags])."""
    built = []
    for spec in specs:
        rule_id, pattern = spec[0], spec[1]
        flags = spec[2] if len(spec) > 2 else 0
        built.append(
            rule(rule_id, "CWE-95", f"test rule {rule_id}", pattern, flags=flags)
        )
    return built


class TestMergeable:
    def test_plain_pattern_merges(self):
        assert mergeable(re.compile(r"eval\("))

    def test_named_groups_and_named_backrefs_merge(self):
        assert mergeable(re.compile(r"(?P<q>['\"]).*(?P=q)"))

    def test_numeric_backref_rejected(self):
        assert not mergeable(re.compile(r"(['\"]).*\1"))

    def test_numeric_conditional_rejected(self):
        assert not mergeable(re.compile(r"(a)?(?(1)b|c)"))

    def test_escaped_backslash_before_digit_is_not_a_backref(self):
        # \\1 is a literal backslash then "1", not a group reference
        assert mergeable(re.compile(r"(x)\\1y"))

    def test_global_inline_flag_rejected(self):
        assert not mergeable(re.compile(r"(?i)select"))

    def test_scoped_inline_flag_merges(self):
        assert mergeable(re.compile(r"(?i:select)\s"))

    def test_synthetic_name_collisions_rejected(self):
        assert not mergeable(re.compile(r"(?P<pg0>x)"))
        assert not mergeable(re.compile(r"(?P<left_pg1>x)"))


class TestRenameGroups:
    def test_defs_refs_and_conditionals_renamed(self):
        renamed = _rename_groups(
            r"(?P<q>['\"])x(?P=q)(?(q)y|z)", ("q",), "_pg3"
        )
        assert renamed == r"(?P<q_pg3>['\"])x(?P=q_pg3)(?(q_pg3)y|z)"
        assert re.compile(renamed).search("'x'y")

    def test_unknown_reference_returns_none(self):
        assert _rename_groups(r"x(?P=ghost)", ("q",), "_pg0") is None


class TestBuildGrouped:
    def test_full_catalog_merges_completely(self):
        grouped = build_grouped(list(full_catalog()))
        shape = grouped.describe()
        assert shape["fallback"] == 0
        assert shape["grouped"] == len(list(full_catalog()))
        assert shape["buckets"] >= 1

    def test_clean_source_clears_every_bucket(self):
        grouped = build_grouped(_rules(("R1", r"eval\("), ("R2", r"pickle\.loads")))
        dispatch, cleared, hit = grouped.plan("def add(a, b):\n    return a + b\n")
        assert dispatch == []
        assert cleared == 2
        assert hit is None

    def test_bucket_hit_dispatches_members_and_attributes(self):
        grouped = build_grouped(_rules(("R1", r"eval\("), ("R2", r"pickle\.loads")))
        dispatch, cleared, hit = grouped.plan("x = eval(user_input)\n")
        assert [r.rule_id for r in dispatch] == ["R1", "R2"]
        assert cleared == 0
        assert hit == "R1"

    def test_flags_split_buckets_and_clear_independently(self):
        grouped = build_grouped(
            _rules(("CS", r"SELECT "), ("CI", r"select ", re.IGNORECASE))
        )
        assert grouped.describe()["buckets"] == 2
        dispatch, cleared, _ = grouped.plan("q = 'select * from t'\n")
        assert [r.rule_id for r in dispatch] == ["CI"]
        assert cleared == 1

    def test_unmergeable_rules_always_dispatch(self):
        rules = _rules(("BACKREF", r"(['\"]).*\1"), ("PLAIN", r"eval\("))
        grouped = build_grouped(rules)
        assert [r.rule_id for r in grouped.fallback_rules] == ["BACKREF"]
        dispatch, cleared, hit = grouped.plan("nothing to see\n")
        assert [r.rule_id for r in dispatch] == ["BACKREF"]
        assert cleared == 1 and hit is None

    def test_same_member_group_names_no_longer_collide(self):
        rules = _rules(
            ("Q1", r"a(?P<q>['\"])x(?P=q)"), ("Q2", r"b(?P<q>['\"])y(?P=q)")
        )
        grouped = build_grouped(rules)
        assert grouped.describe()["fallback"] == 0
        dispatch, _, hit = grouped.plan("b'y'\n")
        assert {r.rule_id for r in dispatch} == {"Q1", "Q2"}
        assert hit == "Q2"

    def test_probe_and_named_variant_agree(self):
        grouped = build_grouped(list(full_catalog()))
        texts = (
            "",
            "x = eval(payload)\n",
            "def f():\n    return 1\n",
            "s = pickle.loads(raw)  # nosec\n",
            "q = f\"select {x}\"\n",
        )
        for bucket in grouped.buckets:
            for text in texts:
                assert (bucket.probe.search(text) is None) == (
                    bucket.combined.search(text) is None
                )

    def test_grouped_rules_preserve_catalog_order(self):
        rules = list(full_catalog())
        grouped = build_grouped(rules)
        assert [r.rule_id for r in grouped.grouped_rules] == [
            r.rule_id for r in rules
        ]

    def test_pickle_round_trip(self):
        grouped = build_grouped(list(default_ruleset()))
        clone = pickle.loads(pickle.dumps(grouped))
        source = "data = pickle.loads(blob)\n"
        assert [r.rule_id for r in clone.dispatch(source)] == [
            r.rule_id for r in grouped.dispatch(source)
        ]
        assert clone.describe() == grouped.describe()


class TestGroupedCache:
    def test_memoizes_per_fingerprint_and_mask(self):
        rules = _rules(("R1", r"eval\("))
        cache = GroupedCache()
        first = cache.get_or_build(0b1, rules)
        second = cache.get_or_build(0b1, rules)
        assert first is second
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_distinct_masks_get_distinct_entries(self):
        rules = _rules(("R1", r"eval\("), ("R2", r"exec\("))
        cache = GroupedCache()
        assert cache.get_or_build(0b11, rules) is not cache.get_or_build(
            0b01, rules[:1]
        )
        assert len(cache) == 2

    def test_bounded_lru_evicts_oldest(self):
        rules = _rules(("R1", r"eval\("))
        cache = GroupedCache(maxsize=2)
        for mask in (1, 2, 3):
            cache.get_or_build(mask, rules)
        assert len(cache) == 2
        assert cache.stats()["evictions"] == 1
        # mask 1 was evicted; rebuilding it is a miss, mask 3 still hits
        cache.get_or_build(3, rules)
        assert cache.stats()["hits"] == 1
        cache.get_or_build(1, rules)
        assert cache.stats()["misses"] == 4

    def test_rejects_silly_sizes(self):
        with pytest.raises(ValueError):
            GroupedCache(maxsize=0)

    def test_primed_cache_pickles_with_entries(self):
        rules = _rules(("R1", r"eval\("))
        cache = GroupedCache()
        cache.get_or_build(0b1, rules)
        clone = pickle.loads(pickle.dumps(cache))
        assert len(clone) == 1
        clone.get_or_build(0b1, rules)
        assert clone.stats()["hits"] == 1  # served from the pickled entry


class TestRuleIndexGroupedTier:
    def test_grouped_for_shares_compiled_plans_across_sources(self):
        index = RuleIndex(list(default_ruleset()))
        first = index.grouped_for(index.lookup("def a():\n    return 1\n"))
        second = index.grouped_for(index.lookup("def b():\n    return 2\n"))
        assert first is second  # same candidate mask -> same compiled plan
        assert index.grouped_stats()["hits"] >= 1

    def test_grouped_plan_memoizes_per_source(self):
        index = RuleIndex(list(default_ruleset()))
        source = "x = eval(user)\n"
        first = index.grouped_plan(source)
        second = index.grouped_plan(source)
        assert first is second
        stats = index.grouped_stats()
        assert stats["plan_hits"] == 1 and stats["plan_misses"] == 1
        assert "eval(" in first[0][0].pattern.pattern or first[0]

    def test_plan_memo_is_bounded_fifo(self):
        index = RuleIndex(list(default_ruleset()))
        index._plan_maxsize = 4
        for i in range(10):
            index.grouped_plan(f"def f{i}():\n    return {i}\n")
        assert len(index._plan_memo) == 4
        assert index.grouped_stats()["plan_size"] == 4

    def test_memoized_plan_matches_live_plan(self, flat_samples):
        index = RuleIndex(list(default_ruleset()))
        for sample in flat_samples[:60]:
            memoized = index.grouped_plan(sample.source)
            lookup = index.lookup(sample.source)
            live = index.grouped_for(lookup).plan(sample.source)
            assert list(memoized[0]) == live[0]
            assert memoized[1] == live[1]
            assert memoized[3] == lookup.mask  # the entry carries the mask

    def test_index_pickles_with_primed_grouped_tier(self):
        index = RuleIndex(list(default_ruleset()))
        source = "data = pickle.loads(blob)\n"
        index.grouped_plan(source)
        clone = pickle.loads(pickle.dumps(index))
        assert [r.rule_id for r in clone.grouped_plan(source)[0]] == [
            r.rule_id for r in index.grouped_plan(source)[0]
        ]
        assert clone.grouped_stats()["size"] >= 1  # compiled entries traveled


class TestEngineAblation:
    def test_warmup_primes_grouped_cache(self):
        engine = PatchitPy()
        engine.warmup()
        stats = engine.rules.candidate_index().grouped_stats()
        assert stats["size"] >= 1 and stats["misses"] >= 1


def _dicts(findings):
    return [f.to_dict() for f in findings]


def _indexed(engine, source):
    """The index-only tier: the index's candidates, no grouped probe."""
    candidates = engine.rules.candidate_index().lookup(source).candidates
    return reference_run(candidates, source)


class TestEquivalenceProperty:
    """The acceptance property: grouped == indexed == naive, byte for byte."""

    def test_findings_identical_across_full_corpus(self, flat_samples):
        engine = PatchitPy()
        assert len(flat_samples) > 500  # the whole corpus, not a slice
        for sample in flat_samples:
            grouped = _dicts(engine.detect(sample.source))
            assert grouped == _dicts(_indexed(engine, sample.source)), (
                sample.sample_id
            )
            assert grouped == _dicts(reference_run(engine.rules, sample.source)), (
                sample.sample_id
            )

    def test_extended_ruleset_equivalence(self, flat_samples):
        engine = PatchitPy(rules=extended_ruleset())
        for sample in flat_samples[:150]:
            assert _dicts(engine.detect(sample.source)) == _dicts(
                _indexed(engine, sample.source)
            ), sample.sample_id

    def test_instrumented_paths_equivalent(self, flat_samples):
        engine = PatchitPy(metrics=ScanMetrics())
        for sample in flat_samples[:100]:
            assert _dicts(engine.detect(sample.source)) == _dicts(
                _indexed(engine, sample.source)
            ), sample.sample_id

    def test_traced_path_equivalent_to_grouped(self, flat_samples):
        # tracing selects through the index lookup, not the grouped probe
        # (its audit names every guard's verdict), so its finding set —
        # provenance aside — must agree with the grouped fast path.
        grouped = PatchitPy()
        for sample in flat_samples[:40]:
            traced = PatchitPy(trace=TraceRecorder()).detect(sample.source)
            assert _dicts(f.with_provenance(None) for f in traced) == _dicts(
                grouped.detect(sample.source)
            ), sample.sample_id

    def test_instrumented_scan_accounts_cleared_rules(self):
        metrics = ScanMetrics()
        engine = PatchitPy(metrics=metrics)
        engine.detect("def add(a, b):\n    return a + b\n")
        assert metrics.counters.get("grouped_cleared", 0) > 0
        snapshot = metrics.counters
        calls = sum(s.calls for s in metrics.rules.values())
        assert calls == len(list(engine.rules))  # every rule accounted
        assert snapshot.get("grouped_hits", 0) == 0

    def test_instrumented_hit_counts_dispatch(self):
        metrics = ScanMetrics()
        engine = PatchitPy(metrics=metrics)
        findings = engine.detect("import pickle\nx = pickle.loads(b)\n")
        assert findings
        assert metrics.counters.get("grouped_hits", 0) >= 1
        assert metrics.counters.get("grouped_dispatch", 0) >= 1


_BENCH_PATH = (
    Path(__file__).resolve().parent.parent / "benchmarks" / "bench_engine_perf.py"
)


@pytest.mark.benchmark_smoke
def test_engine_perf_benchmark_smoke():
    """Smoke-mode run of the engine-perf benchmark (tiny corpus, no
    speedup floor — timing at this scale is noise; the full benchmark
    asserts the x1.5 acceptance claim)."""
    spec = importlib.util.spec_from_file_location("bench_engine_perf", _BENCH_PATH)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    results = bench.run_engine_perf_benchmark(files=12, sections=4, repeats=1)
    assert results["findings"] > 0
    assert results["grouped_total_s"] > 0
    assert results["grouped_p95_s"] >= results["grouped_p50_s"]
    assert results["plan_hits"] > 0  # the warm passes hit the plan memo
    report = bench.format_engine_perf_report(results)
    assert "grouped vs indexed" in report
