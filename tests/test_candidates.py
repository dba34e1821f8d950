"""Tests for the single-pass candidate index (repro.core.candidates).

The load-bearing property is at the bottom: over the full bundled corpus
and the complete default ruleset, production dispatch (select through
the candidate index, then match) is byte-identical to ``reference_run``,
which runs every rule with no selection at all — on the samples as they
are, on fixed mutations of them, and on mutations Hypothesis draws.
Everything above pins the pieces that property rests on — the scanner
against brute-force substring checks, case folding, the always-run
bucket, pickling, and every rule being reachable through the index.
"""

import pickle
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import reference_run
from repro.core.candidates import RuleIndex, _TrieScanner
from repro.core.engine import PatchitPy
from repro.core.matching import run_rules
from repro.core.rules import RuleSet, default_ruleset, extended_ruleset
from repro.core.rules.base import rule
from repro.observability import ScanMetrics, TraceRecorder


def _brute_force_present(literals, text):
    return {i for i, literal in enumerate(literals) if literal in text}


def _present(scanner, text):
    mask = scanner.present_mask(text)
    return {i for i in range(mask.bit_length()) if mask >> i & 1}


class TestScannerMatchesAutomaton:
    """``_TrieScanner.present_mask`` must equal ``literal in text`` per literal."""

    @pytest.mark.parametrize("ruleset_factory", [default_ruleset, extended_ruleset])
    def test_on_real_sources(self, ruleset_factory, flat_samples):
        index = RuleIndex(list(ruleset_factory()))
        exact = _TrieScanner(index.exact_literals)
        folded = _TrieScanner(index.folded_literals)
        for sample in flat_samples[:150]:
            text = sample.source
            assert _present(exact, text) == _brute_force_present(
                index.exact_literals, text
            ), sample.sample_id
            assert _present(folded, text.lower()) == _brute_force_present(
                index.folded_literals, text.lower()
            ), sample.sample_id

    def test_on_random_texts(self):
        literals = RuleIndex(list(default_ruleset())).exact_literals
        scanner = _TrieScanner(literals)
        rng = random.Random(99)
        fragments = [
            "pickle.loads(", "yaml.load(", "eval(", "return ", "password",
            "subprocess", "shell=True", "os.system(", "x = 1\n", "# comment\n",
        ]
        for _ in range(100):
            text = "".join(rng.choice(fragments) for _ in range(rng.randrange(0, 30)))
            assert _present(scanner, text) == _brute_force_present(literals, text), text

    def test_on_random_literal_sets(self):
        # overlapping, nested and same-prefix literals over a tiny alphabet
        rng = random.Random(1337)
        alphabet = "abcx_"
        for _ in range(150):
            literals = sorted(
                {
                    "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 6)))
                    for _ in range(rng.randrange(1, 8))
                }
            )
            scanner = _TrieScanner(literals)
            for _ in range(10):
                text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 40)))
                assert _present(scanner, text) == _brute_force_present(
                    literals, text
                ), (literals, text)


class TestRuleIndex:
    def test_partition_is_total_and_ordered(self, flat_samples):
        rules = list(default_ruleset())
        index = RuleIndex(rules)
        lookup = index.lookup(flat_samples[0].source)
        assert len(lookup.candidates) + len(lookup.skipped) == len(rules)
        # candidates preserve catalog order
        order = {r.rule_id: i for i, r in enumerate(rules)}
        positions = [order[r.rule_id] for r in lookup.candidates]
        assert positions == sorted(positions)

    def test_every_default_rule_reachable_through_index(self):
        """Parametrized over the full catalog: no rule can be orphaned."""
        rules = list(default_ruleset())
        index = RuleIndex(rules)
        by_rule = {r: (em, fm, groups) for r, em, fm, groups in index._entries}

        def _exact_bits(mask):
            return [
                index.exact_literals[i]
                for i in range(len(index.exact_literals))
                if mask >> i & 1
            ]

        def _folded_bits(mask):
            return [
                index.folded_literals[i].upper()  # prove the fold, not the literal
                for i in range(len(index.folded_literals))
                if mask >> i & 1
            ]

        for target in rules:
            exact_mask, folded_mask, groups = by_rule[target]
            # synthesize a source containing exactly the rule's literals:
            # every conjunction literal, plus ONE member per OR-group
            parts = _exact_bits(exact_mask) + _folded_bits(folded_mask)
            for group_exact, group_folded in groups:
                members = _exact_bits(group_exact) or _folded_bits(group_folded)
                parts.append(members[0])
            source = "\n".join(parts)
            candidates = index.lookup(source).candidates
            assert target in candidates, target.rule_id

    def test_rules_without_literals_land_in_always_run_bucket(self):
        no_literal = rule("T-NOLIT", "CWE-000", "free pattern", r"\w+\d\w+x")
        with_literal = rule("T-LIT", "CWE-000", "literal pattern", r"dangerzone\(")
        index = RuleIndex([no_literal, with_literal])
        assert index.always_run == (no_literal,)
        # an empty source can only ever produce always-run candidates
        lookup = index.lookup("")
        assert lookup.candidates == [no_literal]
        assert lookup.skipped == [with_literal]

    def test_always_run_bucket_on_default_catalog(self):
        index = RuleIndex(list(default_ruleset()))
        described = index.describe()
        assert described["always_run"] == len(index.lookup("").candidates)
        assert described["always_run"] < described["rules"]

    def test_multi_literal_conjunction_skips_partial_sources(self):
        conjunction = rule(
            "T-CONJ", "CWE-000", "two literals", r"alphaone\(.*betatwo\("
        )
        index = RuleIndex([conjunction])
        assert index.lookup("alphaone( betatwo(").candidates == [conjunction]
        # one literal alone is not enough — the single-literal prefilter
        # (longest run only) could not have skipped this source
        assert index.lookup("alphaone( only").skipped == [conjunction]
        assert index.lookup("only betatwo(").skipped == [conjunction]

    def test_ignorecase_rule_found_in_any_casing(self):
        insensitive = rule(
            "T-ICASE", "CWE-000", "folded", r"select\s+secret", flags=re.IGNORECASE
        )
        index = RuleIndex([insensitive])
        assert index.folded_literals  # the fold actually engaged
        for probe in ("select secret", "SELECT SECRET", "SeLeCt SeCrEt"):
            assert index.lookup(probe).candidates == [insensitive], probe
        assert index.lookup("no match here").skipped == [insensitive]

    def test_non_ascii_source_promotes_folded_rules(self):
        insensitive = rule(
            "T-ICASE", "CWE-000", "folded", r"select\s+secret", flags=re.IGNORECASE
        )
        index = RuleIndex([insensitive])
        # Unicode one-to-many case mappings make the fold unverifiable:
        # the rule must run rather than risk a wrong skip.
        assert index.lookup("print('İstanbul')").candidates == [insensitive]

    def test_pickle_round_trip_preserves_lookup(self, flat_samples):
        index = RuleIndex(list(default_ruleset()))
        clone = pickle.loads(pickle.dumps(index))
        for sample in flat_samples[:20]:
            assert [r.rule_id for r in clone.lookup(sample.source).candidates] == [
                r.rule_id for r in index.lookup(sample.source).candidates
            ]


class TestRuleSetIntegration:
    def test_index_cached_until_rules_change(self):
        rules = RuleSet([rule("T-A", "CWE-000", "a", r"alphaone\(")])
        first = rules.candidate_index()
        assert rules.candidate_index() is first
        rules.add(rule("T-B", "CWE-000", "b", r"betatwo\("))
        rebuilt = rules.candidate_index()
        assert rebuilt is not first
        assert len(rebuilt) == 2
        assert rebuilt.lookup("betatwo(").candidates

    def test_ruleset_pickles_with_built_index(self):
        rules = default_ruleset()
        rules.candidate_index()
        clone = pickle.loads(pickle.dumps(rules))
        probe = "import pickle\npickle.loads(data)\n"
        assert [r.rule_id for r in clone.candidate_index().lookup(probe).candidates] == [
            r.rule_id for r in rules.candidate_index().lookup(probe).candidates
        ]

    def test_engine_pickles_with_built_index(self):
        engine = PatchitPy()
        engine.warmup()  # builds the index, like the daemon and workers do
        clone = pickle.loads(pickle.dumps(engine))
        probe = "eval(input())\n"
        assert [f.to_dict() for f in clone.detect(probe)] == [
            f.to_dict() for f in engine.detect(probe)
        ]

    def test_plain_rule_lists_have_no_index(self):
        # run_rules over a bare list builds an index of its own
        rules = list(default_ruleset())
        probe = "eval(input())\n"
        assert [f.to_dict() for f in run_rules(rules, probe)] == [
            f.to_dict() for f in run_rules(default_ruleset(), probe)
        ]


class TestObservabilityIntegration:
    def test_metrics_gain_index_counters(self):
        metrics = ScanMetrics()
        engine = PatchitPy(metrics=metrics)
        engine.detect("import pickle\npickle.loads(x)\n")
        counters = metrics.counters
        assert counters["index_candidates"] >= 1
        assert counters["index_skips"] >= 1
        assert counters["index_candidates"] + counters["index_skips"] == len(
            engine.rules
        )

    def test_index_skipped_rules_still_accounted_as_prefilter_skips(self):
        metrics = ScanMetrics()
        engine = PatchitPy(metrics=metrics)
        engine.detect("x = 1\n")
        assert {stats.calls for stats in metrics.rules.values()} == {1}
        assert sum(s.prefilter_skips for s in metrics.rules.values()) > 0

    def test_traced_scan_emits_index_lookup_event(self):
        tracer = TraceRecorder()
        engine = PatchitPy(trace=tracer)
        engine.detect("import pickle\npickle.loads(x)\n")
        lookups = [e for e in tracer.events if e.get("kind") == "index-lookup"]
        assert len(lookups) == 1
        assert lookups[0]["candidates"] + lookups[0]["skipped"] == len(engine.rules)

    def test_traced_scan_keeps_one_rule_span_per_rule(self):
        tracer = TraceRecorder()
        engine = PatchitPy(trace=tracer)
        engine.detect("x = 1\n")
        rule_spans = [e for e in tracer.events if e.get("kind") == "rule"]
        assert len(rule_spans) == len(list(engine.rules))
        assert any(e.get("outcome") == "prefilter-skip" for e in rule_spans)


class TestPrerequisiteMemo:
    def test_shared_prerequisite_searched_once_per_scan(self):
        calls = []

        class CountingPattern:
            """Duck-typed re.Pattern standing in as a shared prerequisite."""

            pattern = "flask"
            flags = 0

            def search(self, source):
                calls.append(source)
                return re.search("flask", source)

        shared = CountingPattern()
        rules = RuleSet(
            [
                rule("T-A", "CWE-000", "a", r"alphaone\("),
                rule("T-B", "CWE-000", "b", r"betatwo\("),
            ]
        )
        for item in rules:
            object.__setattr__(item, "prerequisites", (shared,))
        source = "import flask\nalphaone( betatwo(\n"
        run_rules(rules, source)
        assert len(calls) == 1

    def test_failed_prerequisite_still_blocks_every_rule(self):
        gated = rule(
            "T-GATED", "CWE-000", "gated", r"alphaone\(", require_in_file=[r"flask"]
        )
        rules = RuleSet([gated])
        assert run_rules(rules, "alphaone(\n") == []
        assert len(run_rules(rules, "import flask\nalphaone('x')\n")) == 1


def _mutations(source):
    """CRLF endings, a mid-token truncation, and a non-ASCII fold line."""
    cut = len(source) * 2 // 3
    while cut < len(source) - 1 and not (
        source[cut - 1].isalnum() and source[cut].isalnum()
    ):
        cut += 1  # advance until the cut splits a token
    # "ſ" and the Kelvin sign fold to ASCII under IGNORECASE, and any
    # non-ASCII text sends the index down its promote-every-folded-rule path
    return [source.replace("\n", "\r\n"), source[:cut], "# \u017f \u212a\n" + source]


class TestEquivalenceProperty:
    """The acceptance property: production == ``reference_run``, byte for byte.

    ``reference_run`` runs every rule through the per-rule body with no
    candidate index and no literal prefilter; the engine selects through
    the index in every regime.  Traced findings are compared without
    their provenance records.
    """

    REGIMES = ("fast", "measured", "traced")

    @pytest.fixture(scope="class")
    def engine(self):
        return PatchitPy()

    @staticmethod
    def _detect(engine, source, regime):
        if regime == "measured":
            return engine.detect(source, metrics=ScanMetrics())
        if regime == "traced":
            traced = engine.detect(source, trace=TraceRecorder())
            return [f.with_provenance(None) for f in traced]
        return engine.detect(source)

    def _assert_equivalent(self, engine, source, label, regimes=REGIMES):
        expected = [f.to_dict() for f in reference_run(engine.rules, source)]
        for regime in regimes:
            found = self._detect(engine, source, regime)
            assert [f.to_dict() for f in found] == expected, (label, regime)

    def test_findings_identical_across_full_corpus(self, flat_samples, engine):
        assert len(flat_samples) > 500  # the whole corpus, not a slice
        for sample in flat_samples:
            self._assert_equivalent(engine, sample.source, sample.sample_id, ["fast"])

    def test_instrumented_paths_equivalent(self, flat_samples, engine):
        for sample in flat_samples:
            self._assert_equivalent(
                engine, sample.source, sample.sample_id, ["measured"]
            )

    def test_traced_path_equivalent(self, flat_samples, engine):
        for sample in flat_samples:
            self._assert_equivalent(engine, sample.source, sample.sample_id, ["traced"])

    def test_extended_ruleset_equivalence(self, flat_samples):
        engine = PatchitPy(rules=extended_ruleset())
        for sample in flat_samples[:150]:
            self._assert_equivalent(engine, sample.source, sample.sample_id)

    @pytest.mark.parametrize("catalog", [default_ruleset, extended_ruleset])
    def test_mutations_equivalent(self, flat_samples, catalog):
        engine = PatchitPy(rules=catalog())
        for sample in flat_samples[:100]:
            for kind, mutated in zip(
                ("crlf", "truncated", "non-ascii"), _mutations(sample.source)
            ):
                self._assert_equivalent(engine, mutated, (sample.sample_id, kind))


#: Characters that match ASCII letters under IGNORECASE only through
#: Unicode case mapping (long s, Kelvin sign, dotted capital I); any of
#: them sends the index down its promote-every-folded-rule fallback.
FOLD_CHARS = ("\u017f", "\u212a", "\u0130")


@st.composite
def mutated_samples(draw, sources):
    """A corpus sample truncated, spliced, CRLF-ended, fold-salted or
    indented (every line prefixed with 1 to 8 spaces, the shape of a
    snippet pasted into a function body)."""
    source = draw(st.sampled_from(sources))
    cut = draw(st.integers(0, len(source)))
    kind = draw(st.sampled_from(("truncate", "splice", "crlf", "fold", "indent")))
    if kind == "truncate":
        return source[:cut]
    if kind == "splice":
        other = draw(st.sampled_from(sources))
        return source[:cut] + other[draw(st.integers(0, len(other))) :]
    if kind == "crlf":
        return source.replace("\n", "\r\n")
    if kind == "indent":
        pad = " " * draw(st.integers(1, 8))
        return "".join(pad + line for line in source.splitlines(keepends=True))
    return source[:cut] + draw(st.sampled_from(FOLD_CHARS)) + source[cut:]


class TestDifferentialFuzzing:
    """Production == ``reference_run`` on mutations Hypothesis draws,
    in every regime and on both catalogs."""

    @pytest.mark.parametrize("catalog", [default_ruleset, extended_ruleset])
    def test_mutated_samples_equivalent(self, flat_samples, catalog):
        engine = PatchitPy(rules=catalog())

        @settings(max_examples=150, deadline=None)
        @given(source=mutated_samples([sample.source for sample in flat_samples]))
        def check(source):
            expected = [f.to_dict() for f in reference_run(engine.rules, source)]
            for regime in TestEquivalenceProperty.REGIMES:
                found = TestEquivalenceProperty._detect(engine, source, regime)
                assert [f.to_dict() for f in found] == expected, regime

        check()
