"""Tests for literal prefiltering: correctness is pinned by equivalence."""

import pickle
import random
import re

import pytest

from repro.core import prefilter
from repro.core.prefilter import (
    LiteralRequirement,
    _longest_common_substring,
    literal_requirements,
)
from repro.core.rules import default_ruleset, extended_ruleset, full_catalog


def provenance(pattern):
    return literal_requirements(pattern).provenance


def conjunction(pattern):
    return literal_requirements(pattern).conjunction


def groups_of(pattern):
    return literal_requirements(pattern).groups


class TestDerivation:
    """The provenance literal: the longest case-sensitive run."""

    def test_plain_literal(self):
        assert provenance(re.compile(r"pickle\.loads\(")) == "pickle.loads("

    def test_longest_run_chosen(self):
        literal = provenance(re.compile(r"os\.system\(\s*f['\"]"))
        assert literal == "os.system("

    def test_branch_requires_all(self):
        # each alternative has a literal → the weakest guarantee is usable
        literal = provenance(re.compile(r"(?:telnetlib\.Telnet|ftplib\.FTP)\("))
        assert literal is not None

    def test_branch_with_free_alternative(self):
        # one alternative is pure wildcard → nothing is required
        assert provenance(re.compile(r"(?:pickle\.loads|\w+)x")) is None

    def test_optional_group_skipped(self):
        literal = provenance(re.compile(r"(?:import\s+)?yaml\.load\("))
        assert literal == "yaml.load("

    def test_short_literals_rejected(self):
        assert provenance(re.compile(r"\bok\b")) is None

    def test_ignorecase_disables(self):
        assert provenance(re.compile(r"SELECT", re.IGNORECASE)) is None

    def test_repeat_min_one_contributes(self):
        literal = provenance(re.compile(r"(?:abcdef)+\d"))
        assert literal == "abcdef"

    def test_longest_tie_keeps_the_first_in_walk_order(self):
        # The conjunction sorts longest first and then alphabetically; the
        # provenance literal keeps walk order.  --explain, SARIF and the
        # HTML report print it, so a change here would move their output.
        catalog = full_catalog()
        for rule_id, shown, first_sorted in (
            ("PIT-A01-13", "open(", "/tmp/"),
            ("PIT-A01-15", "request.", ".items()"),
        ):
            literals = catalog.get(rule_id).literals
            assert literals.provenance == shown
            assert literals.conjunction[0].text == first_sorted


class TestOneDerivation:
    """Each rule parses its pattern once, on the first read of its literals."""

    def test_catalog_parses_nothing_and_index_parses_each_rule_once(self, monkeypatch):
        parses = []
        parse = prefilter._parse

        def counted(pattern):
            parses.append(pattern.pattern)
            return parse(pattern)

        monkeypatch.setattr(prefilter, "_parse", counted)
        rules = default_ruleset()
        assert parses == []
        rules.candidate_index()
        assert sorted(parses) == sorted(rule.pattern.pattern for rule in rules)
        del parses[:]
        rules.without("PIT-A03-11").candidate_index()
        for rule in rules:
            rule.literals.provenance
        clone = pickle.loads(pickle.dumps(rules))
        clone.candidate_index()
        for rule in clone:
            rule.literals.provenance
        assert parses == []


class TestSafety:
    """The safety invariant: if the regex matches, the literal is present."""

    @pytest.mark.parametrize("ruleset_name,rules", [("python", list(extended_ruleset()))])
    def test_literal_present_in_rule_matches(self, ruleset_name, rules, flat_samples):
        derived = {
            r.rule_id: r.literals.provenance
            for r in rules
            if r.literals.provenance is not None
        }
        assert derived, "at least some rules must gain a prefilter"
        for sample in flat_samples[:150]:
            for rule in rules:
                literal = derived.get(rule.rule_id)
                if literal is None:
                    continue
                if rule.pattern.search(sample.source):
                    assert literal in sample.source, (rule.rule_id, literal)

    def test_corpus_results_identical_with_and_without(self, flat_samples, engine):
        # equivalence: verdicts through the prefiltered engine path equal
        # raw regex verdicts
        for sample in flat_samples[:120]:
            raw = any(
                rule.applies_to(sample.source) and rule.pattern.search(sample.source)
                and not any(g.vetoes(sample.source, m) for m in [rule.pattern.search(sample.source)] for g in rule.all_guards())
                for rule in engine.rules
            )
            assert engine.is_vulnerable(sample.source) == raw

    def test_prefilter_coverage_is_high(self):
        rules = list(extended_ruleset())
        covered = sum(r.literals.provenance is not None for r in rules)
        assert covered / len(rules) > 0.5


def _reference_lcs(a: str, b: str) -> str:
    """The pre-DP implementation, kept verbatim as the behavioral oracle."""
    best = ""
    for i in range(len(a)):
        for j in range(i + len(best) + 1, len(a) + 1):
            if a[i:j] in b:
                best = a[i:j]
            else:
                break
    return best


class TestLongestCommonSubstring:
    def test_known_cases(self):
        assert _longest_common_substring("hashlib.md5(", "hashlib.sha1(") == "hashlib."
        assert _longest_common_substring("abc", "xyz") == ""
        assert _longest_common_substring("", "anything") == ""
        assert _longest_common_substring("same", "same") == "same"

    def test_tie_resolves_to_earliest_occurrence(self):
        # "ab" and "cd" are both common, length 2 — the old scan kept the
        # first one found in `a`, and the DP must agree.
        assert _longest_common_substring("ab_cd", "ab~cd") == _reference_lcs(
            "ab_cd", "ab~cd"
        )

    def test_matches_old_implementation_on_random_strings(self):
        rng = random.Random(20260805)
        for trial in range(300):
            alphabet = "abcd" if trial % 2 else "ab"
            a = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 30)))
            b = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 30)))
            assert _longest_common_substring(a, b) == _reference_lcs(a, b), (a, b)


class TestMultiLiteralExtraction:
    """The conjunction: every useful literal a match must contain."""

    def test_concatenation_yields_full_conjunction(self):
        reqs = conjunction(re.compile(r"subprocess\.call\(.*shell\s*=\s*True"))
        texts = {r.text for r in reqs}
        assert "subprocess.call(" in texts
        assert "True" in texts
        assert all(not r.folded for r in reqs)

    def test_single_literal_agrees_with_provenance_literal(self):
        pattern = re.compile(r"pickle\.loads\(")
        assert {r.text for r in conjunction(pattern)} == {"pickle.loads("}
        assert provenance(pattern) == "pickle.loads("

    def test_substring_redundant_literals_dropped(self):
        # "load(" is a substring of "yaml.load(" — only the longer literal
        # survives (the shorter one's presence is implied).
        reqs = conjunction(re.compile(r"yaml\.load\(.*load\("))
        assert {r.text for r in reqs} == {"yaml.load("}

    def test_short_runs_dropped(self):
        reqs = conjunction(re.compile(r"ab\d+cdef"))
        assert {r.text for r in reqs} == {"cdef"}

    def test_ignorecase_emits_folded_lowercase(self):
        reqs = conjunction(re.compile(r"SELECT\s+.*\s+FROM", re.IGNORECASE))
        assert reqs
        assert all(r.folded for r in reqs)
        assert all(r.text == r.text.lower() for r in reqs)
        assert {r.text for r in reqs} == {"select", "from"}

    def test_ignorecase_non_ascii_literal_dropped(self):
        # 'İ'.lower() has len 2: a case-insensitive substring check over
        # lowered text would be unsound, so non-ASCII literals vanish.
        reqs = conjunction(re.compile(r"İİİİ\d", re.IGNORECASE))
        assert reqs == ()

    def test_case_sensitive_literals_never_folded(self):
        reqs = conjunction(re.compile(r"eval\("))
        assert reqs == (LiteralRequirement(text="eval(", folded=False),)

    def test_every_literal_is_required(self):
        # safety: any string the pattern matches contains every literal
        pattern = re.compile(r"hashlib\.md5\(.*\)|hashlib\.sha1\(.*\)")
        reqs = conjunction(pattern)
        assert reqs
        probe = "x = hashlib.md5(data)"
        assert pattern.search(probe)
        for req in reqs:
            assert req.text in probe


class TestDisjunctionGroups:
    """The groups: one literal of each must appear."""

    def test_branch_yields_one_of_group(self):
        groups = groups_of(re.compile(r"(?:Markup|mark_safe)\("))
        assert len(groups) == 1
        assert {r.text for r in groups[0]} == {"Markup", "mark_safe"}

    def test_factored_prefix_glued_back_on(self):
        # sre_parse turns "password|passwd|pwd" into "p" + "assword|asswd|wd";
        # the walker must reconstruct the full discriminating literals.
        groups = groups_of(re.compile(r"(?:password|passwd|pwd)\s*="))
        assert len(groups) == 1
        assert {r.text for r in groups[0]} == {"password", "passwd", "pwd"}

    def test_group_dropped_when_member_below_floor(self):
        groups = groups_of(re.compile(r"(?:ElementTree|ET)\."))
        assert groups == ()

    def test_free_alternative_kills_group(self):
        assert groups_of(re.compile(r"(?:evil_call|\w+)x")) == ()

    def test_optional_branch_not_guaranteed(self):
        # a branch behind a min-0 quantifier may never be traversed
        groups = groups_of(re.compile(r"(?:alpha|beta)?\d"))
        assert groups == ()

    def test_ignorecase_groups_fold(self):
        groups = groups_of(
            re.compile(r"(?:SELECT|INSERT)\s", re.IGNORECASE)
        )
        assert len(groups) == 1
        assert all(r.folded for r in groups[0])
        assert {r.text for r in groups[0]} == {"select", "insert"}

    def test_group_members_are_individually_required(self):
        # safety: every match contains at least one member of every group
        pattern = re.compile(r"os\.(?:execl|execve|spawnl)\([^)]*\)")
        groups = groups_of(pattern)
        assert groups
        for probe in ("os.execl(a)", "os.execve(b, c)", "os.spawnl(d)"):
            assert pattern.search(probe)
            for group in groups:
                assert any(r.text in probe for r in group), (probe, group)
