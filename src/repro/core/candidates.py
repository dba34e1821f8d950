"""Single-pass multi-literal candidate selection for the rule engine.

Instead of one ``literal in source`` scan per rule (~85 passes over each
file before a single regex ran), :class:`RuleIndex` — compiled once per
:class:`~repro.core.rules.base.RuleSet` and carried through pickling into
worker processes and the warm scan-server engine — maps one
multi-pattern pass over a source to the exact candidate rule subset, the
way Semgrep/ripgrep-lineage scanners do.  A rule is a candidate iff
*all* of its required literals are present; rules with no derivable
literal live in an always-run bucket, so selection never changes the
findings of running every rule (:func:`~repro.core.matching.reference_run`).

A lookup is plain substring tests — which literals occur anywhere in the
source — through a C-accelerated scanner (:class:`_TrieScanner`):
word-shaped literals are probed with single ``in`` checks and the rest
swept by one trie-factored alternation regex with substring-implication
closure.  Tests pin it against ``literal in text`` for every literal.

``IGNORECASE`` rules get case-folded literals (lowercased, checked
against a lowercased copy of the source).  The fold is only trusted for
ASCII sources, where ``str.lower()`` agrees exactly with the regex
engine's case-insensitivity; a non-ASCII source simply promotes every
folded-requirement rule to candidate (correct, never fast-and-wrong).

A lookup also carries a bitmask of the candidate positions, which a
measured scan tallies as the catalog's offer counts
(:meth:`~repro.observability.collector.ScanMetrics.tally_rules`) in one
step instead of one update per rule.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Dict, Iterable, List, Sequence, Tuple

__all__ = ["IndexLookup", "RuleIndex"]


# Literals shaped like bare identifiers ("return", "password") occur in
# most Python files; probing each with one C-level ``in`` beats putting
# them in the swept alternation, where their occurrences dominate the
# match-event loop.  Punctuated literals ("pickle.loads(") are selective
# and belong in the single swept pass.
_WORDLIKE = re.compile(r"[A-Za-z_]+\Z")


def _trie_pattern(literals: Sequence[str]) -> str:
    """A trie-factored alternation matching exactly the given literals.

    Factoring shared prefixes means the regex engine descends one
    branch per position instead of attempting every alternative, which
    is what makes the single sweep cheaper than per-literal scans.
    Greedy descent with an optional tail makes each match the *longest*
    literal starting at its position; shorter same-start literals are
    recovered through the substring-implication closure.
    """
    root: Dict[str, dict] = {}
    for literal in literals:
        node = root
        for char in literal:
            node = node.setdefault(char, {})
        node[""] = {}

    def emit(node: Dict[str, dict]) -> str:
        terminal = "" in node
        branches = [
            re.escape(char) + emit(child)
            for char, child in sorted(node.items())
            if char != ""
        ]
        if not branches:
            return ""
        if len(branches) == 1 and not terminal:
            return branches[0]
        body = "(?:" + "|".join(branches) + ")"
        return body + ("?" if terminal else "")

    return emit(root)


class _TrieScanner:
    """C-accelerated presence test for a fixed literal set.

    Returns the found-literal set as a bitmask: bit ``i`` is set iff
    ``literals[i] in text``.  Word-shaped literals are probed
    with direct ``in`` checks; the rest are swept by one trie-factored
    alternation, resuming one character past each match start so
    overlapping occurrences cannot be skipped.  Every hit folds in its
    substring-implication mask, so literals contained in a longer found
    literal are marked without their own scan.
    """

    def __init__(self, literals: Sequence[str]) -> None:
        self._literals = tuple(literals)
        implied: List[int] = []
        for i, literal in enumerate(self._literals):
            mask = 1 << i
            for j, other in enumerate(self._literals):
                if i != j and other in literal:
                    mask |= 1 << j
            implied.append(mask)
        self._implied: Tuple[int, ...] = tuple(implied)
        probe_ids = [i for i, lit in enumerate(self._literals) if _WORDLIKE.match(lit)]
        sweep_ids = [i for i in range(len(self._literals)) if i not in set(probe_ids)]
        self._probes: Tuple[Tuple[int, str], ...] = tuple(
            (i, self._literals[i]) for i in probe_ids
        )
        sweep_mask = 0
        for i in sweep_ids:
            sweep_mask |= 1 << i
        self._sweep_mask = sweep_mask
        self._sweep_by_text: Dict[str, int] = {self._literals[i]: i for i in sweep_ids}
        self._sweep_regex = (
            re.compile(_trie_pattern([self._literals[i] for i in sweep_ids]))
            if sweep_ids
            else None
        )

    def present_mask(self, text: str) -> int:
        """Bitmask of every literal occurring anywhere in ``text``."""
        implied = self._implied
        found = 0
        for literal_id, literal in self._probes:
            if literal in text:
                found |= implied[literal_id]
        regex = self._sweep_regex
        if regex is None:
            return found
        pending = self._sweep_mask & ~found
        by_text = self._sweep_by_text
        search = regex.search
        position = 0
        while pending:
            match = search(text, position)
            if match is None:
                break
            mask = implied[by_text[match.group(0)]]
            if mask & pending:
                found |= mask
                pending &= ~mask
            position = match.start() + 1
        return found


@dataclass
class IndexLookup:
    """One source's candidate partition of ``rules``, in catalog order.

    ``candidates`` must run (every required literal present, or no
    requirement derivable).  ``mask`` sets bit *i* iff catalog position
    *i* is a candidate: what a measured scan tallies as the catalog's
    offer counts.  :attr:`skipped` is derived from it when read.
    """

    candidates: List["object"]
    mask: int
    rules: Tuple["object", ...] = field(repr=False)

    @property
    def skipped(self) -> List["object"]:
        """The rules that provably cannot match: at least one required
        literal is absent."""
        return [rule for i, rule in enumerate(self.rules) if not self.mask >> i & 1]


class RuleIndex:
    """Maps one pass over a source to the exact candidate rule subset.

    Built once from a rule collection: every rule's required literals
    (``rule.literals.conjunction``) and disjunction groups (one-of,
    ``rule.literals.groups``), which the rule derives from one parse of
    its pattern (:func:`repro.core.prefilter.literal_requirements`), are
    pooled into two literal tables — case-sensitive and case-folded —
    each compiled into a :class:`_TrieScanner`.  Per rule, the requirement
    is a bitmask conjunction over table ids plus an any-bit check per
    group; rules contributing no literal at all form the always-run
    bucket.

    The whole structure is plain data (dicts, tuples, ints, compiled
    regexes), so a built index survives pickling into worker processes
    unchanged.
    """

    def __init__(self, rules: Iterable["object"]) -> None:
        self._rules = tuple(rules)
        #: The rule ids in catalog order: what a measured detect's offer
        #: tally is keyed by (plain strings, so it survives pickling).
        self.rule_ids: Tuple[str, ...] = tuple(rule.rule_id for rule in self._rules)
        exact_ids: Dict[str, int] = {}
        folded_ids: Dict[str, int] = {}
        entries: List[Tuple[object, int, int, Tuple[Tuple[int, int], ...]]] = []
        always: List[object] = []

        def _intern(requirement) -> Tuple[int, int]:
            """(exact_bit, folded_bit) for one literal requirement."""
            table = folded_ids if requirement.folded else exact_ids
            literal_id = table.setdefault(requirement.text, len(table))
            bit = 1 << literal_id
            return (0, bit) if requirement.folded else (bit, 0)

        for rule in self._rules:
            literals = rule.literals
            exact_mask = 0
            folded_mask = 0
            for requirement in literals.conjunction:
                exact_bit, folded_bit = _intern(requirement)
                exact_mask |= exact_bit
                folded_mask |= folded_bit
            groups: List[Tuple[int, int]] = []
            for group in literals.groups:
                group_exact = 0
                group_folded = 0
                for requirement in group:
                    exact_bit, folded_bit = _intern(requirement)
                    group_exact |= exact_bit
                    group_folded |= folded_bit
                groups.append((group_exact, group_folded))
            entries.append((rule, exact_mask, folded_mask, tuple(groups)))
            if not exact_mask and not folded_mask and not groups:
                always.append(rule)
        self._entries: Tuple[
            Tuple[object, int, int, Tuple[Tuple[int, int], ...]], ...
        ] = tuple(entries)
        self.exact_literals: Tuple[str, ...] = tuple(exact_ids)
        self.folded_literals: Tuple[str, ...] = tuple(folded_ids)
        self.always_run: Tuple[object, ...] = tuple(always)
        self._exact_scanner = _TrieScanner(self.exact_literals)
        self._folded_scanner = _TrieScanner(self.folded_literals)
        self._folded_all = (1 << len(self.folded_literals)) - 1

    @property
    def rules(self) -> Tuple["object", ...]:
        """The indexed rules, in catalog order."""
        return self._rules

    def __len__(self) -> int:
        return len(self._rules)

    def lookup(self, source: str) -> IndexLookup:
        """Select the candidate rules for ``source``."""
        exact_found = self._exact_scanner.present_mask(source)
        folded_found = 0
        if self.folded_literals:
            if source.isascii():
                folded_found = self._folded_scanner.present_mask(source.lower())
            else:
                # A non-ASCII source can satisfy IGNORECASE literals
                # through one-to-many Unicode case mappings a substring
                # check cannot model; run those rules rather than risk a
                # wrong skip.
                folded_found = self._folded_all
        candidates: List[object] = []
        mask = 0
        bit = 1
        for rule, exact_mask, folded_mask, groups in self._entries:
            if (
                exact_mask & exact_found == exact_mask
                and folded_mask & folded_found == folded_mask
                and all(
                    group_exact & exact_found or group_folded & folded_found
                    for group_exact, group_folded in groups
                )
            ):
                candidates.append(rule)
                mask |= bit
            bit <<= 1
        return IndexLookup(candidates, mask, self._rules)

    def grouped_for(self, lookup: IndexLookup) -> SimpleNamespace:
        """Benchmark seam: the lookup's candidates as a three-field plan.

        ``perfbench/layers.py`` times ``grouped_for(lookup).plan(source)``
        as its ``groupcompile.*`` rows, a tier the engine no longer has;
        the plan answers ``(lookup.candidates, 0, None)`` so those rows
        read zero clears.  No production code calls it.  The next
        benchmark change drops the ``groupcompile.*`` and
        ``candidates.plan_memo_hit_ratio`` rows, and this method and
        :meth:`grouped_stats` with them.
        """
        return SimpleNamespace(plan=lambda source: (lookup.candidates, 0, None))

    @staticmethod
    def grouped_stats() -> Dict[str, int]:
        """Benchmark seam: zero cache counters (see :meth:`grouped_for`)."""
        return dict.fromkeys(("hits", "misses", "plan_hits", "plan_misses"), 0)

    def describe(self) -> Dict[str, int]:
        """Size counters for benchmarks and reports."""
        return {
            "rules": len(self._rules),
            "always_run": len(self.always_run),
            "exact_literals": len(self.exact_literals),
            "folded_literals": len(self.folded_literals),
            "or_groups": sum(len(entry[3]) for entry in self._entries),
        }

