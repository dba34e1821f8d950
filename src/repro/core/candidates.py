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

A lookup also carries a bitmask of the candidate positions; the mask
keys the grouped-alternation cache (:meth:`RuleIndex.grouped_for`), so
distinct sources that select the same candidate subset share one
compiled :class:`~repro.core.groupcompile.GroupedAlternation`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.groupcompile import GroupedAlternation, GroupedCache
from repro.core.prefilter import required_literal_groups, required_literals

__all__ = ["IndexLookup", "RuleIndex"]

Plan = Tuple[Tuple[object, ...], int, Optional[str], int]


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
    """One source's candidate partition, in catalog order.

    ``candidates`` must run (every required literal present, or no
    requirement derivable); ``skipped`` provably cannot match (at least
    one required literal absent).  ``mask`` sets bit *i* iff catalog
    position *i* is a candidate — the grouped-alternation cache key.
    """

    candidates: List["object"]
    skipped: List["object"]
    mask: int = field(default=0)


class RuleIndex:
    """Maps one pass over a source to the exact candidate rule subset.

    Built once from a rule collection: every rule's required literals
    (conjunction, :func:`repro.core.prefilter.required_literals`) and
    disjunction groups (one-of,
    :func:`repro.core.prefilter.required_literal_groups`) are pooled
    into two literal tables — case-sensitive and case-folded — each
    compiled into a :class:`_TrieScanner`.  Per rule, the requirement
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
            exact_mask = 0
            folded_mask = 0
            for requirement in required_literals(rule.pattern):
                exact_bit, folded_bit = _intern(requirement)
                exact_mask |= exact_bit
                folded_mask |= folded_bit
            groups: List[Tuple[int, int]] = []
            for group in required_literal_groups(rule.pattern):
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
        self._grouped = GroupedCache()
        # Bounded per-source memo of grouped dispatch plans (FIFO, plain
        # dict: every operation is a single atomic dict op under the
        # GIL, so no lock — and no lock means the index still pickles
        # into worker processes unchanged).  Only rule *selection* is
        # memoized, never findings; matching always runs live.
        self._plan_memo: Dict[str, Plan] = {}
        self._plan_maxsize = 256
        self.plan_hits = 0
        self.plan_misses = 0

    @property
    def rules(self) -> Tuple["object", ...]:
        """The indexed rules, in catalog order."""
        return self._rules

    def __len__(self) -> int:
        return len(self._rules)

    def lookup(self, source: str) -> IndexLookup:
        """Partition the rules into candidates and provable skips."""
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
        skipped: List[object] = []
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
            else:
                skipped.append(rule)
            bit <<= 1
        return IndexLookup(candidates=candidates, skipped=skipped, mask=mask)

    def grouped_for(self, lookup: IndexLookup) -> GroupedAlternation:
        """The grouped-alternation plan for one lookup's candidate set.

        Memoized per candidate mask (the cache is this index's own):
        distinct sources selecting the same candidate subset share one
        compiled plan, so a warm engine compiles once per mask.
        """
        return self._grouped.get_or_build(lookup.mask, lookup.candidates)

    def grouped_plan(self, source: str) -> Plan:
        """``(dispatch, cleared, first_hit_rule_id, mask)`` for one source, memoized.

        The production selection: the candidate lookup, the
        grouped compilation *and* the bucket probes are all pure
        functions of ``(catalog, source)``, so the resulting dispatch
        selection is memoized per source in a bounded FIFO.  A warm
        repeat — multi-pass patching re-detecting the same text at
        fixpoint, the verifier re-scanning, the scan daemon serving a
        seen snippet — collapses the whole selection to one dict probe;
        the candidate ``mask`` lets a measured scan account index skips
        without a second lookup.  Only the *selection* is cached: the
        dispatched rules still run live every call, so findings stay
        byte-identical by construction.  Keys hold source strings, hence
        the small bound.
        """
        memo = self._plan_memo
        entry = memo.get(source)
        if entry is not None:
            self.plan_hits += 1
            return entry
        lookup = self.lookup(source)
        plan = self.grouped_for(lookup).plan(source)
        entry = (tuple(plan[0]), plan[1], plan[2], lookup.mask)
        if len(memo) >= self._plan_maxsize:
            try:  # FIFO eviction; best-effort under concurrent clears
                memo.pop(next(iter(memo)), None)
            except (StopIteration, RuntimeError):  # pragma: no cover
                pass
        memo[source] = entry
        self.plan_misses += 1
        return entry

    def grouped_stats(self) -> Dict[str, int]:
        """Cache counters of the grouped tier (compilation and plan memo)."""
        stats = self._grouped.stats()
        stats["plan_hits"] = self.plan_hits
        stats["plan_misses"] = self.plan_misses
        stats["plan_size"] = len(self._plan_memo)
        return stats

    def describe(self) -> Dict[str, int]:
        """Size counters for benchmarks and reports."""
        return {
            "rules": len(self._rules),
            "always_run": len(self.always_run),
            "exact_literals": len(self.exact_literals),
            "folded_literals": len(self.folded_literals),
            "or_groups": sum(len(entry[3]) for entry in self._entries),
        }

