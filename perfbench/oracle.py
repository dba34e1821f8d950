"""Reference answers the benchmark checks every operation against.

The detector oracle is a plain per-rule loop over the catalog: every
rule's prerequisites, then every ``pattern.finditer`` match, then the
guard vetoes, then the same-CWE overlap dedupe.  It deliberately imports
nothing from the dispatch layers (``matching``, ``candidates``,
``groupcompile``), so it keeps judging the production path however that
path is restructured.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, NamedTuple, Tuple

from repro.core.rules import default_ruleset


class Ref(NamedTuple):
    """One reference finding: what the benchmark compares, nothing more."""

    rule_id: str
    cwe_id: str
    start: int
    end: int
    message: str
    text: str


class ReferenceDetector:
    """Naive per-rule detection over the default catalog."""

    def __init__(self) -> None:
        self.rules = list(default_ruleset())

    def findings(self, source: str) -> List[Ref]:
        found: List[Ref] = []
        for rule in self.rules:
            if not rule.applies_to(source):
                continue
            for match in rule.pattern.finditer(source):
                if any(guard.vetoes(source, match) for guard in rule.all_guards()):
                    continue
                found.append(
                    Ref(
                        rule.rule_id,
                        rule.cwe_id,
                        match.start(),
                        match.end(),
                        rule.message,
                        match.group(0),
                    )
                )
        found.sort(key=lambda f: (f.start, f.end, f.rule_id))
        kept: List[Ref] = []
        for candidate in found:
            if not any(
                k.cwe_id == candidate.cwe_id
                and k.start < candidate.end
                and candidate.start < k.end
                for k in kept
            ):
                kept.append(candidate)
        return kept


def spans(refs: List[Ref]) -> List[Tuple[str, int, int]]:
    """The comparable shape of a finding list: rule id and span."""
    return [(r.rule_id, r.start, r.end) for r in refs]


def wire_spans(findings: List[dict]) -> List[Tuple[str, int, int]]:
    """The same shape read from ``Finding.to_dict`` wire payloads."""
    return [
        (f["rule_id"], f["span"][0], f["span"][1]) for f in findings
    ]


def line_of(source: str, offset: int) -> int:
    return source.count("\n", 0, offset) + 1


def scan_lines(source: str, refs: List[Ref]) -> Counter:
    """What ``patchitpy scan`` prints per finding: line, CWE and message."""
    return Counter((line_of(source, r.start), r.cwe_id, r.message) for r in refs)


def review_classes(
    base: str, base_refs: List[Ref], head: str, head_refs: List[Ref]
) -> List[Tuple[str, str, int, int]]:
    """Introduced and fixed findings of one file, as ``review`` reports them.

    Identity is the rule id plus the matched text, consumed as a multiset:
    N+1 head occurrences against N baseline ones leave one introduced.
    """
    out: List[Tuple[str, str, int, int]] = []
    remaining: Dict[Tuple[str, str], int] = Counter((r.rule_id, r.text) for r in base_refs)
    for r in head_refs:
        key = (r.rule_id, r.text)
        if remaining.get(key, 0) > 0:
            remaining[key] -= 1
        else:
            out.append(("introduced", r.rule_id, r.start, r.end))
    available: Dict[Tuple[str, str], int] = Counter((r.rule_id, r.text) for r in head_refs)
    for r in base_refs:
        key = (r.rule_id, r.text)
        if available.get(key, 0) > 0:
            available[key] -= 1
        else:
            out.append(("fixed", r.rule_id, r.start, r.end))
    return sorted(out)
