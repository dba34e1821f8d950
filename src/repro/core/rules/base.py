"""Rule and patch-template model for the PatchitPy engine.

A :class:`DetectionRule` is a compiled regular expression plus metadata
(CWE, OWASP category, severity) and optional *guards* — secondary patterns
that veto a match (for instance when the flagged line already applies the
mitigation, or carries a ``# nosec`` waiver).  A rule may carry a
:class:`PatchTemplate`; rules without one are detection-only, which is one
of the reasons the paper's repair rate sits below 100 %.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.prefilter import LiteralRequirements, literal_requirements
from repro.cwe import OwaspCategory, normalize_cwe_id, owasp_category_for
from repro.exceptions import DuplicateRuleError, RuleError
from repro.types import Confidence, LineIndex, Severity

# A patch builder receives the regex match and returns the replacement text
# plus any import statements the replacement requires.
PatchBuilder = Callable[["re.Match[str]"], Tuple[str, Tuple[str, ...]]]


@dataclass(frozen=True)
class PatchTemplate:
    """How to rewrite a matched vulnerable pattern into its safe form.

    Exactly one of ``replacement`` (a ``re.Match.expand`` template, so
    ``\\g<name>`` backrefs work) or ``builder`` (a callable for patches
    that need computation, e.g. parameterizing an f-string SQL query) must
    be provided.
    """

    replacement: Optional[str] = None
    builder: Optional[PatchBuilder] = None
    imports: Tuple[str, ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        if (self.replacement is None) == (self.builder is None):
            raise RuleError("PatchTemplate needs exactly one of replacement/builder")

    def render(self, match: "re.Match[str]") -> Tuple[str, Tuple[str, ...]]:
        """Produce ``(replacement_text, imports)`` for a concrete match."""
        if self.builder is not None:
            text, extra_imports = self.builder(match)
            return text, tuple(self.imports) + tuple(extra_imports)
        return match.expand(self.replacement), tuple(self.imports)


@dataclass(frozen=True)
class Guard:
    """A veto condition evaluated against a candidate match."""

    pattern: "re.Pattern[str]"
    scope: str = "match"  # "match" (the matched text), "line", or "file"
    description: str = ""

    def vetoes(
        self, source: str, match: "re.Match[str]", lines=None
    ) -> bool:
        """True when the guard suppresses this match.

        ``lines`` optionally passes the caller's shared
        :class:`~repro.types.LineIndex` for ``source`` so every rule and
        match of a scan reuses one index.
        """
        if self.scope == "match":
            return bool(self.pattern.search(match.group(0)))
        if self.scope == "line":
            # not truthiness: LineIndex.__len__ builds the whole line table
            if lines is None:
                lines = LineIndex(source)
            return bool(self.pattern.search(lines.line_text(match.start())))
        if self.scope == "file":
            return bool(self.pattern.search(source))
        raise RuleError(f"unknown guard scope: {self.scope}")


_NOSEC_GUARD = Guard(pattern=re.compile(r"#\s*nosec"), scope="line", description="# nosec waiver")


@dataclass(frozen=True)
class DetectionRule:
    """One PatchitPy detection rule (optionally with patching logic).

    ``prerequisites`` are file-scope patterns that must *all* be present
    for the rule to apply — e.g. an XSS rule only fires in files that
    import a web framework.  ``guards`` veto individual matches.
    """

    rule_id: str
    cwe_id: str
    description: str
    pattern: "re.Pattern[str]"
    severity: Severity = Severity.MEDIUM
    confidence: Confidence = Confidence.HIGH
    patch: Optional[PatchTemplate] = None
    guards: Tuple[Guard, ...] = ()
    prerequisites: Tuple["re.Pattern[str]", ...] = ()
    message: str = ""

    @cached_property
    def literals(self) -> LiteralRequirements:
        """The literals every match must contain, from one parse of the pattern.

        Derived on first read and kept on the instance, so it pickles with
        the rule into pool processes and every :class:`RuleSet` holding
        the rule shares it: the candidate index reads the conjunction and
        groups, provenance reads the longest literal.
        """
        return literal_requirements(self.pattern)

    def applies_to(self, source: str) -> bool:
        """True when every file-scope prerequisite is satisfied."""
        return all(pattern.search(source) for pattern in self.prerequisites)

    def __post_init__(self) -> None:
        object.__setattr__(self, "cwe_id", normalize_cwe_id(self.cwe_id))
        if not self.rule_id:
            raise RuleError("rule_id must be non-empty")

    @property
    def owasp(self) -> Optional[OwaspCategory]:
        """OWASP Top 10:2021 category of the rule's CWE."""
        return owasp_category_for(self.cwe_id)

    @property
    def patchable(self) -> bool:
        """True when the rule carries a patch template."""
        return self.patch is not None

    def all_guards(self) -> Tuple[Guard, ...]:
        """Rule guards plus the implicit ``# nosec`` waiver guard."""
        return self.guards + (_NOSEC_GUARD,)


def rule(
    rule_id: str,
    cwe_id: str,
    description: str,
    pattern: str,
    *,
    severity: Severity = Severity.MEDIUM,
    confidence: Confidence = Confidence.HIGH,
    patch: Optional[PatchTemplate] = None,
    not_if: Sequence[str] = (),
    not_on_line: Sequence[str] = (),
    not_in_file: Sequence[str] = (),
    require_in_file: Sequence[str] = (),
    flags: int = 0,
    message: str = "",
) -> DetectionRule:
    """Terse constructor used by the rule catalog modules."""
    guards: List[Guard] = []
    for expr in not_if:
        guards.append(Guard(re.compile(expr, flags), scope="match"))
    for expr in not_on_line:
        guards.append(Guard(re.compile(expr, flags), scope="line"))
    for expr in not_in_file:
        guards.append(Guard(re.compile(expr, flags), scope="file"))
    return DetectionRule(
        rule_id=rule_id,
        cwe_id=cwe_id,
        description=description,
        pattern=re.compile(pattern, flags),
        severity=severity,
        confidence=confidence,
        patch=patch,
        guards=tuple(guards),
        prerequisites=tuple(re.compile(expr, flags) for expr in require_in_file),
        message=message or description,
    )


#: ``\{``, an optional zero-width guard, ``[^{}]+`` or ``[^{}]*``, ``\}``.
_FIELD_MARKER = re.compile(r"\\\{(?P<guard>.*)\[\^\{\}\](?P<count>[+*])\\\}")

#: One character of a string literal's line: not its quote, not a break.
_BODY_CHAR = r"(?!(?P=q))."


def literal_body(marker: str, *, pre: str = "", expr: str = "", post: str = "") -> str:
    """The body of a string literal that holds ``marker``, matched in linear time.

    The fragment goes between the pattern's opening ``(?P<q>['\\"])`` and
    its closing ``(?P=q)``.  It matches what
    ``(?:(?!(?P=q)).)*MARKER(?:(?!(?P=q)).)*`` matches, with the same
    span and the same split at the marker.  That spelling lets both
    repeats take the same characters, so it is quadratic when the literal
    never closes or what follows it fails.  The fragment keeps that
    spelling's two cases:

    - the marker lies inside the literal's line: the match splits at the
      last such marker, so the tail after it may not pass another one;
    - a field's expression runs past the closing quote or a line break
      (Python 3.12 f-strings nest quotes): only the line's last brace
      can, and the tail after it runs to the next quote, markers and all.

    ``marker`` is a field (``\\{``, an optional zero-width guard such as
    ``(?!\\s*escape\\()``, then ``[^{}]+`` or ``[^{}]*`` and ``\\}``) or a
    token that matches neither a quote nor a line break (``%[sdif]``).
    ``pre``, ``expr`` and ``post`` name groups for the text before the
    marker, the field's expression (or the token) and the text after it.
    A field adds the group ``crossed``, so the fragment goes into a
    pattern once, and the pattern must not set ``re.DOTALL``.
    """

    def group(name: str, body: str) -> str:
        return f"(?P<{name}>{body})" if name else f"(?:{body})"

    head = group(pre, f"(?:{_BODY_CHAR})*")
    field = _FIELD_MARKER.fullmatch(marker)
    if field is None:
        if marker.startswith(r"\{"):
            raise RuleError(f"not a field marker: {marker}")
        return head + group(expr, marker) + group(post, f"(?:(?!(?P=q)|{marker}).)*")
    guard, count = field.group("guard", "count")
    inline = r"(?:(?!(?P=q))[^{}\n])"  # an expression character on the line
    content = inline + r"*(?:(?P<crossed>(?P=q)|\n)[^{}]*)?"
    opening = r"\{" + guard + ("(?=[^{}])" if count == "+" else "")
    another = r"\{" + guard + inline + count + r"\}"  # a later field on the line
    tail = rf"(?(crossed)(?:{_BODY_CHAR})*|(?:(?!(?P=q)|{another}).)*)"
    return head + opening + group(expr, content) + r"\}" + group(post, tail)


class RuleSet:
    """An ordered, id-unique collection of detection rules."""

    def __init__(self, rules: Iterable[DetectionRule] = ()) -> None:
        self._rules: List[DetectionRule] = []
        self._by_id: Dict[str, DetectionRule] = {}
        self._index = None
        for item in rules:
            self.add(item)

    def add(self, item: DetectionRule) -> None:
        """Register one rule (duplicate ids raise)."""
        if item.rule_id in self._by_id:
            raise DuplicateRuleError(f"duplicate rule id: {item.rule_id}")
        self._by_id[item.rule_id] = item
        self._rules.append(item)
        self._index = None  # membership changed: rebuild on next lookup

    def candidate_index(self):
        """The set's candidate index, built on first use and cached.

        One multi-literal pass over a source through this index yields
        the exact candidate rule subset (see
        :mod:`repro.core.candidates`).  Adding rules invalidates the
        cache; a built index is plain data, so it travels with the set
        through pickling into worker processes.
        """
        if self._index is None:
            from repro.core.candidates import RuleIndex

            self._index = RuleIndex(self._rules)
        return self._index

    def extend(self, items: Iterable[DetectionRule]) -> None:
        """Register several rules."""
        for item in items:
            self.add(item)

    def get(self, rule_id: str) -> DetectionRule:
        """Fetch a rule by id (raises RuleError)."""
        try:
            return self._by_id[rule_id]
        except KeyError:
            raise RuleError(f"unknown rule id: {rule_id}") from None

    def by_cwe(self, cwe_id: str) -> List[DetectionRule]:
        """Rules labelled with the (normalized) CWE id."""
        normalized = normalize_cwe_id(cwe_id)
        return [r for r in self._rules if r.cwe_id == normalized]

    def by_owasp(self, category: OwaspCategory) -> List[DetectionRule]:
        """Rules whose CWE maps to the category."""
        return [r for r in self._rules if r.owasp is category]

    def cwes(self) -> Tuple[str, ...]:
        """Sorted distinct CWE ids across the set."""
        return tuple(sorted({r.cwe_id for r in self._rules}))

    def patchable(self) -> "RuleSet":
        return RuleSet(r for r in self._rules if r.patchable)

    def without(self, *rule_ids: str) -> "RuleSet":
        """Copy of the set without the given rule ids."""
        dropped = set(rule_ids)
        return RuleSet(r for r in self._rules if r.rule_id not in dropped)

    def subset(self, predicate: Callable[[DetectionRule], bool]) -> "RuleSet":
        """Copy of the set filtered by a predicate."""
        return RuleSet(r for r in self._rules if predicate(r))

    def fingerprint(self) -> str:
        """Stable SHA-256 digest of the rules' observable behavior.

        Two rule sets share a fingerprint exactly when they would produce
        the same findings and patches: rule order, ids, patterns, guards,
        prerequisites, severities and patch presence all contribute.  The
        persistent scan cache uses this to invalidate stored results when
        the catalog changes.
        """
        digest = hashlib.sha256()
        for item in self._rules:
            descriptor = (
                item.rule_id,
                item.cwe_id,
                item.pattern.pattern,
                item.pattern.flags,
                str(item.severity),
                str(item.confidence),
                item.patchable,
                item.message,
                tuple((g.pattern.pattern, g.pattern.flags, g.scope) for g in item.guards),
                tuple((p.pattern, p.flags) for p in item.prerequisites),
            )
            digest.update(repr(descriptor).encode("utf-8"))
        return digest.hexdigest()

    def __iter__(self) -> Iterator[DetectionRule]:
        return iter(self._rules)

    def __len__(self) -> int:
        return len(self._rules)

    def __contains__(self, rule_id: str) -> bool:
        return rule_id in self._by_id
