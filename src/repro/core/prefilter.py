"""Literal prefiltering for rule matching.

Production pattern scanners (Semgrep, ripgrep-based tooling) avoid
running every regex over every file by first checking for a literal
substring the regex *must* contain.  This module derives such required
literals from a compiled pattern by walking its parse tree
(:mod:`re._parser`):

- in a concatenation, every member's requirement holds — *all* literal
  runs are required (the conjunction keeps them all; the provenance
  literal is the longest);
- in a branch (alternation), a literal is required only if *every*
  alternative requires one — take the longest common substring of the
  alternatives' literals as a conservative bound (and only if all exist);
- quantifiers with ``min == 0`` contribute nothing.

The derivation is conservative: when in doubt it returns nothing and the
engine simply runs the regex.  A property test pins the safety condition:
prefiltered matching returns exactly the same findings.

:func:`literal_requirements` parses a pattern once, walks the tree once
and returns one :class:`LiteralRequirements` record.  Each
:class:`~repro.core.rules.base.DetectionRule` derives it on first read
and keeps it, so every consumer shares that one parse:

- ``conjunction`` — every useful literal as :class:`LiteralRequirement`
  records, including *case-folded* literals for ``IGNORECASE`` patterns
  (restricted to ASCII text, where ``str.lower()`` models the regex
  engine's case-insensitivity exactly).  The candidate index
  (:mod:`repro.core.candidates`) matches these in a single pass over
  each file.
- ``groups`` — disjunctions: for a branch whose every alternative
  guarantees a literal, one of those literals must appear.  This is what
  makes alternation-shaped rules (``(?:password|passwd|pwd)``) indexable
  at all.
- ``provenance`` — the single longest case-sensitive literal, which
  ``--explain``, SARIF and the HTML report print (``None`` for
  ``IGNORECASE`` patterns, which a case-sensitive substring check cannot
  model).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Tuple

try:  # Python 3.11+: re._parser; older: sre_parse
    from re import _parser as _sre_parse  # type: ignore[attr-defined]
except ImportError:  # pragma: no cover - legacy fallback
    import sre_parse as _sre_parse  # type: ignore[no-redef]

_MIN_USEFUL = 4  # conjunction literals shorter than this filter little
_GROUP_MIN = 3  # disjunction-group members may be slightly shorter


@dataclass(frozen=True)
class LiteralRequirement:
    """One substring every match of a pattern must contain.

    ``folded`` requirements hold *case-insensitively*: ``text`` is
    already lowercased and must be checked against a lowercased copy of
    the source.  Folded requirements are only emitted for ASCII literals,
    where ``str.lower()`` agrees exactly with the regex engine's
    ``IGNORECASE`` semantics (Unicode has one-to-many case mappings —
    ``'İ'.lower()`` grows a combining dot — that a substring check cannot
    model, so non-ASCII literals are conservatively dropped).
    """

    text: str
    folded: bool = False


def _walk(parsed, groups: List[Tuple[str, ...]]) -> List[str]:
    """Literal runs guaranteed to appear, for one parsed subpattern.

    Also appends *disjunction groups* to ``groups``: for a branch whose
    every alternative guarantees a literal, any match of the branch must
    contain at least one of those literals — an OR-requirement the
    candidate index can check even when the alternatives share no common
    substring.
    """
    runs: List[str] = []
    current: List[str] = []

    def flush() -> None:
        if current:
            runs.append("".join(current))
            current.clear()

    for op, argument in parsed:
        name = str(op)
        if name == "LITERAL":
            current.append(chr(argument))
            continue
        if name == "NOT_LITERAL" or name in ("ANY", "IN", "CATEGORY"):
            flush()
            continue
        if name in ("MAX_REPEAT", "MIN_REPEAT"):
            minimum, _maximum, sub = argument
            flush()
            if minimum >= 1:
                runs.extend(_walk(sub, groups))
            continue
        if name == "SUBPATTERN":
            sub = argument[-1]
            flush()
            runs.extend(_walk(sub, groups))
            continue
        if name == "BRANCH":
            # A literal run directly before the branch is contiguous with
            # whichever alternative matches — sre_parse factors shared
            # prefixes out ("password|passwd|pwd" parses as "p" +
            # "assword|asswd|wd"), so gluing it back onto literal-leading
            # alternatives recovers the full discriminating literals.
            prefix = "".join(current)
            flush()
            _, alternatives = argument
            candidates: List[str] = []
            for alternative in alternatives:
                # nested groups inside an alternative are not guaranteed
                # to be traversed, so they go to a throwaway sink
                options = _walk(alternative, [])
                lead = _leading_run(alternative)
                if prefix and lead:
                    options.append(prefix + lead)
                longest = _longest(options)
                if longest is None:
                    candidates = []
                    break
                candidates.append(longest)
            if candidates:
                groups.append(tuple(candidates))
                # the only *single* text guaranteed across every
                # alternative is a common substring of their literals
                common = candidates[0]
                for candidate in candidates[1:]:
                    common = _longest_common_substring(common, candidate)
                    if not common:
                        break
                if common:
                    runs.append(common)
            continue
        if name in ("AT", "ASSERT", "ASSERT_NOT", "GROUPREF", "GROUPREF_EXISTS"):
            flush()
            continue
        flush()
    flush()
    return [r for r in runs if r]


def _leading_run(parsed) -> str:
    """The literal run a subpattern starts with ('' when it doesn't)."""
    chars: List[str] = []
    for op, argument in parsed:
        if str(op) != "LITERAL":
            break
        chars.append(chr(argument))
    return "".join(chars)


def _longest(literals: List[str]) -> Optional[str]:
    if not literals:
        return None
    return max(literals, key=len)


def _longest_common_substring(a: str, b: str) -> str:
    """Longest contiguous substring shared by ``a`` and ``b``.

    Standard O(len(a)·len(b)) dynamic program over match-run lengths
    (the previous implementation probed every substring of ``a`` against
    ``b`` and went roughly cubic on adversarial inputs).  Ties resolve to
    the earliest occurrence in ``a``, matching the old behavior.
    """
    if not a or not b:
        return ""
    previous = [0] * (len(b) + 1)
    best_length = 0
    best_end = 0
    for i, char_a in enumerate(a, start=1):
        current = [0] * (len(b) + 1)
        for j, char_b in enumerate(b, start=1):
            if char_a == char_b:
                length = previous[j - 1] + 1
                current[j] = length
                if length > best_length:
                    best_length = length
                    best_end = i
        previous = current
    return a[best_end - best_length : best_end]


def _parse(pattern: "re.Pattern[str]"):
    """The pattern's parse tree, or ``None`` for unmodelled patterns."""
    if pattern.flags & re.LOCALE:
        return None
    try:
        return _sre_parse.parse(pattern.pattern, pattern.flags & ~re.UNICODE)
    except Exception:
        return None


@dataclass(frozen=True)
class LiteralRequirements:
    """Everything the literal walk guarantees about one pattern's matches.

    ``conjunction`` — a match must contain *all* of these literals.
    Runs shorter than the usefulness floor are dropped, as are runs that
    are substrings of a longer sibling (their presence is implied).

    ``groups`` — each group lists literals of which *one* must appear:
    derived from branches on the pattern's guaranteed path whose every
    alternative carries a literal, because a match necessarily takes
    one alternative and therefore contains that alternative's literal.
    This covers alternation-shaped rules (``(?:password|passwd|pwd)``,
    ``os\\.(?:execl|execv|spawnl)``) whose alternatives share no useful
    common substring, so without groups they would run on every file.
    A group is dropped whole when any member falls below the usefulness
    floor or, for ``IGNORECASE`` patterns, is non-ASCII (the fold would
    be unsound for that member, making the OR-check unable to vouch for
    its matches).

    ``provenance`` — the longest case-sensitive run of at least
    ``_MIN_USEFUL`` characters, the first in walk order on a tie.
    ``None`` for ``IGNORECASE`` patterns and when no such run exists.
    Provenance data only: matching selects rules through the candidate
    index.
    """

    conjunction: Tuple[LiteralRequirement, ...] = ()
    groups: Tuple[Tuple[LiteralRequirement, ...], ...] = ()
    provenance: Optional[str] = None


def literal_requirements(pattern: "re.Pattern[str]") -> LiteralRequirements:
    """The literals every match of ``pattern`` must contain, from one parse.

    ``IGNORECASE`` patterns get lowercased ``folded`` requirements for
    their ASCII literal runs.  A pattern the walker does not model
    (``LOCALE``, or one the parser rejects) requires nothing.
    """
    parsed = _parse(pattern)
    if parsed is None:
        return LiteralRequirements()
    folded = bool(pattern.flags & re.IGNORECASE)
    raw_groups: List[Tuple[str, ...]] = []
    useful = [r for r in _walk(parsed, raw_groups) if len(r) >= _MIN_USEFUL]
    provenance = None if folded else _longest(useful)
    if folded:
        useful = [r.lower() for r in useful if r.isascii()]
    # Deduplicate and drop substring-redundant runs, longest first so a
    # kept literal can only be shadowed by an already-kept longer one.
    kept: List[str] = []
    for run in sorted(set(useful), key=lambda r: (-len(r), r)):
        if not any(run in longer for longer in kept):
            kept.append(run)

    groups: List[Tuple[LiteralRequirement, ...]] = []
    for group in raw_groups:
        members = list(group)
        if any(len(member) < _GROUP_MIN for member in members):
            continue
        if folded:
            if not all(member.isascii() for member in members):
                continue
            members = [member.lower() for member in members]
        ordered = sorted(set(members), key=lambda m: (-len(m), m))
        groups.append(
            tuple(LiteralRequirement(text=member, folded=folded) for member in ordered)
        )
    return LiteralRequirements(
        conjunction=tuple(LiteralRequirement(text=run, folded=folded) for run in kept),
        groups=tuple(groups),
        provenance=provenance,
    )
