"""Grouped-alternation compilation for candidate rule sets.

The candidate index (:mod:`repro.core.candidates`) cuts a clean file to a
handful of candidate rules, but each survivor still pays its own
``rule.pattern.finditer(source)`` pass plus prerequisite checks — on the
warm single-file path that per-candidate dispatch is most of what is
left.  This module merges a candidate set's patterns into one combined
regex per flags bucket so one C pass answers the question the per-rule
loop was asking rule by rule: *does any candidate match at all?*

Each bucket is compiled twice from the same member bodies.  The hot
path runs the **probe** form — ``(?:pat0)|(?:pat1)|...`` — because
CPython's sre engine only threads its literal-prefix/charset scan
optimizations through non-capturing constructs; wrapping the branches
in capturing groups instead makes the very same alternation scan an
order of magnitude slower.  The **named** form
(``(?P<pg0>pat0)|(?P<pg1>pat1)|...``) exists purely so a bucket hit can
be attributed back to a rule id for observability, and is only searched
on the (rare) hit path.

Soundness rests on exact alternation semantics: ``A|B`` has a match in a
text iff ``A`` has one or ``B`` has one.  So when a bucket's combined
regex finds **no** match, every member rule is proven matchless and is
cleared without running — no regex, no prerequisite search, no guard
machinery.  When the combined regex **does** find a match, member rules
fall back to ordinary per-rule dispatch: group alternation changes
backtracking order (group priority, overlapping alternatives), so the
grouped match itself is never turned into findings.  Clean-heavy
workloads take the cleared path almost always; finding-dense files pay
one extra scan and then run exactly the code they always ran.  Either
way the finding set is byte-identical to per-rule dispatch, which the
corpus-wide equivalence tests pin.

Patterns that cannot be embedded in an alternation at all stay on
per-rule dispatch permanently:

- *numeric* backreferences and conditionals (``\\1``, ``(?(1)...)``) —
  group renumbering inside the combined pattern would change their
  meaning.  Named groups and named refs (``(?P=name)``) merge fine:
  each member's names are alpha-renamed with a unique ``_pg<i>``
  suffix, so refs re-resolve and cross-member collisions vanish;
- global inline flags (``(?i)`` outside a scoped group) — they would
  leak onto every other alternative (and are positional errors on
  modern Pythons anyway);
- anything whose rename cannot be verified faithful (group tokens
  hiding in character classes, parser/text disagreements) — fallback,
  never fast-and-wrong.

Compiled groups are memoized per candidate mask in a bounded LRU
(:class:`GroupedCache`, one per rule index, so the mask alone names a
candidate set): distinct sources collapse onto a small number of masks,
so a warm engine compiles each combined regex once and reuses it for
every later file.  The cache is plain data apart from its lock, so a
primed cache pickles with the rule index into ``ProcessPoolExecutor``
workers and the scan daemon's warm engine.

This module is deliberately stdlib-only (``scripts/check_hot_path_isolation.py``
enforces it): it sits on the untraced hot path and must never drag
observability — or any other repro machinery — into the match loop.
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

try:  # Python 3.11+: re._parser; older: sre_parse
    from re import _parser as _sre_parse  # type: ignore[attr-defined]
except ImportError:  # pragma: no cover - legacy fallback
    import sre_parse as _sre_parse  # type: ignore[no-redef]

__all__ = [
    "GroupedAlternation",
    "GroupedCache",
    "build_grouped",
    "mergeable",
]

# Synthetic wrapper-group prefix.  Member group names are suffixed with
# "_pg<position>" to keep them unique inside the combined pattern, and
# the wrappers themselves are named "pg<position>"; member patterns
# whose own names could collide with either scheme are (conservatively)
# sent to per-rule fallback.
_GROUP_PREFIX = "pg"

_GROUPREF_OPS = frozenset(["GROUPREF", "GROUPREF_EXISTS"])

_GROUP_DEF = re.compile(r"\(\?P<([A-Za-z_]\w*)>")
_GROUP_REF = re.compile(r"\(\?P=([A-Za-z_]\w*)\)")
_COND_REF = re.compile(r"\(\?\(([A-Za-z_]\w*)\)")
_COND_NUMERIC = re.compile(r"\(\?\(\d")
# Global inline flags — "(?i)" with no colon.  At the start of a lone
# pattern they just fold into pattern.flags (so the parser-state check
# below cannot see them), but inside an alternation branch they are a
# positional error on modern Pythons and would poison the whole bucket
# at combine time; a textual match (possible false positives inside
# character classes included — fallback is always safe) rejects them.
_GLOBAL_FLAGS = re.compile(r"\(\?[aiLmsux-]+\)")


def _count_grouprefs(parsed) -> int:
    """Number of backreference-like nodes in the parse tree."""
    count = 0
    stack = [parsed]
    while stack:
        node = stack.pop()
        for op, argument in node:
            name = str(op)
            if name in _GROUPREF_OPS:
                count += 1
            elif name in ("MAX_REPEAT", "MIN_REPEAT", "POSSESSIVE_REPEAT"):
                stack.append(argument[2])
            elif name == "SUBPATTERN":
                stack.append(argument[-1])
            elif name == "BRANCH":
                stack.extend(argument[1])
            elif name in ("ASSERT", "ASSERT_NOT"):
                stack.append(argument[1])
            elif name == "ATOMIC_GROUP":
                stack.append(argument)
    return count


def _has_numeric_backref(text: str) -> bool:
    """True when the pattern text contains ``\\1``-style numeric refs.

    A character walk (not a regex) so escaped backslashes are tokenized
    correctly: ``\\\\1`` is a literal backslash followed by the digit 1,
    not a backreference.
    """
    if _COND_NUMERIC.search(text):
        return True
    i = 0
    length = len(text)
    while i < length - 1:
        if text[i] == "\\":
            if text[i + 1] in "123456789":
                return True
            i += 2
        else:
            i += 1
    return False


def mergeable(pattern: "re.Pattern[str]") -> bool:
    """True when ``pattern`` can be embedded in a combined alternation.

    Rejects patterns with *numeric* backreferences or conditionals
    (``\\1``, ``(?(1)...)`` — renumbering inside the combined pattern
    would change their meaning; named refs re-resolve by name and merge
    fine once renamed), global inline flags (they would leak onto the
    other alternatives), group names that clash with the synthetic
    naming scheme, and anything :mod:`re`'s own parser cannot model.
    """
    names = tuple(pattern.groupindex)
    if any(name.startswith(_GROUP_PREFIX) or "_pg" in name for name in names):
        return False
    try:
        parsed = _sre_parse.parse(pattern.pattern, pattern.flags & ~re.UNICODE)
    except Exception:
        return False
    # Inline global flags surface as extra bits on the parser state
    # beyond what the compile call passed; scoped (?i:...) groups do not.
    state_flags = getattr(getattr(parsed, "state", None), "flags", None)
    if state_flags is not None and state_flags & ~(pattern.flags | re.UNICODE):
        return False
    text = pattern.pattern
    if _GLOBAL_FLAGS.search(text):
        return False
    if _has_numeric_backref(text):
        return False
    refs = _count_grouprefs(parsed)
    if refs:
        # Every backreference node must correspond to a textual named
        # ref so the rename below is a faithful alpha-conversion; a
        # mismatch means a ref token hides somewhere the rename cannot
        # reach (or a fake one sits inside a character class).
        textual = len(_GROUP_REF.findall(text)) + len(_COND_REF.findall(text))
        if textual != refs:
            return False
    # Group definitions must all be textual (?P<name> tokens, exactly
    # one per registered name — no extras lurking in character classes.
    defs = _GROUP_DEF.findall(text)
    if len(defs) != len(names) or set(defs) != set(names):
        return False
    return True


def _rename_groups(text: str, names, suffix: str) -> Optional[str]:
    """Alpha-rename every named group (defs, refs, conditionals).

    Returns ``None`` when a referenced name is unknown — the caller
    sends such members to per-rule fallback instead of guessing.
    """
    known = set(names)
    bad: List[bool] = []

    def _rename_def(match: "re.Match[str]") -> str:
        return f"(?P<{match.group(1)}{suffix}>"

    def _rename_ref(match: "re.Match[str]") -> str:
        if match.group(1) not in known:
            bad.append(True)
            return match.group(0)
        return f"(?P={match.group(1)}{suffix})"

    def _rename_cond(match: "re.Match[str]") -> str:
        if match.group(1) not in known:
            bad.append(True)
            return match.group(0)
        return f"(?({match.group(1)}{suffix})"

    renamed = _GROUP_DEF.sub(_rename_def, text)
    renamed = _GROUP_REF.sub(_rename_ref, renamed)
    renamed = _COND_REF.sub(_rename_cond, renamed)
    if bad:
        return None
    return renamed


class _Bucket:
    """One combined alternation covering the member rules (shared flags).

    Two compilations of the same alternation: ``probe`` wraps members in
    *non-capturing* groups and answers the hot-path existence question —
    CPython's sre only threads its prefix/charset scan optimizations
    through non-capturing constructs, and the capturing variant scans
    an order of magnitude slower.  ``combined`` wraps the same members
    in named ``pg<i>`` groups and is consulted only on the (rare) hit
    path to attribute the first match back to its rule.
    """

    __slots__ = ("probe", "combined", "members", "group_to_rule")

    def __init__(
        self,
        probe: "re.Pattern[str]",
        combined: "re.Pattern[str]",
        members: Tuple[Tuple[int, object], ...],
        group_to_rule: Dict[str, str],
    ) -> None:
        self.probe = probe
        self.combined = combined
        self.members = members  # ((catalog_position, rule), ...)
        self.group_to_rule = group_to_rule  # synthetic name -> rule_id

    def __getstate__(self):
        return (self.probe, self.combined, self.members, self.group_to_rule)

    def __setstate__(self, state):
        self.probe, self.combined, self.members, self.group_to_rule = state

    def attribute(self, source: str) -> Optional[str]:
        """rule_id of the first combined match (observability only)."""
        match = self.combined.search(source)
        if match is None:  # pragma: no cover - probe already matched
            return None
        for group, rule_id in self.group_to_rule.items():
            if match.group(group) is not None:
                return rule_id
        return None  # pragma: no cover - some wrapper always matched


class GroupedAlternation:
    """Grouped dispatch plan for one candidate rule set.

    ``buckets`` hold the merged rules (one combined regex per distinct
    ``pattern.flags`` value); ``fallback`` holds the unmergeable rules,
    which always run per-rule.  :meth:`plan` evaluates the buckets
    against a source and returns exactly the rules per-rule dispatch
    must still execute, in catalog order.
    """

    __slots__ = ("buckets", "fallback", "_fallback_rules")

    def __init__(
        self,
        buckets: Tuple[_Bucket, ...],
        fallback: Tuple[Tuple[int, object], ...],
    ) -> None:
        self.buckets = buckets
        self.fallback = fallback
        self._fallback_rules = tuple(rule for _, rule in fallback)

    def __getstate__(self):
        return (self.buckets, self.fallback)

    def __setstate__(self, state):
        self.buckets, self.fallback = state
        self._fallback_rules = tuple(rule for _, rule in self.fallback)

    @property
    def grouped_rules(self) -> Tuple[object, ...]:
        """Every rule covered by a combined regex, in catalog order."""
        pairs = [pair for bucket in self.buckets for pair in bucket.members]
        pairs.sort(key=lambda pair: pair[0])
        return tuple(rule for _, rule in pairs)

    @property
    def fallback_rules(self) -> Tuple[object, ...]:
        """Rules that always take per-rule dispatch."""
        return self._fallback_rules

    def plan(self, source: str) -> Tuple[List[object], int, Optional[str]]:
        """``(dispatch, cleared, first_hit_rule_id)`` for one source.

        ``dispatch`` lists the rules per-rule matching must still run —
        the unmergeable fallbacks plus every member of a bucket whose
        combined regex found a match.  ``cleared`` counts rules proven
        matchless by a bucket with no match.  ``first_hit_rule_id``
        attributes the first combined hit to its rule (observability
        only; it plays no part in the finding set).
        """
        live: Optional[List[Tuple[int, object]]] = None
        cleared = 0
        hit_rule: Optional[str] = None
        for bucket in self.buckets:
            if bucket.probe.search(source) is None:
                cleared += len(bucket.members)
                continue
            if live is None:
                live = list(self.fallback)
            live.extend(bucket.members)
            if hit_rule is None:
                # The fast probe carries no capture groups; re-search
                # with the named variant (hit path only) to attribute.
                hit_rule = bucket.attribute(source)
        if live is None:
            return list(self._fallback_rules), cleared, None
        live.sort(key=lambda pair: pair[0])
        return [rule for _, rule in live], cleared, hit_rule

    def dispatch(self, source: str) -> List[object]:
        """The rules per-rule matching must run for ``source``."""
        return self.plan(source)[0]

    def describe(self) -> Dict[str, int]:
        """Size counters for benchmarks and reports."""
        return {
            "buckets": len(self.buckets),
            "grouped": sum(len(bucket.members) for bucket in self.buckets),
            "fallback": len(self.fallback),
        }


def build_grouped(rules: Sequence[object]) -> GroupedAlternation:
    """Compile a :class:`GroupedAlternation` for ``rules`` (catalog order).

    Rules are bucketed by ``pattern.flags`` (a combined regex can only
    carry one flag set); within a bucket each member is wrapped in a
    non-capturing group for the hot-path probe and in a synthetic named
    group for the attribution variant, and the member's own named
    groups are alpha-renamed with a per-member ``_pg<position>`` suffix — named
    backreferences re-resolve against the renamed definitions, and two
    members that both call a group ``q`` no longer collide.  A member
    whose rename cannot be verified faithful (or whose renamed pattern
    does not compile on its own) is pushed to per-rule fallback, as is
    anything :func:`mergeable` rejects.  A bucket whose combined
    pattern still fails to compile falls back whole — conservative,
    never fast-and-wrong.
    """
    by_flags: "OrderedDict[int, List[Tuple[int, object]]]" = OrderedDict()
    fallback: List[Tuple[int, object]] = []
    for position, rule in enumerate(rules):
        pattern = rule.pattern
        if mergeable(pattern):
            by_flags.setdefault(pattern.flags, []).append((position, rule))
        else:
            fallback.append((position, rule))
    buckets: List[_Bucket] = []
    for flags, members in by_flags.items():
        placed: List[Tuple[int, object]] = []
        parts: List[str] = []
        probe_parts: List[str] = []
        group_to_rule: Dict[str, str] = {}
        for position, rule in members:
            pattern = rule.pattern
            body = pattern.pattern
            if pattern.groupindex:
                renamed = _rename_groups(
                    body, pattern.groupindex, f"_pg{position}"
                )
                if renamed is None:
                    fallback.append((position, rule))
                    continue
                try:  # the rename must stand alone before it joins others
                    re.compile(renamed, flags)
                except re.error:
                    fallback.append((position, rule))
                    continue
                body = renamed
            group = f"{_GROUP_PREFIX}{position}"
            probe_parts.append(f"(?:{body})")
            parts.append(f"(?P<{group}>{body})")
            group_to_rule[group] = rule.rule_id
            placed.append((position, rule))
        if not placed:
            continue
        try:
            probe = re.compile("|".join(probe_parts), flags)
            combined = re.compile("|".join(parts), flags)
        except re.error:
            # Something about these patterns resists combination after
            # all; run them per-rule rather than guess.
            fallback.extend(placed)
            continue
        buckets.append(_Bucket(probe, combined, tuple(placed), group_to_rule))
    fallback.sort(key=lambda pair: pair[0])
    return GroupedAlternation(tuple(buckets), tuple(fallback))


class GroupedCache:
    """Bounded LRU of :class:`GroupedAlternation` per candidate mask.

    Candidate masks repeat heavily across real sources (most clean files
    select one of a handful of candidate sets), so a small LRU turns
    grouped compilation into a one-time cost per distinct mask.  The
    cache is thread-safe (the scan daemon serves detects from a thread
    pool) and pickle-safe minus the lock, which is recreated on
    unpickling — a primed cache ships to worker processes and keeps its
    compiled entries.  A mask is a bitset over one catalog's positions,
    so each rule index owns its own cache.
    """

    def __init__(self, maxsize: int = 128) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self._entries: "OrderedDict[int, GroupedAlternation]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __getstate__(self):
        with self._lock:
            return {
                "maxsize": self.maxsize,
                "entries": list(self._entries.items()),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def __setstate__(self, state):
        self.maxsize = state["maxsize"]
        self._entries = OrderedDict(state["entries"])
        self._lock = threading.Lock()
        self.hits = state["hits"]
        self.misses = state["misses"]
        self.evictions = state["evictions"]

    def get_or_build(self, mask: int, rules: Sequence[object]) -> GroupedAlternation:
        """The grouped plan for one candidate set, compiled at most once."""
        with self._lock:
            entry = self._entries.get(mask)
            if entry is not None:
                self._entries.move_to_end(mask)
                self.hits += 1
                return entry
        # Compile outside the lock: regex compilation can be slow and
        # concurrent builders at worst duplicate work, never corrupt.
        built = build_grouped(rules)
        with self._lock:
            existing = self._entries.get(mask)
            if existing is not None:
                self.hits += 1
                return existing
            self.misses += 1
            self._entries[mask] = built
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1
        return built

    def stats(self) -> Dict[str, int]:
        """Hit/miss/eviction counters plus the current size."""
        with self._lock:
            return {
                "size": len(self._entries),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
