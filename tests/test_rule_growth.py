"""Six default rules that used to backtrack on an unclosed call.

``PIT-A02-05``, ``PIT-A08-01``, ``PIT-A08-02`` and ``PIT-A03-09`` each
had three adjacent repeats that could match the same spaces (``\\s*``, a
negated class that also takes whitespace, and ``\\s*`` or a second copy
of the class), so ``"pickle.loads(" + " " * n`` — a half-written call,
the engine's everyday input — took O(n³) before failing.
``PIT-A03-11`` and ``PIT-A08-06`` had two (``\\s*`` and the negated
class that opens the group), so they took O(n²).  Each rewrite opens
the group with a class that excludes whitespace and keeps every match:
the property below holds each catalog pattern to the old one, spans and
named groups, on text built from the characters that decide those
patterns.  The growth test times n and 4n and asserts near-linear growth
rather than a wall-clock cap.
"""

from __future__ import annotations

import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rules import default_ruleset

#: rule id -> (call prefix, the pattern before the rewrite)
OLD = {
    "PIT-A02-05": (
        "crypt.crypt(",
        r"crypt\.crypt\(\s*(?P<pwd>[^(),]+)\s*(?:,\s*[^()]+)?\)",
    ),
    "PIT-A08-01": (
        "pickle.loads(",
        r"pickle\.loads\(\s*(?P<arg>[^()]*(?:\([^()]*\))?[^()]*)\)",
    ),
    "PIT-A08-02": (
        "pickle.load(",
        r"pickle\.load\(\s*(?P<arg>[^()]*(?:\([^()]*\))?[^()]*)\)",
    ),
    "PIT-A03-09": (
        "os.popen(",
        r"os\.popen\(\s*(?P<cmd>[^()]+)\s*\)",
    ),
    "PIT-A03-11": (
        "eval(",
        r"(?<![\w.])eval\(\s*(?P<expr>[^()]*(?:\([^()]*\)[^()]*)*)\)",
    ),
    "PIT-A08-06": (
        "yaml.load(",
        r"yaml\.load\(\s*(?P<args>[^()]*(?:\([^()]*\)[^()]*)*)\)",
    ),
}

RULES = default_ruleset()
TAIL = st.text(alphabet="(), \t\na'", max_size=24)


def _matches(pattern, text):
    return [(m.span(), m.groupdict()) for m in pattern.finditer(text)]


@pytest.mark.parametrize("rule_id", sorted(OLD))
@settings(max_examples=300, deadline=None)
@given(head=TAIL, tail=TAIL)
def test_rewrite_matches_what_the_old_pattern_matched(rule_id, head, tail):
    prefix, old = OLD[rule_id]
    rule = RULES.get(rule_id)
    text = head + prefix + tail
    assert _matches(rule.pattern, text) == _matches(re.compile(old, rule.pattern.flags), text)


def _best_of_5(pattern, text):
    best = float("inf")
    for _ in range(5):
        started = time.perf_counter()
        pattern.search(text)
        best = min(best, time.perf_counter() - started)
    return best


@pytest.mark.parametrize("rule_id", sorted(OLD))
def test_an_unclosed_call_grows_linearly(rule_id):
    """4x the input may cost about 4x (linear), never 16x (quadratic).

    The sizes climb in 4x steps up to n = 4,096 and 4n, so a
    super-linear pattern fails at its first small step instead of
    running for minutes at the last one.
    """
    prefix, _old = OLD[rule_id]
    pattern = RULES.get(rule_id).pattern
    sizes = (64, 256, 1024, 4096, 16384)
    times = [_best_of_5(pattern, prefix + " " * sizes[0])]
    for size in sizes[1:]:
        times.append(_best_of_5(pattern, prefix + " " * size))
        assert times[-1] / times[-2] < 8, (rule_id, dict(zip(sizes, times)))
