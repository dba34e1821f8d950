"""Rules that used to backtrack, held to their old patterns and to linear growth.

``PIT-A02-05``, ``PIT-A08-01``, ``PIT-A08-02`` and ``PIT-A03-09`` each
had three adjacent repeats that could match the same spaces (``\\s*``, a
negated class that also takes whitespace, and ``\\s*`` or a second copy
of the class), so ``"pickle.loads(" + " " * n`` — a half-written call,
the engine's everyday input — took O(n³) before failing.
``PIT-A03-11``, ``PIT-A08-06`` and ``PIT-A03-18``'s ``pre`` had two
(``\\s*`` and the negated class that opens the group), so they took
O(n²).  Each rewrite opens the group with a class that excludes
whitespace.

Ten rules spelled a string literal's body as
``(?:(?!(?P=q)).)*MARKER(?:(?!(?P=q)).)*``: when the literal never
closes, or what follows it fails, the two repeats share every character
and the match is O(n²).  They now build it with
:func:`~repro.core.rules.base.literal_body`.

The property holds each catalog pattern to the old one in ``OLD``, spans
and the old pattern's named groups, on text built from the characters
that decide those patterns.  The growth tests time n and 4n and assert
near-linear growth rather than a wall-clock cap: every rule that opens
a string literal with ``(?P<q>...)`` on an unclosed literal, and on a
closed one whose suffix fails.
"""

from __future__ import annotations

import re
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.rules.registry import full_catalog

_EXEC = r"(?P<call>\b[A-Za-z_][\w.]*\.execute(?:many|script)?)"
_BODY = r"(?:(?!(?P=q)).)*"

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
    "PIT-A01-01": (
        "open(",
        r"open\(\s*f(?P<q>['\"])(?P<pre>" + _BODY + r")\{(?P<expr>[^{}]+)\}(?P<post>"
        + _BODY + r")(?P=q)",
    ),
    "PIT-A03-01": (
        "cursor.execute(",
        _EXEC + r"\(\s*f(?P<q>['\"])(?P<sql>" + _BODY + r"\{[^{}]+\}" + _BODY
        + r")(?P=q)\s*\)",
    ),
    "PIT-A03-02": (
        "cursor.execute(",
        _EXEC + r"\(\s*(?P<q>['\"])(?P<sql>" + _BODY + r"%[sdif]" + _BODY
        + r")(?P=q)\s*%\s*(?P<operand>\([^()]*\)|[A-Za-z_][\w.\[\]'\"()]*)\s*\)",
    ),
    "PIT-A03-03": (
        "cursor.execute(",
        _EXEC + r"\(\s*(?P<q>['\"])(?P<sql>" + _BODY + r"\{[^{}]*\}" + _BODY
        + r")(?P=q)\s*\.format\(\s*(?P<args>[^()]*)\)\s*\)",
    ),
    "PIT-A03-05": (
        "text(",
        r"\btext\(\s*f(?P<q>['\"])" + _BODY + r"\{[^{}]+\}" + _BODY + r"(?P=q)\s*\)",
    ),
    "PIT-A03-13": (
        "return ",
        r"return\s+f(?P<q>['\"])" + _BODY + r"\{(?!\s*escape\()[^{}]+\}" + _BODY
        + r"(?P=q)",
    ),
    "PIT-A03-14": (
        "make_response(",
        r"make_response\(\s*f(?P<q>['\"])" + _BODY + r"\{(?!\s*escape\()[^{}]+\}"
        + _BODY + r"(?P=q)\s*\)",
    ),
    "PIT-A03-18": (
        "conn.search_s(",
        r"(?P<call>\b[\w.]*\.search(?:_s|_ext_s)?)\(\s*(?P<pre>[^)]*?)f(?P<q>['\"])"
        r"(?P<body>" + _BODY + r"\{[^{}]+\}" + _BODY + r")(?P=q)",
    ),
    "PIT-A03-19": (
        "tree.xpath(",
        r"(?P<call>\b[\w.]*\.xpath)\(\s*f(?P<q>['\"])(?P<body>" + _BODY + r"\{[^{}]+\}"
        + _BODY + r")(?P=q)\s*\)",
    ),
    "PIT-A03-21": (
        "logging.info(",
        r"(?P<call>\b(?:logging|logger|log)\.(?:info|warning|error|debug|critical))"
        r"\(\s*f(?P<q>['\"])(?P<body>" + _BODY + r"\{[^{}]+\}" + _BODY
        + r")(?P=q)\s*\)",
    ),
}

RULES = full_catalog()

#: What follows an unclosed call.
CALL_TAIL = st.text(alphabet="(), \t\na'", max_size=24)

#: Stand-ins for what a literal may hold: "A" a field, "B" and "C" fields
#: whose expression holds a quote or a line break, "E" an escaped field,
#: "P" an empty one and "S" a %-placeholder.
STAND_INS = {"A": "{a}", "B": '{a["k"]}', "C": "{a\n}", "E": "{escape(a)}", "P": "{}", "S": "%s"}


def _expand(text):
    for stand_in, piece in STAND_INS.items():
        text = text.replace(stand_in, piece)
    return text


#: Text in and around a string literal: both quotes, braces, the
#: %-placeholders, a line break, a backslash, parentheses, "+", ".",
#: spaces, and the stand-ins.
TEXT = st.text(alphabet="'\"{}%sdif\n\\()+., \taz" + "".join(STAND_INS), max_size=12).map(_expand)
#: Before the opening quote: an f-string or not, after an argument or not.
OPENINGS = ("f", "", " f", "x, f")
#: After the literal: each rule's suffix, and ones that fail.
ENDINGS = ("", ")", " )", " % x)", " % (a, b))", ".format(a))", " + z)", "\n)")

#: Bodies that pin the idiom's corners: a field whose expression runs
#: past the closing quote (Python 3.12 f-strings) or past a line break,
#: an escaped field, and (with the " + z)" ending) a literal whose suffix
#: fails.
CORNERS = (
    'SELECT * FROM t WHERE id={row["id"]}',
    '/d/{a["k"]}/x/{b}.txt',
    "/d/{a\n}/x/{b}.txt",
    "<p>{name} {escape(x)}</p>",
    "{a} %s {} ",
)


def _matches(pattern, text, names):
    return [(m.span(), [m.group(name) for name in names]) for m in pattern.finditer(text)]


def _agree(rule_id, head, tails):
    """The rule and its old pattern agree after ``head`` on each tail."""
    prefix, old = OLD[rule_id]
    pattern = RULES.get(rule_id).pattern
    old_pattern = re.compile(old, pattern.flags)
    names = list(old_pattern.groupindex)
    for tail in tails:
        text = head + prefix + tail
        assert _matches(pattern, text, names) == _matches(old_pattern, text, names)


CALLS = sorted(rule_id for rule_id, (_, old) in OLD.items() if "(?P<q>" not in old)
LITERAL_RULES = sorted(set(OLD) - set(CALLS))


@pytest.mark.parametrize("rule_id", CALLS)
@settings(max_examples=300, deadline=None)
@given(head=CALL_TAIL, tail=CALL_TAIL)
def test_rewrite_matches_what_the_old_pattern_matched(rule_id, head, tail):
    _agree(rule_id, head, [tail])


def _at_the_corners(test):
    for body in CORNERS:
        test = example(head="", body=body, rest="")(test)
    return test


@pytest.mark.parametrize("rule_id", LITERAL_RULES)
@settings(max_examples=150, deadline=None)
@_at_the_corners
@given(head=TEXT, body=TEXT, rest=TEXT)
def test_literal_body_matches_what_the_old_pattern_matched(rule_id, head, body, rest):
    """``body`` in either quote, behind each opening, closed or not,
    before each ending."""
    tails = [
        opening + quote + body + closing + ending + rest
        for quote in "'\""
        for opening in OPENINGS
        for closing in (quote, "")
        for ending in ENDINGS
    ]
    _agree(rule_id, head, tails)


def test_a_field_may_run_past_the_end_of_its_line():
    opened = RULES.get("PIT-A01-01").pattern.search('open(f"/d/{a["k"]}/x/{b}.txt")')
    assert opened.group("pre", "expr", "post") == ("/d/", 'a["k"]', "/x/{b}.txt")
    query = 'cursor.execute(f"SELECT * FROM t WHERE id={row["id"]}")'
    assert RULES.get("PIT-A03-01").pattern.fullmatch(query)
    assert RULES.get("PIT-A03-13").pattern.search('return f"<p>{a\n}</p>"')


def _best_of_5(pattern, text):
    best = float("inf")
    for _ in range(5):
        started = time.perf_counter()
        pattern.search(text)
        best = min(best, time.perf_counter() - started)
    return best


def _grows_linearly(rule_id, make):
    """4x the input may cost about 4x (linear), never 16x (quadratic).

    The sizes climb in 4x steps from 64 to 16,384 characters, so a
    super-linear pattern fails at its first small step instead of
    running for minutes at the last one.
    """
    pattern = RULES.get(rule_id).pattern
    sizes = (64, 256, 1024, 4096, 16384)
    times = [_best_of_5(pattern, make(sizes[0]))]
    for size in sizes[1:]:
        times.append(_best_of_5(pattern, make(size)))
        assert times[-1] / times[-2] < 8, (rule_id, dict(zip(sizes, times)))


@pytest.mark.parametrize("rule_id", sorted(CALLS + ["PIT-A03-18"]))
def test_an_unclosed_call_grows_linearly(rule_id):
    """The call prefix of an ``OLD`` row and n spaces."""
    prefix = OLD[rule_id][0]
    _grows_linearly(rule_id, lambda size: prefix + " " * size)


#: rule id -> (the call up to its opening quote, the pumped unit, a
#: closing quote and a suffix the rule rejects, or None when the rule
#: ends at the closing quote)
LITERALS = {
    "PIT-A01-01": ('open(f"', "{a} ", None),
    "PIT-A02-03": ('hashlib.new("', "md5 ", None),
    "PIT-A02-16": ('requests.post("http://', "{a} ", '" + z)'),
    "PIT-A03-01": ('cursor.execute(f"', "{a} ", '" + z)'),
    "PIT-A03-02": ('cursor.execute("', "%s ", '" + z)'),
    "PIT-A03-03": ('cursor.execute("', "{} ", '" + z)'),
    "PIT-A03-04": ('cursor.execute("', "{a} ", '" + z z)'),
    "PIT-A03-05": ('text(f"', "{a} ", '" + z)'),
    "PIT-A03-13": ('return f"', "{a} ", None),
    "PIT-A03-14": ('make_response(f"', "{a} ", '" + z)'),
    "PIT-A03-18": ('conn.search_s(f"', "{a} ", None),
    "PIT-A03-19": ('tree.xpath(f"', "{a} ", '" + z)'),
    "PIT-A03-21": ('logging.info(f"', "{a} ", '" + z)'),
    "PIT-A07-01": ('password = "', "{a} ", None),
    "PIT-A07-02": ('secret_key = "', "{a} ", None),
    "PIT-A07-03": ('password == "', "{a} ", None),
}


def _pumped(prefix, unit, end=""):
    return lambda size: prefix + unit * (size // len(unit)) + end


@pytest.mark.parametrize("rule_id", sorted(LITERALS))
def test_an_unclosed_literal_grows_linearly(rule_id):
    prefix, unit, _end = LITERALS[rule_id]
    _grows_linearly(rule_id, _pumped(prefix, unit))


@pytest.mark.parametrize(
    "rule_id", sorted(rule_id for rule_id, row in LITERALS.items() if row[2])
)
def test_a_closed_literal_whose_suffix_fails_grows_linearly(rule_id):
    prefix, unit, end = LITERALS[rule_id]
    make = _pumped(prefix, unit, end)
    assert not RULES.get(rule_id).pattern.search(make(64))
    _grows_linearly(rule_id, make)


def test_every_string_literal_rule_has_a_growth_row():
    quoted = {rule.rule_id for rule in RULES if "(?P=q)" in rule.pattern.pattern}
    assert quoted == set(LITERALS)
