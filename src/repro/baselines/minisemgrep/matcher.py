"""Pattern compiler for the mini-Semgrep pattern language subset.

Supported syntax (a practical subset of Semgrep's):

- ``$X`` — metavariable matching one expression-ish token run; repeating
  the same metavariable in one pattern requires the same text (Semgrep's
  unification semantics);
- ``...`` — ellipsis matching any (possibly empty) argument run;
- literal program text otherwise, with whitespace made flexible.

Matching is textual (like Semgrep's error-tolerant parsing, patterns still
hit inside snippets that are not valid modules), which distinguishes it
from the parse-or-nothing mini-Bandit/mini-CodeQL baselines.
"""

from __future__ import annotations

import re
from typing import Dict, List

_METAVAR_RE = re.compile(r"\$([A-Z][A-Z0-9_]*)")
_ELLIPSIS_TOKEN = "\x00ELLIPSIS\x00"

# What a metavariable may bind: a name/attribute/call/subscript/literal
# run.  All runs are length-bounded — a pattern that opens with an
# unbounded scan goes quadratic on adversarial inputs (every failing
# start position re-scans the rest of the file).
_METAVAR_PATTERN = (
    r"(?:[A-Za-z_][\w.\[\]]{0,80}(?:\((?:[^()]|\([^()]*\))*\))?"
    r"|f?['\"][^'\"\n]{0,200}['\"]|\d{1,20})"
)
# what an ellipsis may bind inside call parentheses
_ELLIPSIS_PATTERN = r"(?:[^()\n]|\((?:[^()]|\([^()]*\))*\))*?"


def compile_pattern(pattern: str) -> "re.Pattern[str]":
    """Compile one Semgrep-style pattern into a regex."""
    text = pattern.strip()
    text = text.replace("...", _ELLIPSIS_TOKEN)

    seen: Dict[str, str] = {}
    parts: List[str] = []
    position = 0
    for match in _METAVAR_RE.finditer(text):
        parts.append(_escape_literal(text[position : match.start()]))
        name = match.group(1)
        if name in seen:
            parts.append(f"(?P={seen[name]})")
        else:
            group = f"mv_{name.lower()}"
            seen[name] = group
            parts.append(f"(?P<{group}>{_METAVAR_PATTERN})")
        position = match.end()
    parts.append(_escape_literal(text[position:]))
    return re.compile("".join(parts))


def _escape_literal(text: str) -> str:
    """Escape literal pattern text, making whitespace flexible.

    An ellipsis directly followed by a comma matches zero-or-more leading
    arguments (Semgrep's semantics: ``run(..., shell=True)`` also matches
    ``run(shell=True)``), and punctuation tolerates surrounding spaces.
    """
    # "..., " → optional argument run including its separator
    text = re.sub(
        re.escape(_ELLIPSIS_TOKEN) + r"\s*,\s*",
        _ELLIPSIS_TOKEN + ",",
        text,
    )
    out: List[str] = []
    for chunk in re.split(r"(\s+|" + re.escape(_ELLIPSIS_TOKEN) + r",?)", text):
        if not chunk:
            continue
        if chunk == _ELLIPSIS_TOKEN + ",":
            out.append(f"(?:{_ELLIPSIS_PATTERN},\\s*)?")
        elif chunk == _ELLIPSIS_TOKEN:
            out.append(_ELLIPSIS_PATTERN)
        elif chunk.isspace():
            out.append(r"\s*")
        else:
            out.append(_escape_punctuated(chunk))
    return "".join(out)


def _escape_punctuated(chunk: str) -> str:
    """Escape a literal chunk, letting spaces float around punctuation."""
    parts: List[str] = []
    for piece in re.split(r"([(),])", chunk):
        if not piece:
            continue
        if piece == "(":
            parts.append(r"\(\s*")
        elif piece == ")":
            parts.append(r"\s*\)")
        elif piece == ",":
            parts.append(r"\s*,\s*")
        else:
            parts.append(re.escape(piece))
    return "".join(parts)
