"""A robust, regex-based tokenizer for (possibly incomplete) Python code.

The standard :mod:`tokenize` module raises on the malformed snippets AI
generators frequently emit (dangling brackets, stray markdown fences,
``...`` placeholders).  PatchitPy's pattern approach must survive those, so
this lexer never fails: anything it cannot classify becomes an ``OP`` or
``UNKNOWN`` token and processing continues.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Iterable, List, Tuple

PYTHON_KEYWORDS = frozenset(
    """
    False None True and as assert async await break class continue def del
    elif else except finally for from global if import in is lambda nonlocal
    not or pass raise return try while with yield match case
    """.split()
)


class TokenKind(enum.Enum):
    """Lexical classes produced by :func:`tokenize`."""

    NAME = "name"
    KEYWORD = "keyword"
    NUMBER = "number"
    STRING = "string"
    FSTRING = "fstring"
    OP = "op"
    COMMENT = "comment"
    NEWLINE = "newline"
    INDENT = "indent"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Token:
    """One lexeme with its source span."""

    kind: TokenKind
    text: str
    start: int
    end: int

    def with_text(self, text: str) -> "Token":
        """Copy with replaced text (spans kept for provenance)."""
        return Token(self.kind, text, self.start, self.end)


_TOKEN_RE = re.compile(
    r"""
    (?P<comment>\#[^\n]*)
  | (?P<fstring>[fF][rRbB]?(?:'''(?:[^'\\]|\\.|'(?!''))*(?:'''|$)
                |\"\"\"(?:[^"\\]|\\.|"(?!""))*(?:\"\"\"|$)
                |'(?:[^'\\\n]|\\.)*(?:'|$)
                |"(?:[^"\\\n]|\\.)*(?:"|$)))
  | (?P<string>[rRbBuU]{0,2}(?:'''(?:[^'\\]|\\.|'(?!''))*(?:'''|$)
               |\"\"\"(?:[^"\\]|\\.|"(?!""))*(?:\"\"\"|$)
               |'(?:[^'\\\n]|\\.)*(?:'|$)
               |"(?:[^"\\\n]|\\.)*(?:"|$)))
  | (?P<number>\d[\d_]*(?:\.[\d_]*)?(?:[eE][+-]?\d+)?[jJ]?|\.\d[\d_]*(?:[eE][+-]?\d+)?[jJ]?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<newline>\r?\n)
  | (?P<indent>(?<=\n)[ \t]+|^[ \t]+)
  | (?P<op>\*\*=|//=|>>=|<<=|!=|>=|<=|==|->|:=|\+=|-=|\*=|/=|%=|&=|\|=|\^=|@=|\*\*|//|<<|>>|\.\.\.|[+\-*/%@&|^~<>()\[\]{},:.;=])
  | (?P<space>[ \t]+)
  | (?P<unknown>.)
    """,
    re.VERBOSE,
)

_GROUP_TO_KIND = {
    "comment": TokenKind.COMMENT,
    "fstring": TokenKind.FSTRING,
    "string": TokenKind.STRING,
    "number": TokenKind.NUMBER,
    "name": TokenKind.NAME,
    "newline": TokenKind.NEWLINE,
    "indent": TokenKind.INDENT,
    "op": TokenKind.OP,
    "unknown": TokenKind.UNKNOWN,
}


def tokenize(source: str, keep_whitespace: bool = False) -> List[Token]:
    """Lex ``source`` into tokens.  Never raises on malformed input.

    ``keep_whitespace`` additionally emits NEWLINE/INDENT tokens, which the
    detokenizer needs to reproduce layout; pattern matching normally drops
    them.
    """
    tokens: List[Token] = []
    for match in _TOKEN_RE.finditer(source):
        group = match.lastgroup
        if group == "space":
            continue
        if group in ("newline", "indent") and not keep_whitespace:
            continue
        kind = _GROUP_TO_KIND[group]
        text = match.group()
        if kind is TokenKind.NAME and text in PYTHON_KEYWORDS:
            kind = TokenKind.KEYWORD
        tokens.append(Token(kind, text, match.start(), match.end()))
    return tokens


_NO_SPACE_BEFORE = frozenset({")", "]", "}", ",", ":", ";", "."})
_NO_SPACE_AFTER = frozenset({"(", "[", "{", ".", "@", "~"})


def detokenize(tokens: Iterable[Token]) -> str:
    """Render a token sequence back to compact, readable source text.

    Exact layout is not preserved (mining only needs token-level fidelity);
    spacing follows simple typographical rules so the output remains valid
    Python for complete snippets.  ``=`` is spaced at statement level but
    not inside call parentheses (keyword arguments).
    """
    parts: List[str] = []
    previous: Token = None
    depth = 0
    for token in tokens:
        if token.kind is TokenKind.NEWLINE:
            parts.append("\n")
            previous = token
            continue
        if token.kind is TokenKind.INDENT:
            parts.append(token.text)
            previous = token
            continue
        if previous is not None and _needs_space(previous, token, depth):
            parts.append(" ")
        parts.append(token.text)
        if token.kind is TokenKind.OP:
            if token.text in ("(", "[", "{"):
                depth += 1
            elif token.text in (")", "]", "}"):
                depth = max(0, depth - 1)
        previous = token
    return "".join(parts)


def _needs_space(previous: Token, current: Token, depth: int) -> bool:
    if previous.kind in (TokenKind.NEWLINE, TokenKind.INDENT):
        return False
    if current.text == "=" or previous.text == "=":
        return depth == 0
    if current.kind is TokenKind.OP and current.text in _NO_SPACE_BEFORE:
        return False
    if previous.kind is TokenKind.OP and previous.text in _NO_SPACE_AFTER:
        return False
    if previous.kind is TokenKind.OP and previous.text in ("(", "[", "{"):
        return False
    if current.kind is TokenKind.OP and current.text in ("(", "[") and previous.kind in (
        TokenKind.NAME,
        TokenKind.STRING,
        TokenKind.FSTRING,
    ):
        return False
    return True


def token_texts(tokens: Iterable[Token]) -> Tuple[str, ...]:
    """Project tokens to their raw text — the LCS alphabet."""
    return tuple(token.text for token in tokens)


def significant_tokens(source: str) -> List[Token]:
    """Tokens that matter for pattern comparison (no comments/whitespace)."""
    return [t for t in tokenize(source) if t.kind is not TokenKind.COMMENT]
