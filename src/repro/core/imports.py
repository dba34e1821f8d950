"""Import insertion for applied patches.

When a safe alternative uses an API from a module the vulnerable code did
not import, the patch carries the needed import statements; this manager
places them at the top of the file — after a module docstring and any
``from __future__`` imports, appended to the existing import block —
mirroring the VS Code ``Position`` API placement described in §II-B.

Many AI snippets are indented bodies pasted out of a function.  Their
top is their *margin* (the leading whitespace every code line shares),
so new imports go in at the margin and the imports at the margin are the
ones pruning may drop; a text with code at column 0 has an empty margin.
:func:`import_layout` decides both, in one walk over the text's lines
(split at Python's own line breaks: ``\n``, ``\r\n`` and ``\r``).

Import-shaped text inside string literals (a module docstring quoting
``import os``, a triple-quoted SQL template) is never treated as an
import: the walk consults a lightweight string-literal scanner first, so
new imports are never spliced into the middle of a docstring and
docstring lines are never "pruned" as dead imports.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from os.path import commonprefix
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

# An import names something: ``import )`` and ``from m import  # c`` are
# no imports, so they neither anchor new imports nor get pruned.  Nor is
# a from-import whose parenthesized names :data:`_PAREN_FROM` cannot
# read (an unclosed ``(``), so its names never start with one.
_FROM_IMPORT_RE = re.compile(r"^from\s+(?P<module>[\w.]+)\s+import\s+(?P<names>[^#\s(][^#\n]*)")
#: A from-import with its names in parentheses, from ``from`` to the
#: closing ``)``, over any number of lines.  A comment runs to its line's
#: end, so a ``)`` inside one closes nothing.  Between the parentheses
#: only what a names list holds may stand (words, whitespace, commas,
#: comments): an unclosed ``(`` stops at the first other character, at
#: the latest the next such import's own ``(``, so no two of these walks
#: cover the same text.  This pattern and the two below are left to
#: ``re``'s own cache, compiled on first use: few texts hold such an
#: import, and a scan never reads imports at all.
_PAREN_FROM = (
    r"from[^\S\r\n]+(?P<module>[\w.]+)[^\S\r\n]+import[^\S\r\n]*"
    r"\((?P<names>(?:[\w\s,]|#[^\r\n]*(?![^\r\n]))*)\)"
)
_COMMENT = r"#[^\r\n]*"
#: One name a from-import binds: ``name`` or ``name as alias``.
_IMPORTED_NAME = r"[^\W\d]\w*(?:\s+as\s+[^\W\d]\w*)?"
_PLAIN_IMPORT_RE = re.compile(r"^import\s+(?P<modules>[\w.][^#\n]*)")
#: One line and its break, at Python's own line breaks.
_LINE_RE = re.compile(r"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+")
#: Python's indentation whitespace.
_INDENT = " \t\x0c"


#: Where a walk outside string literals stops: a comment or a quote.
_LEXEME_RE = re.compile(r"[#'\"]")
#: Where a walk through each kind of string literal's body stops: an
#: escape, its quote character and, for one-line literals, a line break.
_BODY_STOP_RE = {
    "'": re.compile(r"[\\'\r\n]"),
    '"': re.compile(r'[\\"\r\n]'),
    "'''": re.compile(r"[\\']"),
    '"""': re.compile(r'[\\"]'),
}


def string_spans(source: str) -> List[Tuple[int, int]]:
    """Half-open ``[start, end)`` spans of string literals in ``source``.

    A small lexer, not a full tokenizer: it tracks single- and
    triple-quoted strings (prefixes and escapes included) and comments,
    which is exactly enough to decide whether a line starts inside a
    literal.  An unterminated triple quote extends to the end of the
    text — the conservative reading for generated, possibly incomplete
    snippets — and an unterminated single quote to its line's break.
    It jumps between the characters that matter with compiled searches.
    """
    spans: List[Tuple[int, int]] = []
    find = _LEXEME_RE.search
    lexeme = find(source)
    while lexeme is not None:
        i = lexeme.start()
        if source[i] == "#":
            lexeme = find(source, _LINE_RE.match(source, i).end())
            continue
        # include any immediately-preceding string prefix (r, b, f, u)
        start = j = i
        while j and source[j - 1] in "rRbBuUfF":
            j -= 1
        # only a prefix if glued to the quote as part of a name-free token
        if j < i and not (j and (source[j - 1].isalnum() or source[j - 1] == "_")):
            start = j
        quote = source[i : i + 3]
        if quote not in ('"""', "'''"):
            quote = source[i]
        end = _literal_end(source, i + len(quote), quote)
        spans.append((start, end))
        lexeme = find(source, end)
    return spans


def _literal_end(source: str, i: int, quote: str) -> int:
    """Where the literal opened by ``quote`` ends, its body starting at
    ``i``: past its closing quote, at the line break that cuts a
    one-line literal short, or at the end of the text."""
    stop = _BODY_STOP_RE[quote].search
    while True:
        found = stop(source, i)
        if found is None:
            return len(source)
        i = found.start()
        ch = source[i]
        if ch == "\\":
            i += 2  # the escaped character, a line break included
        elif ch in "\r\n":
            return i  # unterminated single-quoted string ends at EOL
        elif len(quote) == 1 or source.startswith(quote, i):
            return i + len(quote)
        else:
            i += 1


def _offset_in_spans(offset: int, spans: Sequence[Tuple[int, int]]) -> bool:
    """Whether ``offset`` lies in one of ``spans``, which
    :func:`string_spans` returns sorted and disjoint: only the last span
    starting at or before ``offset`` can hold it."""
    index = bisect_right(spans, (offset, float("inf"))) - 1
    return index >= 0 and offset < spans[index][1]


class ImportLine(NamedTuple):
    """One import statement outside string literals: its offsets (``end``
    just past the line break of its last line), its leading whitespace,
    its text on one line (a parenthesized from-import's names joined by
    ``, ``) and that text's :func:`parse_import` entries and bindings."""

    start: int
    end: int
    indent: str
    statement: str
    entries: List[Tuple[str, str, frozenset]]
    bindings: List[str]


class ImportLayout(NamedTuple):
    """What :func:`import_layout` reads from a text: its margin, every
    import line, at any indentation, in text order, and the
    :func:`string_spans` it read them with."""

    margin: str
    lines: List[ImportLine]
    spans: List[Tuple[int, int]]

    @property
    def top_level(self) -> List[ImportLine]:
        """The import lines at the margin: the text's top-level imports."""
        return [line for line in self.lines if line.indent == self.margin]


def import_layout(source: str) -> ImportLayout:
    """The margin and the import lines of ``source``, from one walk.

    Blank lines, comment-only lines and lines that start inside a string
    literal hold no code, so they neither count toward the margin nor
    hold an import; the margin is empty when any code starts at column 0.
    A parenthesized from-import is one :class:`ImportLine` up to its
    closing ``)``, and the lines of its names are neither code nor
    imports of their own.
    """
    spans = string_spans(source)
    margin: Optional[str] = None
    lines: List[ImportLine] = []
    end = resume = 0
    for line in _LINE_RE.findall(source):
        start, end = end, end + len(line)
        if start < resume:
            continue  # a line of a parenthesized import's names
        code = line.lstrip(_INDENT)
        if code[:1] in "#\r\n":
            continue  # blank or comment-only (an empty string is "in" too)
        importish = code.startswith(("import ", "from "))
        if margin == "" and not importish:
            continue  # the margin is settled; only imports matter now
        if start and _offset_in_spans(start - 1, spans):
            continue  # starts inside a string: the break before it is in one
        indent = line[: len(line) - len(code)]
        margin = indent if margin is None else commonprefix((margin, indent))
        if importish:
            statement, stop = code.strip(), end
            if statement.startswith("from ") and "(" in statement:
                found = _parenthesized_from(source, start + len(indent))
                if found is not None:
                    statement, stop = found
                    resume = stop
            try:
                entries, bindings = parse_import(statement)
            except ValueError:
                continue
            lines.append(ImportLine(start, stop, indent, statement, entries, bindings))
    return ImportLayout(margin or "", lines, spans)


def _parenthesized_from(source: str, at: int) -> Optional[Tuple[str, int]]:
    """The from-import with parenthesized names that starts at ``at``:
    its one-line form and the end of its last line (past the break).

    ``None`` unless the parentheses close and hold one or more names
    (``name`` or ``name as alias``) separated by commas, with comments
    and a trailing comma allowed — what Python accepts there.
    """
    match = re.compile(_PAREN_FROM).match(source, at)
    if match is None:
        return None
    names = [
        " ".join(name.split())
        for name in re.sub(_COMMENT, "", match.group("names")).split(",")
    ]
    if names[-1] == "" and len(names) > 1:
        names.pop()  # the trailing comma
    if not all(re.fullmatch(_IMPORTED_NAME, name) for name in names):
        return None
    rest = _LINE_RE.match(source, match.end())
    stop = len(source) if rest is None else rest.end()
    return f"from {match.group('module')} import {', '.join(names)}", stop


class ImportManager:
    """Tracks the imports of a source file and inserts missing ones."""

    def __init__(self, source: str) -> None:
        self._source = source
        self._layout = import_layout(source)
        self._existing = [
            entry for line in self._layout.lines for entry in line.entries
        ]

    def has_import(self, statement: str) -> bool:
        """True when ``statement`` (or a superset of it) is already present.

        Multi-module statements (``import os, pickle``) are present only
        when *every* module they name is.
        """
        try:
            return self.has_parsed(parse_import(statement))
        except ValueError:
            return False

    def has_parsed(self, parsed: ParsedImport) -> bool:
        """:meth:`has_import` of a statement :func:`parse_import` read."""
        return all(
            self._has_entry(kind, module, names) for kind, module, names in parsed.entries
        )

    def _has_entry(self, kind: str, module: str, names: frozenset) -> bool:
        for existing_kind, existing_module, existing_names in self._existing:
            if existing_module != module:
                continue
            if kind == "import" and existing_kind == "import":
                return True
            if kind == "from" and existing_kind == "from" and names <= existing_names:
                return True
        return False

    def missing(self, statements: Iterable[str]) -> List[str]:
        """Deduplicated statements not yet imported, in request order."""
        out: List[str] = []
        for statement in statements:
            cleaned = statement.strip()
            if cleaned and cleaned not in out and not self.has_import(cleaned):
                out.append(cleaned)
        return out

    def insert(self, statements: Iterable[str]) -> str:
        """Return the source with the missing ``statements`` inserted, each
        on its own line at the margin."""
        to_add = self.missing(statements)
        if not to_add:
            return self._source
        offset = self.insertion_offset(to_add)
        margin = self._layout.margin
        block = "".join(f"{margin}{statement}\n" for statement in to_add)
        if offset and self._source[offset - 1] not in "\r\n":
            block = "\n" + block  # the end of a text without a final line break
        return self._source[:offset] + block + self._source[offset:]

    def insertion_offset(self, statements: Sequence[str] = ()) -> int:
        """Character offset where new imports belong.

        After the last top-level import when one exists; otherwise after
        the module docstring; otherwise offset 0.  When a statement at
        the margin before that point already uses a name one of
        ``statements`` binds, before the first such statement instead,
        so the name is bound before it runs.
        """
        top_level = self._layout.top_level
        offset = top_level[-1].end if top_level else self._docstring_end()
        names = set()
        for statement in statements:
            try:
                names.update(import_bindings(statement))
            except ValueError:
                continue  # no import statement: it binds nothing
        if offset and names:
            layout = self._layout
            using = _statement_using(self._source, offset, names, layout.margin, layout.spans)
            if using is not None:
                return using
        return offset

    def _docstring_end(self) -> int:
        stripped = self._source.lstrip()
        lead = len(self._source) - len(stripped)
        for quote in ('"""', "'''"):
            if stripped.startswith(quote):
                end = stripped.find(quote, len(quote))
                if end != -1:
                    rest = _LINE_RE.match(self._source, lead + end + len(quote))
                    return len(self._source) if rest is None else rest.end()
        return 0


#: The first line of a margin-level statement whose indented body runs
#: only when called, and of one that a decorator line before it holds.
_DEF_START = ("def ", "async def ")
_DECORATED_START = ("@", "class ") + _DEF_START
#: A clause that continues the compound statement above it.
_CLAUSE = r"(?:else|elif|except|finally)(?!\w)"
#: What a code line holds first, past its indentation.
_CODE_FIRST = r"[^ \t\x0c\r\n]"


def _statement_using(
    source: str,
    stop: int,
    names: Iterable[str],
    margin: str,
    spans: Sequence[Tuple[int, int]],
) -> Optional[int]:
    """Where the first margin-level statement before ``stop`` that uses
    one of ``names`` starts, or ``None``; ``spans`` are the text's
    :func:`string_spans`.

    A use is a match of the name as :func:`_used_outside` reads it,
    outside string literals and comments.  A statement is a code line at
    the margin outside brackets, not after a backslash and not an
    ``else``, ``elif``, ``except`` or ``finally`` clause (its decorators
    with it), and the lines up to the next one: those that continue it,
    its clauses, and its indented body.  A ``def`` body does not run
    until a call, so a use there does not count; one on the ``def``
    line does.
    """
    region = source[:stop]
    alternatives = "|".join(re.escape(name) for name in sorted(names))
    pattern = re.compile(r"(?<![\w.])(?:%s)(?![\w])" % alternatives)
    if pattern.search(region) is None:
        return None  # the usual case: the code that uses them comes later
    code = _blank_strings_and_comments(region, spans)
    # The names first, so the search skips ahead by them; the whole
    # pattern then checks the character before.
    uses = [
        found.start()
        for found in re.finditer(r"(?:%s)(?![\w])" % alternatives, code)
        if pattern.match(code, found.start())
    ]
    if not uses:
        return None
    head = re.escape(margin) + _CODE_FIRST
    heads = [0] if re.match(head, code) else []
    heads += [
        found.end() for found in re.finditer(r"(?:\r\n?|\n)(?=%s)" % head, code)
    ]
    clause = re.compile(_CLAUSE)
    statement = use = depth = previous = header_end = 0
    in_def = decorated = False
    for start in heads:
        while use < len(uses) and uses[use] < start:
            if not in_def or uses[use] < header_end:
                return statement
            use += 1
        if use == len(uses):
            return None
        between = code[previous:start]
        depth = max(
            0,
            depth
            + between.count("(") + between.count("[") + between.count("{")
            - between.count(")") - between.count("]") - between.count("}"),
        )
        previous = start
        before_break = start - (2 if code.startswith("\r\n", start - 2) else 1) - 1
        if depth or (before_break >= 0 and code[before_break] == "\\"):
            continue  # a line that continues the statement above it
        at = start + len(margin)
        if clause.match(code, at):
            continue  # a clause of the compound statement above it
        if not (decorated and code.startswith(_DECORATED_START, at)):
            statement = start
        in_def = code.startswith(_DEF_START, at)
        decorated = code.startswith("@", at)
        header_end = _LINE_RE.match(code, start).end()
    if any(not in_def or at < header_end for at in uses[use:]):
        return statement
    return None


def _blank_strings_and_comments(text: str, spans: Sequence[Tuple[int, int]]) -> str:
    """``text`` with its code kept and the rest blanked to spaces, at the
    same offsets: each comment, and each string literal (``spans``) but
    for a ``"`` in its first place, so a line that starts one still
    starts with a character that is no name, bracket or backslash.

    One pass: the code before each literal is searched for comments
    once, and each search resumes past the comment it found, so a ``#``
    inside a comment is never read again."""
    comment = re.compile(_COMMENT)
    limit = len(text)
    pieces: List[str] = []
    pos = 0
    for start, end in [*spans, (limit, limit)]:
        start, end = min(start, limit), min(end, limit)
        for found in comment.finditer(text, pos, start):
            pieces += (text[pos : found.start()], " " * (found.end() - found.start()))
            pos = found.end()
        pieces.append(text[pos:start])
        if start < end:
            pieces += ('"', " " * (end - start - 1))
        pos = end
        if pos == limit:
            break
    return "".join(pieces)


def _split_aliases(names: str) -> List[Tuple[str, str]]:
    """``"a.b as c, d.e"`` → ``[("a.b", "c"), ("d.e", "d")]``: each
    imported target and the name it binds."""
    pairs: List[Tuple[str, str]] = []
    for part in names.split(","):
        part = part.strip()
        if part:
            target, _, alias = part.partition(" as ")
            target = target.strip()
            pairs.append((target, alias.strip() or target.split(".")[0]))
    return pairs


class ParsedImport(NamedTuple):
    """What one import statement imports and binds (:func:`parse_import`)."""

    entries: List[Tuple[str, str, frozenset]]
    bindings: List[str]


def parse_import(statement: str) -> ParsedImport:
    """Parse into ``(kind, module, names)`` entries and the module-scope
    names the statement binds; ValueError if it is no import.

    A ``from`` import yields one entry; a plain import yields **one entry
    per module** — ``import os, pickle`` records both ``os`` and
    ``pickle``, so membership checks and pruning see every module a
    statement binds (keeping only the first was the pre-1.5 bug that made
    ``has_import("import pickle")`` miss and duplicated inserts).
    """
    from_match = _FROM_IMPORT_RE.match(statement)
    if from_match:
        pairs = _split_aliases(from_match.group("names"))
        names = frozenset(target for target, _binding in pairs)
        return ParsedImport(
            [("from", from_match.group("module"), names)],
            [binding for _target, binding in pairs],
        )
    plain_match = _PLAIN_IMPORT_RE.match(statement)
    pairs = _split_aliases(plain_match.group("modules")) if plain_match else []
    if not pairs:
        raise ValueError(f"not an import statement: {statement!r}")
    return ParsedImport(
        [("import", module, frozenset()) for module, _binding in pairs],
        [binding for _module, binding in pairs],
    )


def import_bindings(statement: str) -> List[str]:
    """The module-scope names an import statement binds.

    ``import os.path as p, pickle`` binds ``p`` and ``pickle``;
    ``from flask import Flask, request as req`` binds ``Flask`` and
    ``req``.  Raises ``ValueError`` for non-import text.
    """
    return parse_import(statement).bindings


def insert_imports(source: str, statements: Sequence[str]) -> str:
    """Convenience wrapper: insert ``statements`` into ``source``."""
    return ImportManager(source).insert(statements)


_NAME_RE_CACHE: dict = {}


def _used_outside(
    source: str, name: str, start: int, end: int, first_use: Dict[str, int]
) -> bool:
    """Whether ``source`` uses ``name`` outside ``[start, end)``, a whole
    line — whether the text without that line uses it.

    A use never crosses a line break, so the first use (memoized in
    ``first_use``, -1 for none) decides, unless it lies on this line;
    then only a use after the line can.
    """
    pattern = _NAME_RE_CACHE.get(name)
    if pattern is None:
        pattern = re.compile(rf"(?<![\w.]){re.escape(name)}(?![\w])")
        _NAME_RE_CACHE[name] = pattern
    if name not in first_use:
        match = pattern.search(source)
        first_use[name] = -1 if match is None else match.start()
    first = first_use[name]
    if first < 0:
        return False
    if not start <= first < end:
        return True
    return pattern.search(source, end) is not None


def prune_unused_imports(source: str) -> str:
    """Drop top-level import lines whose names the code no longer uses.

    After a safe substitution (e.g. ``pickle.loads`` → ``json.loads``) the
    original module import frequently becomes dead; pruning it keeps the
    patched file lint-clean.  Only whole lines at the margin are removed
    (see :func:`import_layout`), a ``from`` import is kept if *any* of its
    names is still referenced, a plain multi-module import (``import os,
    pickle``) is kept if *any* of its bindings is still referenced, and
    ``from __future__ import ...`` is never pruned: it is a compiler
    directive, not a binding — removing it changes program semantics even
    when the name is unreferenced.
    """
    first_use: Dict[str, int] = {}
    kept: List[str] = []
    offset = 0
    for line in import_layout(source).top_level:
        if any(module == "__future__" for _kind, module, _names in line.entries):
            continue
        if any(
            _used_outside(source, binding, line.start, line.end, first_use)
            for binding in line.bindings
        ):
            continue
        kept.append(source[offset : line.start])
        offset = line.end
    if not offset:
        return source
    kept.append(source[offset:])
    return "".join(kept)
