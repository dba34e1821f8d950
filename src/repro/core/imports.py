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

_FROM_IMPORT_RE = re.compile(r"^from\s+(?P<module>[\w.]+)\s+import\s+(?P<names>[^#\n]+)")
_PLAIN_IMPORT_RE = re.compile(r"^import\s+(?P<modules>[^#\n]+)")
#: One line and its break, at Python's own line breaks.
_LINE_RE = re.compile(r"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+")
#: Python's indentation whitespace.
_INDENT = " \t\x0c"


def string_spans(source: str) -> List[Tuple[int, int]]:
    """Half-open ``[start, end)`` spans of string literals in ``source``.

    A small state machine, not a full tokenizer: it tracks single- and
    triple-quoted strings (prefixes and escapes included) and comments,
    which is exactly enough to decide whether a line starts inside a
    literal.  An unterminated triple quote extends to the end of the
    text — the conservative reading for generated, possibly incomplete
    snippets — and an unterminated single quote to its line's break.
    """
    spans: List[Tuple[int, int]] = []
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "#":
            i = _LINE_RE.match(source, i).end()
            continue
        if ch in "\"'":
            # include any immediately-preceding string prefix (r, b, f, u)
            start = i
            j = start - 1
            while j >= 0 and source[j] in "rRbBuUfF":
                j -= 1
            # only a prefix if glued to the quote as part of a name-free token
            if j < start - 1 and (j < 0 or not (source[j].isalnum() or source[j] == "_")):
                start = j + 1
            quote = source[i : i + 3] if source[i : i + 3] in ('"""', "'''") else ch
            i += len(quote)
            while i < n:
                if source[i] == "\\":
                    i += 2
                    continue
                if source.startswith(quote, i):
                    i += len(quote)
                    break
                if len(quote) == 1 and source[i] in "\r\n":
                    break  # unterminated single-quoted string ends at EOL
                i += 1
            spans.append((start, min(i, n)))
            continue
        i += 1
    return spans


def _offset_in_spans(offset: int, spans: Sequence[Tuple[int, int]]) -> bool:
    """Whether ``offset`` lies in one of ``spans``, which
    :func:`string_spans` returns sorted and disjoint: only the last span
    starting at or before ``offset`` can hold it."""
    index = bisect_right(spans, (offset, float("inf"))) - 1
    return index >= 0 and offset < spans[index][1]


class ImportLine(NamedTuple):
    """One import statement line outside string literals: its offsets
    (``end`` just past its line break), its leading whitespace, its
    stripped text and that text's :func:`_parse_imports` entries."""

    start: int
    end: int
    indent: str
    statement: str
    entries: List[Tuple[str, str, frozenset]]


class ImportLayout(NamedTuple):
    """What :func:`import_layout` reads from a text: its margin and every
    import line, at any indentation, in text order."""

    margin: str
    lines: List[ImportLine]

    @property
    def top_level(self) -> List[ImportLine]:
        """The import lines at the margin: the text's top-level imports."""
        return [line for line in self.lines if line.indent == self.margin]


def import_layout(source: str) -> ImportLayout:
    """The margin and the import lines of ``source``, from one walk.

    Blank lines, comment-only lines and lines that start inside a string
    literal hold no code, so they neither count toward the margin nor
    hold an import; the margin is empty when any code starts at column 0.
    """
    spans = string_spans(source)
    margin: Optional[str] = None
    lines: List[ImportLine] = []
    end = 0
    for line in _LINE_RE.findall(source):
        start, end = end, end + len(line)
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
            statement = code.strip()
            try:
                entries = _parse_imports(statement)
            except ValueError:
                continue
            lines.append(ImportLine(start, end, indent, statement, entries))
    return ImportLayout(margin or "", lines)


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
            wanted = _parse_imports(statement)
        except ValueError:
            return False
        return all(self._has_entry(kind, module, names) for kind, module, names in wanted)

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
        offset = self.insertion_offset()
        margin = self._layout.margin
        block = "".join(f"{margin}{statement}\n" for statement in to_add)
        return self._source[:offset] + block + self._source[offset:]

    def insertion_offset(self) -> int:
        """Character offset where new imports belong.

        After the last top-level import when one exists; otherwise after
        the module docstring; otherwise offset 0.
        """
        top_level = self._layout.top_level
        if top_level:
            return top_level[-1].end
        return self._docstring_end()

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


def _split_alias(part: str) -> Tuple[str, str]:
    """``"module as alias"`` → ``(module, binding_name)``."""
    target, _, alias = part.partition(" as ")
    target = target.strip()
    alias = alias.strip()
    if alias:
        return target, alias
    return target, target.split(".")[0]


def _parse_imports(statement: str) -> List[Tuple[str, str, frozenset]]:
    """Parse into ``(kind, module, names)`` entries; ValueError if neither.

    A ``from`` import yields one entry; a plain import yields **one entry
    per module** — ``import os, pickle`` records both ``os`` and
    ``pickle``, so membership checks and pruning see every module a
    statement binds (keeping only the first was the pre-1.5 bug that made
    ``has_import("import pickle")`` miss and duplicated inserts).
    """
    from_match = _FROM_IMPORT_RE.match(statement)
    if from_match:
        names = frozenset(
            name.strip().split(" as ")[0].strip()
            for name in from_match.group("names").split(",")
            if name.strip()
        )
        return [("from", from_match.group("module"), names)]
    plain_match = _PLAIN_IMPORT_RE.match(statement)
    if plain_match:
        entries: List[Tuple[str, str, frozenset]] = []
        for part in plain_match.group("modules").split(","):
            if not part.strip():
                continue
            module, _binding = _split_alias(part.strip())
            entries.append(("import", module, frozenset()))
        if entries:
            return entries
    raise ValueError(f"not an import statement: {statement!r}")


def import_bindings(statement: str) -> List[str]:
    """The module-scope names an import statement binds.

    ``import os.path as p, pickle`` binds ``p`` and ``pickle``;
    ``from flask import Flask, request as req`` binds ``Flask`` and
    ``req``.  Raises ``ValueError`` for non-import text.
    """
    from_match = _FROM_IMPORT_RE.match(statement)
    if from_match:
        bindings: List[str] = []
        for part in from_match.group("names").split(","):
            if not part.strip():
                continue
            _target, binding = _split_alias(part.strip())
            bindings.append(binding)
        return bindings
    plain_match = _PLAIN_IMPORT_RE.match(statement)
    if plain_match:
        bindings = []
        for part in plain_match.group("modules").split(","):
            if not part.strip():
                continue
            _module, binding = _split_alias(part.strip())
            bindings.append(binding)
        if bindings:
            return bindings
    raise ValueError(f"not an import statement: {statement!r}")


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
            for binding in import_bindings(line.statement)
        ):
            continue
        kept.append(source[offset : line.start])
        offset = line.end
    if not offset:
        return source
    kept.append(source[offset:])
    return "".join(kept)
