"""Import insertion for applied patches.

When a safe alternative uses an API from a module the vulnerable code did
not import, the patch carries the needed import statements; this manager
places them at the top of the file — after a module docstring and any
``from __future__`` imports, appended to the existing import block —
mirroring the VS Code ``Position`` API placement described in §II-B.

Import-shaped text inside string literals (a module docstring quoting
``import os``, a triple-quoted SQL template) is never treated as an
import: collection, insertion-point scanning, and pruning all consult a
lightweight string-literal scanner first, so new imports are never
spliced into the middle of a docstring and docstring lines are never
"pruned" as dead imports.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from typing import Dict, Iterable, List, Sequence, Tuple

_IMPORT_LINE_RE = re.compile(r"^(?:import\s+[\w.]+|from\s+[\w.]+\s+import\s+.+)", re.MULTILINE)
_FROM_IMPORT_RE = re.compile(r"^from\s+(?P<module>[\w.]+)\s+import\s+(?P<names>[^#\n]+)")
_PLAIN_IMPORT_RE = re.compile(r"^import\s+(?P<modules>[^#\n]+)")


def string_spans(source: str) -> List[Tuple[int, int]]:
    """Half-open ``[start, end)`` spans of string literals in ``source``.

    A small state machine, not a full tokenizer: it tracks single- and
    triple-quoted strings (prefixes and escapes included) and comments,
    which is exactly enough to decide whether an import-shaped line sits
    inside a literal.  An unterminated triple quote extends to the end of
    the text — the conservative reading for generated, possibly
    incomplete snippets.
    """
    spans: List[Tuple[int, int]] = []
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "#":
            newline = source.find("\n", i)
            i = n if newline == -1 else newline + 1
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
                if len(quote) == 1 and source[i] == "\n":
                    i += 1  # unterminated single-quoted string ends at EOL
                    break
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


class ImportManager:
    """Tracks the imports of a source file and inserts missing ones."""

    def __init__(self, source: str) -> None:
        self._source = source
        self._string_spans = string_spans(source)
        self._existing = _collect_imports(source, self._string_spans)

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
        """Return the source with the missing ``statements`` inserted."""
        to_add = self.missing(statements)
        if not to_add:
            return self._source
        offset = self.insertion_offset()
        block = "\n".join(to_add) + "\n"
        return self._source[:offset] + block + self._source[offset:]

    def insertion_offset(self) -> int:
        """Character offset where new imports belong.

        After the last top-level import when one exists; otherwise after
        the module docstring; otherwise offset 0.  Import-shaped lines
        inside string literals (e.g. a docstring quoting ``import os`` at
        column 0) are not insertion anchors — splicing there would drop
        the new imports into the middle of the literal.
        """
        last_import_end = -1
        for match in _IMPORT_LINE_RE.finditer(self._source):
            if _offset_in_spans(match.start(), self._string_spans):
                continue  # inside a string literal — not a real import
            line_start = self._source.rfind("\n", 0, match.start()) + 1
            if self._source[line_start : match.start()].strip():
                continue  # indented (inside a function) — not top-level
            line_end = self._source.find("\n", match.end())
            last_import_end = len(self._source) if line_end == -1 else line_end + 1
        if last_import_end != -1:
            return last_import_end
        return self._docstring_end()

    def _docstring_end(self) -> int:
        stripped = self._source.lstrip()
        lead = len(self._source) - len(stripped)
        for quote in ('"""', "'''"):
            if stripped.startswith(quote):
                end = stripped.find(quote, len(quote))
                if end != -1:
                    close = lead + end + len(quote)
                    newline = self._source.find("\n", close)
                    return len(self._source) if newline == -1 else newline + 1
        return 0


def _collect_imports(
    source: str, spans: Sequence[Tuple[int, int]] = ()
) -> List[Tuple[str, str, frozenset]]:
    collected: List[Tuple[str, str, frozenset]] = []
    offset = 0
    for line in source.splitlines(keepends=True):
        start = offset
        offset += len(line)
        cleaned = line.strip()
        if not cleaned.startswith(("import ", "from ")):
            continue
        if spans and _offset_in_spans(start + line.find(cleaned[0]), spans):
            continue  # import-shaped text inside a string literal
        try:
            collected.extend(_parse_imports(cleaned))
        except ValueError:
            continue
    return collected


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
    patched file lint-clean.  Only whole lines are removed, a ``from``
    import is kept if *any* of its names is still referenced, a plain
    multi-module import (``import os, pickle``) is kept if *any* of its
    bindings is still referenced, and two classes of line are never
    pruned at all: ``from __future__ import ...`` (a compiler directive,
    not a binding — removing it changes program semantics even when the
    name is unreferenced) and import-shaped text inside string literals.
    """
    spans = string_spans(source)
    first_use: Dict[str, int] = {}
    kept = []
    offset = 0
    for line in source.splitlines(keepends=True):
        line_start = offset
        offset += len(line)
        stripped = line.strip()
        if not stripped.startswith(("import ", "from ")) or line[:1] in (" ", "\t"):
            kept.append(line)
            continue
        if _offset_in_spans(line_start, spans):
            kept.append(line)  # inside a string literal — not an import
            continue
        try:
            entries = _parse_imports(stripped)
        except ValueError:
            kept.append(line)
            continue
        if any(module == "__future__" for _kind, module, _names in entries):
            kept.append(line)  # future imports are directives; always keep
            continue
        try:
            bindings = import_bindings(stripped)
        except ValueError:
            kept.append(line)
            continue
        if any(
            _used_outside(source, binding, line_start, offset, first_use)
            for binding in bindings
        ):
            kept.append(line)
    return "".join(kept)
