"""Tests for the import manager (insertion + pruning)."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings

from repro.core import imports
from repro.core.imports import (
    ImportManager,
    import_bindings,
    import_layout,
    insert_imports,
    prune_unused_imports,
)
from repro.core.rules import default_ruleset
from tests.test_candidates import mutated_samples


class TestHasImport:
    def test_plain_import_detected(self):
        manager = ImportManager("import os\n")
        assert manager.has_import("import os")

    def test_from_import_subset(self):
        manager = ImportManager("from flask import Flask, request\n")
        assert manager.has_import("from flask import Flask")
        assert not manager.has_import("from flask import escape")

    def test_missing_module(self):
        manager = ImportManager("import os\n")
        assert not manager.has_import("import json")

    def test_aliased_import(self):
        manager = ImportManager("import numpy as np\n")
        assert manager.has_import("import numpy")

    def test_multi_module_import_records_every_module(self):
        # regression: "import os, pickle" used to record only "os"
        manager = ImportManager("import os, pickle\n")
        assert manager.has_import("import os")
        assert manager.has_import("import pickle")
        assert not manager.has_import("import json")

    def test_multi_module_request_needs_all_modules(self):
        manager = ImportManager("import os\n")
        assert not manager.has_import("import os, pickle")
        assert ImportManager("import os\nimport pickle\n").has_import(
            "import os, pickle"
        )

    def test_no_duplicate_insert_for_multi_module_import(self):
        source = "import os, pickle\n\npickle.loads(x)\n"
        out = insert_imports(source, ["import pickle"])
        assert out == source

    def test_docstring_import_not_treated_as_import(self):
        source = '"""Usage:\nimport os\n"""\n\nx = 1\n'
        assert not ImportManager(source).has_import("import os")


class TestInsertion:
    def test_after_existing_imports(self):
        source = "import os\nimport sys\n\nx = 1\n"
        out = insert_imports(source, ["import json"])
        lines = out.splitlines()
        assert lines[:3] == ["import os", "import sys", "import json"]

    def test_after_docstring_when_no_imports(self):
        source = '"""Module doc."""\n\nx = 1\n'
        out = insert_imports(source, ["import json"])
        assert out.splitlines()[1] == "import json" or out.splitlines()[2] == "import json"
        assert out.index('"""') < out.index("import json")

    def test_at_top_when_bare(self):
        out = insert_imports("x = 1\n", ["import json"])
        assert out.startswith("import json\n")

    def test_no_duplicates(self):
        source = "import json\n\nx = 1\n"
        out = insert_imports(source, ["import json"])
        assert out.count("import json") == 1

    def test_multiple_statements_ordered(self):
        out = insert_imports("x = 1\n", ["import a", "import b"])
        assert out.index("import a") < out.index("import b")

    def test_indented_import_not_top_level(self):
        source = "def f():\n    import os\n    return os\n"
        manager = ImportManager(source)
        # insertion offset must be 0 (no *top-level* import block)
        assert manager.insertion_offset() == 0

    def test_missing_deduplicates_requests(self):
        manager = ImportManager("x = 1\n")
        assert manager.missing(["import os", "import os", "import re"]) == [
            "import os",
            "import re",
        ]

    def test_insertion_skips_import_inside_docstring(self):
        # regression: the MULTILINE scan used to anchor on the
        # import-shaped line *inside* the docstring, splicing new
        # imports into the middle of the literal
        source = '"""Module doc.\nimport os\nmore prose\n"""\n\nx = 1\n'
        out = insert_imports(source, ["import json"])
        assert compile(out, "<t>", "exec")
        assert out.index('"""\n') < out.index("import json")
        assert "import os\nimport json" not in out

    def test_insertion_after_real_import_with_docstring_decoy(self):
        source = '"""doc\nimport os\n"""\nimport sys\n\nx = 1\n'
        out = insert_imports(source, ["import json"])
        assert "import sys\nimport json\n" in out


class TestPruning:
    def test_dead_plain_import_removed(self):
        source = "import pickle\nimport json\n\ndata = json.loads(x)\n"
        out = prune_unused_imports(source)
        assert "import pickle" not in out
        assert "import json" in out

    def test_from_import_kept_if_any_name_used(self):
        source = "from flask import Flask, escape\n\napp = Flask(__name__)\n"
        assert "escape" in prune_unused_imports(source)

    def test_from_import_removed_if_unused(self):
        source = "from flask import escape\n\nprint('hi')\n"
        assert "escape" not in prune_unused_imports(source)

    def test_dotted_module_binding(self):
        source = "import urllib.request\n\nurllib.request.urlopen(u)\n"
        assert "import urllib.request" in prune_unused_imports(source)

    def test_aliased_binding(self):
        source = "import numpy as np\n\nprint(np.zeros(3))\n"
        assert "import numpy as np" in prune_unused_imports(source)

    def test_indented_imports_untouched(self):
        source = "def f():\n    import os\n    return 1\n"
        assert prune_unused_imports(source) == source

    def test_word_boundary_respected(self):
        # "osmium" must not keep "import os" alive
        source = "import os\n\nosmium = 1\nprint(osmium)\n"
        assert "import os\n" not in prune_unused_imports(source)

    def test_future_import_never_pruned(self):
        # regression: future imports are compiler directives, not
        # bindings — pruning one changes program semantics
        source = "from __future__ import annotations\n\nx = 1\n"
        assert prune_unused_imports(source) == source

    def test_multi_module_import_kept_if_any_binding_used(self):
        # regression: binding extraction saw only the first module
        source = "import os, pickle\n\npickle.loads(x)\n"
        assert "import os, pickle" in prune_unused_imports(source)

    def test_multi_module_import_pruned_when_all_dead(self):
        source = "import os, pickle\n\nprint('hi')\n"
        assert "import os" not in prune_unused_imports(source)

    def test_docstring_import_line_not_pruned(self):
        source = '"""Example:\nimport os\n"""\n\nprint("hi")\n'
        assert prune_unused_imports(source) == source


class TestImportBindings:
    def test_plain_multi_module_with_alias(self):
        assert import_bindings("import os.path as p, pickle") == ["p", "pickle"]

    def test_from_import_aliases(self):
        assert import_bindings("from flask import Flask, request as req") == [
            "Flask",
            "req",
        ]

    def test_dotted_module_binds_first_component(self):
        assert import_bindings("import urllib.request") == ["urllib"]

    def test_non_import_raises(self):
        import pytest

        with pytest.raises(ValueError):
            import_bindings("x = 1")


class TestMargin:
    def test_column_zero_code_empties_the_margin(self):
        assert import_layout("    x = 1\ny = 2\n").margin == ""

    def test_shared_indentation_is_the_margin(self):
        text = "    import os\n\n    # note\n        nested()\n    os.f()\n"
        layout = import_layout(text)
        assert layout.margin == "    "
        assert [line.statement for line in layout.top_level] == ["import os"]

    def test_common_prefix_of_mixed_indentation(self):
        assert import_layout("\t  a\n\tb\n").margin == "\t"
        assert import_layout("\ta\n  b\n").margin == ""

    def test_lines_inside_a_string_do_not_count(self):
        text = '    s = """\nimport os\n"""\n    t = 1\n'
        layout = import_layout(text)
        assert layout.margin == "    "
        assert layout.lines == []

    def test_a_line_that_starts_a_string_counts(self):
        text = '    x = f(\n"abc"\n    )\n'
        assert import_layout(text).margin == ""
        assert import_layout("    s = 'open\nimport os\n").lines[0].indent == ""

    def test_python_line_breaks(self):
        # "\r" alone ends a line, a form feed does not
        layout = import_layout("    import os\r    x = 1\r\n    y\x0c = 2\n")
        assert layout.margin == "    "
        assert [(line.start, line.end) for line in layout.lines] == [(0, 14)]

    def test_indented_snippet_gets_imports_at_its_margin(self):
        text = "    import hashlib\n    h = hashlib.md5(data)\n"
        assert insert_imports(text, ["import shlex"]) == (
            "    import hashlib\n    import shlex\n    h = hashlib.md5(data)\n"
        )
        assert insert_imports("    x = 1\n", ["import a", "import b"]) == (
            "    import a\n    import b\n    x = 1\n"
        )

    def test_indented_snippet_loses_dead_margin_imports(self):
        text = "    import pickle\n    import json\n    if x:\n        import os\n    json.loads(b)\n"
        assert prune_unused_imports(text) == (
            "    import json\n    if x:\n        import os\n    json.loads(b)\n"
        )


# ------------------------------------------------------------------ oracle
# The import layer before the margin: insertion anchored on a column-0
# regex, pruning on its own column-0 test, both now read from
# ``import_layout``.  On a text whose margin is empty the two must agree
# byte for byte.

_OLD_IMPORT_LINE_RE = re.compile(
    r"^(?:import\s+[\w.]+|from\s+[\w.]+\s+import\s+.+)", re.MULTILINE
)


def old_string_spans(source):
    spans = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch == "#":
            newline = source.find("\n", i)
            i = n if newline == -1 else newline + 1
            continue
        if ch in "\"'":
            start = i
            j = start - 1
            while j >= 0 and source[j] in "rRbBuUfF":
                j -= 1
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
                    i += 1
                    break
                i += 1
            spans.append((start, min(i, n)))
            continue
        i += 1
    return spans


class OldImportManager:
    def __init__(self, source):
        self._source = source
        self._string_spans = old_string_spans(source)
        self._existing = []
        offset = 0
        for line in source.splitlines(keepends=True):
            start = offset
            offset += len(line)
            cleaned = line.strip()
            if not cleaned.startswith(("import ", "from ")):
                continue
            if self._string_spans and imports._offset_in_spans(
                start + line.find(cleaned[0]), self._string_spans
            ):
                continue
            try:
                self._existing.extend(imports._parse_imports(cleaned))
            except ValueError:
                continue

    has_import = ImportManager.has_import
    _has_entry = ImportManager._has_entry
    missing = ImportManager.missing

    def insert(self, statements):
        to_add = self.missing(statements)
        if not to_add:
            return self._source
        offset = self.insertion_offset()
        block = "\n".join(to_add) + "\n"
        return self._source[:offset] + block + self._source[offset:]

    def insertion_offset(self):
        last_import_end = -1
        for match in _OLD_IMPORT_LINE_RE.finditer(self._source):
            if imports._offset_in_spans(match.start(), self._string_spans):
                continue
            line_end = self._source.find("\n", match.end())
            last_import_end = len(self._source) if line_end == -1 else line_end + 1
        if last_import_end != -1:
            return last_import_end
        stripped = self._source.lstrip()
        lead = len(self._source) - len(stripped)
        for quote in ('"""', "'''"):
            if stripped.startswith(quote):
                end = stripped.find(quote, len(quote))
                if end != -1:
                    newline = self._source.find("\n", lead + end + len(quote))
                    return len(self._source) if newline == -1 else newline + 1
        return 0


def old_prune_unused_imports(source):
    spans = old_string_spans(source)
    first_use = {}
    kept = []
    offset = 0
    for line in source.splitlines(keepends=True):
        line_start = offset
        offset += len(line)
        stripped = line.strip()
        if not stripped.startswith(("import ", "from ")) or line[:1] in (" ", "\t"):
            kept.append(line)
            continue
        if imports._offset_in_spans(line_start, spans):
            kept.append(line)
            continue
        try:
            entries = imports._parse_imports(stripped)
        except ValueError:
            kept.append(line)
            continue
        if any(module == "__future__" for _kind, module, _names in entries):
            kept.append(line)
            continue
        if any(
            imports._used_outside(source, binding, line_start, offset, first_use)
            for binding in imports.import_bindings(stripped)
        ):
            kept.append(line)
    return "".join(kept)


#: Every import statement a default rule's patch may carry.
PATCH_IMPORTS = sorted(
    {
        statement
        for rule in default_ruleset()
        if rule.patch is not None
        for statement in rule.patch.imports
    }
)


def _agrees_with_the_old_layer(text):
    """False when ``text`` has a margin; else asserts byte identity."""
    if import_layout(text).margin:
        return False
    new, old = ImportManager(text), OldImportManager(text)
    assert new.insertion_offset() == old.insertion_offset()
    for statements in (PATCH_IMPORTS[:1], PATCH_IMPORTS):
        assert new.insert(statements) == old.insert(statements)
    assert prune_unused_imports(text) == old_prune_unused_imports(text)
    return True


def test_an_empty_margin_keeps_the_old_layer_on_the_corpus(flat_samples):
    checked = sum(_agrees_with_the_old_layer(s.source) for s in flat_samples)
    assert checked > 500


def test_an_empty_margin_keeps_the_old_layer_on_mutations(flat_samples):
    @settings(max_examples=300, deadline=None)
    @given(source=mutated_samples([sample.source for sample in flat_samples]))
    def check(source):
        _agrees_with_the_old_layer(source)

    check()
