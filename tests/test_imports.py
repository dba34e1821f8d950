"""Tests for the import manager (insertion + pruning)."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PatchitPy, imports
from repro.core.imports import (
    ImportManager,
    import_bindings,
    import_layout,
    insert_imports,
    prune_unused_imports,
    string_spans,
)
from repro.core.rules import default_ruleset
from repro.core.verify import syntax_context
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

    def test_a_text_without_a_final_line_break_gets_one_before_the_imports(self):
        # regression: the block was glued onto the last line
        assert insert_imports('"""doc"""', ["import yaml"]) == '"""doc"""\nimport yaml\n'
        assert insert_imports("import os", ["import yaml"]) == "import os\nimport yaml\n"
        assert insert_imports("import os\r", ["import yaml"]) == "import os\rimport yaml\n"

    def test_patch_after_a_last_import_without_a_line_break(self):
        # regression: "import osimport yaml", which pruning then dropped
        result = PatchitPy().patch("data = yaml.load(b)\nimport os")
        assert "import yaml" in result.patched.splitlines()
        assert [verdict.status for verdict in result.verdicts] == ["verified"]

    @pytest.mark.parametrize(
        "line", ["import )", 'import ")', "from flask import # c", "from flask import  # c"]
    )
    def test_an_import_line_that_names_nothing_is_no_anchor(self, line):
        # regression: "import )" (a truncated snippet) anchored the block
        source = f"{line}\nx = 1\n"
        assert insert_imports(source, ["import yaml"]) == "import yaml\n" + source

    def test_a_from_import_at_a_line_end_does_not_read_the_next_line(self):
        source = "from flask import\ndef f():\n    pass\n"
        assert insert_imports(source, ["import yaml"]) == "import yaml\n" + source


class TestInsertionAboveAUse:
    """New imports go above the first margin-level statement that uses a
    name they bind, when that statement comes before the last import:
    below it, the name is unbound when the statement runs."""

    def test_a_module_level_use(self):
        result = PatchitPy().patch("data = yaml.load(b)\nimport os")
        # the regression: "data = yaml.safe_load(b)\nimport yaml\n", a NameError
        assert result.patched == "import yaml\ndata = yaml.safe_load(b)\n"
        assert [verdict.status for verdict in result.verdicts] == ["verified"]

    def test_a_use_inside_an_indented_top_level_block(self):
        source = "import sys\nif sys.argv:\n    data = yaml.load(b)\nimport os\n"
        out = insert_imports(source, ["import yaml"])
        assert out == "import sys\nimport yaml\nif sys.argv:\n    data = yaml.load(b)\nimport os\n"

    def test_a_use_inside_a_def_body_keeps_the_placement(self):
        # the body runs when called, after every top-level import
        source = "import sys\ndef load(b):\n    return yaml.load(b)\nimport os\n"
        assert insert_imports(source, ["import yaml"]) == source + "import yaml\n"

    def test_a_decorated_def_keeps_its_decorator(self):
        source = "@yaml.dec\ndef load(b):\n    pass\nimport os\n"
        assert insert_imports(source, ["import yaml"]) == "import yaml\n" + source

    def test_a_class_body_runs_at_once(self):
        source = "import sys\nclass C:\n    y = yaml.z\nimport os\n"
        out = insert_imports(source, ["import yaml"])
        assert out == "import sys\nimport yaml\nclass C:\n    y = yaml.z\nimport os\n"

    @pytest.mark.parametrize(
        "source",
        [
            "s = 'yaml.load'\nimport os\n",
            "s = 1  # yaml.load\nimport os\n",
            "s = '#'  # yaml.load\nimport os\n",
            '"""yaml.load"""\nimport os\n',
            "s = myyaml.load\nimport os\n",
            "s = x.yaml\nimport os\n",
        ],
    )
    def test_names_in_strings_comments_or_other_words_are_no_use(self, source):
        assert insert_imports(source, ["import yaml"]) == source + "import yaml\n"

    def test_a_continuation_line_belongs_to_its_statement(self):
        for source in (
            "import sys\nx = [\nyaml.load(b)]\nimport os\n",
            "import sys\nx = f(a, \\\nyaml.q)\nimport os\n",
        ):
            out = insert_imports(source, ["import yaml"])
            assert out == source.replace("\nx = ", "\nimport yaml\nx = ", 1)
            assert compile(out, "<t>", "exec")

    @pytest.mark.parametrize(
        "source",
        [
            "import sys\nif c:\n    pass\nelse:\n    data = yaml.load(b)\nimport os\n",
            "import sys\nif c:\n    pass\nelif yaml.d:\n    pass\nimport os\n",
            "import sys\ntry:\n    pass\nexcept ValueError:\n    data = yaml.load(b)\nimport os\n",
            "import sys\ntry:\n    pass\nexcept(ValueError):\n    pass\n"
            "finally:\n    data = yaml.load(b)\nimport os\n",
            "import sys\nfor i in c:\n    pass\nelse :\n    data = yaml.load(b)\nimport os\n",
        ],
    )
    def test_a_clause_belongs_to_its_compound_statement(self, source):
        # "else:", "elif", "except" and "finally:" continue the statement
        # above them: the block goes above that statement, not between
        # its clauses
        out = insert_imports(source, ["import yaml"])
        assert out == source.replace("import sys\n", "import sys\nimport yaml\n", 1)
        assert compile(out, "<t>", "exec")

    def test_a_clause_use_patches_and_verifies(self):
        source = "import sys\ntry:\n    pass\nexcept ValueError:\n    data = yaml.load(b)\nimport os\n"
        result = PatchitPy().patch(source)
        # before the fix, "import yaml" landed above "except", a
        # SyntaxError the verifier reverted, and yaml.load stayed
        assert result.patched == (
            "import yaml\ntry:\n    pass\nexcept ValueError:\n    data = yaml.safe_load(b)\n"
        )
        assert [verdict.status for verdict in result.verdicts] == ["verified"]

    def test_a_statement_that_is_no_import_binds_nothing(self):
        source = "x = 1\nimport os\n"
        assert insert_imports(source, ["not an import"]) == source + "not an import\n"

    def test_each_binding_of_the_block_counts(self):
        source = "import sys\nh = sha256(d)\nimport os\n"
        out = insert_imports(source, ["import json", "from hashlib import sha256"])
        assert out == "import sys\nimport json\nfrom hashlib import sha256\n" + (
            "h = sha256(d)\nimport os\n"
        )


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


#: A parenthesized from-import whose name the code uses.
FLASK_IMPORT = "from flask import (\n    Flask,\n)\n"


class TestParenthesizedFromImport:
    """A from-import whose names sit in parentheses is one statement up
    to its closing ``)``: before, its first line was read alone, with
    ``(`` for its names."""

    def test_a_used_import_is_kept_whole(self):
        # regression: pruning dropped "from flask import (" alone
        source = FLASK_IMPORT + "app = Flask(__name__)\n"
        assert prune_unused_imports(source) == source

    def test_an_unused_import_goes_whole(self):
        assert prune_unused_imports(FLASK_IMPORT + "x = 1\n") == "x = 1\n"

    def test_new_imports_go_in_after_the_closing_parenthesis(self):
        # regression: "import yaml" went in between "(" and "Flask,"
        source = FLASK_IMPORT + "x = 1\n"
        assert insert_imports(source, ["import yaml"]) == (
            FLASK_IMPORT + "import yaml\nx = 1\n"
        )

    def test_the_patch_beside_it_verifies(self):
        # regression: the insertion split the statement, so the verifier
        # reverted the patch as syntax-broken
        source = FLASK_IMPORT + "app = Flask(__name__)\nx = pickle.loads(b)\n"
        result = PatchitPy().patch(source)
        assert [verdict.status for verdict in result.verdicts] == ["verified"]
        assert result.patched == (
            FLASK_IMPORT + "import json\napp = Flask(__name__)\nx = json.loads(b)\n"
        )

    def test_comments_aliases_and_a_trailing_comma(self):
        source = (
            "from a.b import (  # why (not)\n"
            "    c,  # a ) in a comment\n"
            "    d\n    as e,\n"
            ")  # done\n"
            "print(c)\n"
        )
        (line,) = import_layout(source).lines
        assert (line.start, line.end) == (0, source.index("print"))
        assert line.statement == "from a.b import c, d as e"
        assert line.entries == [("from", "a.b", frozenset({"c", "d"}))]
        assert import_bindings(line.statement) == line.bindings == ["c", "e"]
        assert ImportManager(source).has_import("from a.b import d")
        assert prune_unused_imports(source) == source

    def test_on_one_line(self):
        (line,) = import_layout("from m import (a, b)\n").lines
        assert line.statement == "from m import a, b"

    @pytest.mark.parametrize(
        "source",
        [
            "from m import (\n    a,\nx = 1\n",  # never closed
            "from m import ()\nx = 1\n",
            "from m import (,)\nx = 1\n",
            "from m import (a b)\nx = 1\n",
            "from m import (a,, b)\nx = 1\n",
        ],
    )
    def test_what_python_would_not_read_is_no_import(self, source):
        assert import_layout(source).lines == []
        assert prune_unused_imports(source) == source
        assert insert_imports(source, ["import yaml"]) == "import yaml\n" + source

    def test_its_lines_are_neither_code_nor_imports(self):
        source = "    from m import (\n  a,\n)\n    print(a)\n"
        layout = import_layout(source)
        assert layout.margin == "    "
        assert [line.statement for line in layout.top_level] == ["from m import a"]


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

    @pytest.mark.parametrize("statement", ["import )", "import , os", "from m import  # c"])
    def test_an_import_that_names_nothing_raises(self, statement):
        with pytest.raises(ValueError):
            import_bindings(statement)

    def test_each_statement_is_parsed_once(self, monkeypatch):
        from repro.core import verify

        parse = imports.parse_import
        parsed = []

        def counting(statement):
            parsed.append(statement)
            return parse(statement)

        monkeypatch.setattr(imports, "parse_import", counting)
        monkeypatch.setattr(verify, "parse_import", counting)
        source = "import os\nfrom a import b as c\nx = 1\n"
        assert prune_unused_imports(source) == "x = 1\n"
        assert parsed == ["import os", "from a import b as c"]
        bindings = verify._Bindings(source)
        del parsed[:]
        assert bindings.collisions(["import os", "import x", "from m import n"]) == {
            "x": "assignment"
        }
        assert parsed == ["import os", "import x", "from m import n"]


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

#: Its column-0 regex, less two slips the line walk does not make: its
#: ``\s`` crossed a line break, so ``from flask import`` at a line's end
#: took the next line for its names and new imports went in below that
#: line, and its ``.+`` took a comment for the names.
_OLD_IMPORT_LINE_RE = re.compile(
    r"^(?:import[^\S\n]+[\w.]+|from[^\S\n]+[\w.]+[^\S\n]+import[^\S\n]+[^#\s])",
    re.MULTILINE,
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
                self._existing.extend(imports.parse_import(cleaned).entries)
            except ValueError:
                continue

    has_import = ImportManager.has_import
    has_parsed = ImportManager.has_parsed
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
            entries = imports.parse_import(stripped).entries
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


def _old_insert(old, statements):
    """The old insertion, plus the line break it left out before the
    block at the end of a text without a final one."""
    text, offset = old._source, old.insertion_offset()
    out = old.insert(statements)
    if out != text and offset and text[offset - 1] not in "\r\n":
        out = out[:offset] + "\n" + out[offset:]
    return out


#: Where the old layer read a from-import's first line alone.
_PAREN_FROM = re.compile(r"from\s+[\w.]+\s+import\s*\(")


def _agrees_with_the_old_layer(text):
    """False when ``text`` has a margin or a parenthesized from-import
    (:class:`TestParenthesizedFromImport`); else asserts byte identity
    (but for the line break :func:`_old_insert` adds)."""
    if import_layout(text).margin or _PAREN_FROM.search(text):
        return False
    new, old = ImportManager(text), OldImportManager(text)
    assert new.insertion_offset() == old.insertion_offset()
    for statements in (PATCH_IMPORTS[:1], PATCH_IMPORTS):
        missing = new.missing(statements)
        offset = new.insertion_offset(missing)
        if offset == old.insertion_offset():
            assert new.insert(statements) == _old_insert(old, statements)
        else:
            # A statement above the old point uses a name the block
            # binds (TestInsertionAboveAUse): the same block goes in
            # above that statement, never between the lines or the
            # clauses of one statement.
            assert offset < old.insertion_offset()
            assert text[offset - 1 : offset] in ("", "\n", "\r")
            block = "".join(f"{statement}\n" for statement in missing)
            inserted = new.insert(statements)
            assert inserted == text[:offset] + block + text[offset:]
            if syntax_context(text) is not None:
                assert syntax_context(inserted) is not None
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


# ------------------------------------------------------ string-literal spans
# ``string_spans`` as a per-character state machine, before it jumped
# between the characters that matter with compiled searches: the oracle
# the lexer must equal on any text.


def char_loop_string_spans(source):
    spans = []
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "#":
            i = imports._LINE_RE.match(source, i).end()
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
                if len(quote) == 1 and source[i] in "\r\n":
                    break
                i += 1
            spans.append((start, min(i, n)))
            continue
        i += 1
    return spans


class TestStringSpans:
    @settings(max_examples=2000, deadline=None)
    @given(st.text(alphabet="#'\"\\\r\nrRbBuUfFx_\u00e9 ", max_size=40))
    def test_equals_the_character_loop_on_lexical_noise(self, text):
        assert string_spans(text) == char_loop_string_spans(text)

    def test_equals_the_character_loop_on_the_corpus(self, flat_samples):
        for sample in flat_samples:
            assert string_spans(sample.source) == char_loop_string_spans(sample.source)

    def test_equals_the_character_loop_on_mutations(self, flat_samples):
        @settings(max_examples=300, deadline=None)
        @given(source=mutated_samples([sample.source for sample in flat_samples]))
        def check(source):
            assert string_spans(source) == char_loop_string_spans(source)

        check()

    @pytest.mark.parametrize(
        "source, spans",
        [
            ("x = rb'a' + f\"{b}\"\n", [(4, 9), (12, 18)]),
            ("xr'a'\n", [(2, 5)]),  # a name's last letter is no prefix
            ("s = 'cut\r\nt = 1\n", [(4, 8)]),
            ("d = '''open", [(4, 11)]),
            ("e = 'a\\\nb'\n", [(4, 10)]),  # an escaped line break
            ("# it's\nq = '#'\n", [(11, 14)]),
        ],
    )
    def test_literals_prefixes_and_comments(self, source, spans):
        assert string_spans(source) == char_loop_string_spans(source) == spans
