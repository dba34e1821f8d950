"""Tests for the IDE layer: document model, edits, extension workflow."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PatchitPy
from repro.exceptions import DocumentError
from repro.ide import (
    EditBuilder,
    PatchitPyExtension,
    Position,
    Range,
    TextDocument,
    TextEdit,
    WorkspaceEdit,
)
from repro.ide.edits import line_diff

SAMPLE = "line one\nline two\nline three\n"


class TestPosition:
    def test_ordering(self):
        assert Position(0, 5) < Position(1, 0)
        assert Position(1, 2) < Position(1, 3)

    def test_negative_rejected(self):
        with pytest.raises(DocumentError):
            Position(-1, 0)


class TestRange:
    def test_reversed_rejected(self):
        with pytest.raises(DocumentError):
            Range(Position(2, 0), Position(1, 0))

    def test_contains(self):
        r = Range(Position(0, 0), Position(1, 4))
        assert r.contains(Position(0, 7))
        assert not r.contains(Position(2, 0))

    def test_is_empty(self):
        assert Range(Position(1, 1), Position(1, 1)).is_empty


class TestTextDocument:
    def test_line_count(self):
        assert TextDocument(SAMPLE).line_count == 4  # trailing newline → empty last line

    def test_line_text(self):
        doc = TextDocument(SAMPLE)
        assert doc.line_text(1) == "line two"

    def test_offset_roundtrip(self):
        crlf = SAMPLE.replace("\n", "\r\n")
        for text in (SAMPLE, crlf, SAMPLE.rstrip("\n"), ""):
            doc = TextDocument(text)
            # lines split on "\n" only: a CRLF line keeps its "\r"
            lines = text.split("\n")
            assert doc.line_count == len(lines), text
            assert [doc.line_text(i) for i in range(len(lines))] == lines
            for offset in range(len(text) + 1):
                line = text.count("\n", 0, offset)
                column = offset - (text.rfind("\n", 0, offset) + 1)
                assert doc.position_at(offset) == Position(line, column), (text, offset)
                assert doc.offset_at(doc.position_at(offset)) == offset
            assert doc.full_range().end == doc.position_at(len(text))

    def test_offset_at_position(self):
        doc = TextDocument(SAMPLE)
        assert doc.offset_at(Position(1, 0)) == 9

    def test_position_beyond_line_rejected(self):
        doc = TextDocument(SAMPLE)
        with pytest.raises(DocumentError):
            doc.offset_at(Position(0, 99))

    def test_bad_line_rejected(self):
        with pytest.raises(DocumentError):
            TextDocument(SAMPLE).line_text(99)

    def test_get_text_range(self):
        doc = TextDocument(SAMPLE)
        r = Range(Position(0, 5), Position(1, 4))
        assert doc.get_text(r) == "one\nline"

    def test_replace_updates_version(self):
        doc = TextDocument(SAMPLE)
        version = doc.version
        doc.replace(Range(Position(0, 0), Position(0, 4)), "LINE")
        assert doc.version == version + 1
        assert doc.line_text(0) == "LINE one"

    def test_range_of_lines(self):
        doc = TextDocument(SAMPLE)
        r = doc.range_of_lines(0, 1)
        assert doc.get_text(r) == "line one\nline two"


class TestEditBuilder:
    def test_batch_apply_reverse_order(self):
        doc = TextDocument("abc def ghi")
        builder = EditBuilder(doc)
        builder.replace(Range(doc.position_at(0), doc.position_at(3)), "XXX")
        builder.replace(Range(doc.position_at(8), doc.position_at(11)), "YYY")
        assert builder.apply() == 2
        assert doc.get_text() == "XXX def YYY"

    def test_insert(self):
        doc = TextDocument("ab")
        builder = EditBuilder(doc)
        builder.insert(Position(0, 1), "X")
        builder.apply()
        assert doc.get_text() == "aXb"

    def test_delete(self):
        doc = TextDocument("abcd")
        builder = EditBuilder(doc)
        builder.delete(Range(Position(0, 1), Position(0, 3)))
        builder.apply()
        assert doc.get_text() == "ad"

    def test_overlap_rejected_atomically(self):
        doc = TextDocument("abcdef")
        builder = EditBuilder(doc)
        builder.replace(Range(Position(0, 0), Position(0, 4)), "X")
        builder.replace(Range(Position(0, 2), Position(0, 6)), "Y")
        with pytest.raises(DocumentError):
            builder.apply()
        assert doc.get_text() == "abcdef"  # nothing applied

    def test_static_constructors(self):
        edit = TextEdit.insert(Position(0, 0), "x")
        assert edit.range.is_empty
        assert TextEdit.delete(Range(Position(0, 0), Position(0, 1))).new_text == ""


class TestWorkspaceEdit:
    def test_multi_document(self):
        doc_a = TextDocument("aaa", uri="file:///a.py")
        doc_b = TextDocument("bbb", uri="file:///b.py")
        ws = WorkspaceEdit()
        ws.replace(doc_a, Range(Position(0, 0), Position(0, 3)), "AAA")
        ws.insert(doc_b, Position(0, 0), "B")
        assert ws.apply() == 2
        assert doc_a.get_text() == "AAA"
        assert doc_b.get_text() == "Bbbb"

    def test_overlap_leaves_every_document_unchanged(self):
        doc_a = TextDocument("aaa", uri="file:///a.py")
        doc_b = TextDocument("abcdef", uri="file:///b.py")
        ws = WorkspaceEdit()
        ws.replace(doc_a, Range(Position(0, 0), Position(0, 3)), "AAA")
        ws.replace(doc_b, Range(Position(0, 0), Position(0, 4)), "X")
        ws.replace(doc_b, Range(Position(0, 2), Position(0, 6)), "Y")
        with pytest.raises(DocumentError):
            ws.apply()
        assert (doc_a.get_text(), doc_b.get_text()) == ("aaa", "abcdef")


#: Lines with every ending ``str.splitlines`` knows of, and non-ASCII text.
TEXTS = st.lists(
    st.sampled_from(
        ["a\n", "b\r\n", "\u00e9 \u00fc\n", "\r", "x", "\u2028", "\x0c", "\n", "    import os\n"]
    ),
    max_size=12,
).map("".join)


def _applied(before, edits):
    """``before`` with ``edits`` applied through an :class:`EditBuilder`."""
    document = TextDocument(before)
    builder = EditBuilder(document)
    for start, end, new_text in edits:
        builder.replace(
            Range(document.position_at(start), document.position_at(end)), new_text
        )
    assert builder.apply() == len(edits)
    return document.get_text()


class TestLineDiff:
    @settings(max_examples=300, deadline=None)
    @given(before=TEXTS, after=TEXTS)
    def test_applied_edits_give_the_new_text(self, before, after):
        edits = line_diff(before, after)
        assert all(a[1] < b[0] for a, b in zip(edits, edits[1:]))
        assert _applied(before, edits) == after

    def test_long_text_with_popular_lines(self):
        # from 200 lines up, lines that fill over 1% of the text are junk
        lines = [
            line
            for i in range(150)
            for line in (f"v{i} = f({i})\n", "\n", "    return x\n")
        ]
        before = "".join(lines)
        lines[9] = "v3 = g(3)\n"
        lines[301] = "\r\n"
        lines.insert(0, "import os\n")
        after = "".join(lines)
        edits = line_diff(before, after)
        assert len(edits) == 3
        assert _applied(before, edits) == after

    def test_unchanged_lines_are_left_alone(self):
        assert line_diff(SAMPLE, SAMPLE) == []
        assert line_diff("a\r\n\u03b2\r\nc\r\n", "a\r\n\u03b3\r\nc\r\n") == [
            (3, 6, "\u03b3\r\n")
        ]
        assert line_diff("x\n", "import os\nx\n") == [(0, 0, "import os\n")]


VULN_DOC = '''import pickle

def restore(blob):
    return pickle.loads(blob)
'''

TWIN_MD5 = "import hashlib\na = hashlib.md5(x)\nb = hashlib.md5(y)\n"


class TestExtension:
    def test_full_document_flow(self):
        doc = TextDocument(VULN_DOC)
        session = PatchitPyExtension().assess_selection(doc)
        assert session.findings
        assert session.applied_edit_count >= 1
        assert "json.loads(blob)" in doc.get_text()
        assert "import json" in doc.get_text()
        assert session.imports_added == ["import json"]

    def test_ships_the_verified_patch(self):
        doc = TextDocument(VULN_DOC)
        PatchitPyExtension().assess_selection(doc)
        assert doc.get_text() == PatchitPy().patch(VULN_DOC).patched
        assert "import pickle" not in doc.get_text()  # pruned, not left dead

    def test_clean_document_popup(self):
        doc = TextDocument("x = 1\n")
        session = PatchitPyExtension().assess_selection(doc)
        assert session.findings == []
        assert len(session.popups) == 1
        assert "No vulnerable patterns" in session.popups[0].body

    def test_selection_scoped(self):
        combined = VULN_DOC + "\nimport hashlib\nh = hashlib.md5(b'x')\n"
        doc = TextDocument(combined)
        selection = doc.range_of_lines(0, 3)
        session = PatchitPyExtension().assess_selection(doc, selection)
        assert {f.cwe_id for f in session.findings} == {"CWE-502"}
        # md5 outside the selection untouched
        assert "hashlib.md5" in doc.get_text()

    def test_selected_findings_carry_document_offsets(self):
        doc = TextDocument("x = 1\n" + VULN_DOC)
        extension = PatchitPyExtension(popup_handler=lambda popup: False)
        session = extension.assess_selection(doc, doc.range_of_lines(1, 4))
        (finding,) = session.findings
        assert doc.get_text()[finding.span.start : finding.span.end] == "pickle.loads(blob)"
        assert "line   5" in session.popups[0].body

    def test_declined_twin_keeps_the_accepted_one_unpatched(self):
        # both calls match the same text, so they share one identity
        doc = TextDocument(TWIN_MD5)
        answers = iter([True, False])
        extension = PatchitPyExtension(popup_handler=lambda popup: next(answers))
        session = extension.assess_selection(doc)
        assert len(session.findings) == 2
        assert session.withheld == session.accepted == session.findings[:1]
        assert "left unpatched" in session.popups[-1].body
        assert doc.get_text() == TWIN_MD5
        assert session.applied_edit_count == 0

    def test_twin_outside_the_selection_keeps_the_selected_one_unpatched(self):
        doc = TextDocument(TWIN_MD5)
        session = PatchitPyExtension().assess_selection(doc, doc.range_of_lines(1, 1))
        assert session.withheld == session.accepted == session.findings
        assert len(session.findings) == 1
        assert doc.get_text() == TWIN_MD5

    def test_accepted_twins_are_patched_together(self):
        doc = TextDocument(TWIN_MD5)
        session = PatchitPyExtension().assess_selection(doc)
        assert len(session.accepted) == 2 and session.withheld == []
        assert doc.get_text() == TWIN_MD5.replace("md5", "sha256")

    def test_patch_prunes_every_unused_import(self):
        # Breaking since 6.0.0: patch() drops each top-level import that
        # nothing uses, also one no patch touched, and the extension
        # ships that text even for a one-line selection
        text = "import sys\nimport hashlib\nh = hashlib.md5(d)\n"
        doc = TextDocument(text)
        PatchitPyExtension().assess_selection(doc, doc.range_of_lines(2, 2))
        assert doc.get_text() == "import hashlib\nh = hashlib.sha256(d)\n"

    def test_decline_all(self):
        doc = TextDocument(VULN_DOC)
        extension = PatchitPyExtension(popup_handler=lambda popup: False)
        session = extension.assess_selection(doc)
        assert session.findings and not session.accepted
        assert doc.get_text() == VULN_DOC

    def test_popup_per_finding(self):
        doc = TextDocument(VULN_DOC)
        session = PatchitPyExtension().assess_selection(doc)
        assert len(session.popups) == len(session.findings)
