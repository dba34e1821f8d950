"""Tests for the IDE layer: document model, edits, extension workflow."""

import pytest

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


VULN_DOC = '''import pickle

def restore(blob):
    return pickle.loads(blob)
'''


class TestExtension:
    def test_full_document_flow(self):
        doc = TextDocument(VULN_DOC)
        session = PatchitPyExtension().assess_selection(doc)
        assert session.findings
        assert session.applied_edit_count >= 1
        assert "json.loads(blob)" in doc.get_text()
        assert "import json" in doc.get_text()
        assert session.imports_added == ["import json"]

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
