"""Unit tests for the core datatypes."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.types import (
    AnalysisReport,
    CodeSample,
    Confidence,
    Finding,
    GeneratorName,
    LineIndex,
    Patch,
    Prompt,
    PromptSource,
    Severity,
    Span,
    iter_lines_with_offsets,
    line_of_offset,
    merge_spans,
)


class TestSpan:
    def test_length(self):
        assert Span(2, 10).length == 8

    def test_empty_span_allowed(self):
        assert Span(5, 5).length == 0

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            Span(-1, 4)

    def test_end_before_start_rejected(self):
        with pytest.raises(ValueError):
            Span(4, 2)

    def test_overlap_true(self):
        assert Span(0, 5).overlaps(Span(4, 9))

    def test_overlap_symmetric(self):
        assert Span(4, 9).overlaps(Span(0, 5))

    def test_adjacent_spans_do_not_overlap(self):
        assert not Span(0, 5).overlaps(Span(5, 9))

    def test_contains(self):
        assert Span(0, 10).contains(Span(2, 8))
        assert not Span(0, 10).contains(Span(2, 12))

    def test_shift(self):
        assert Span(2, 4).shift(3) == Span(5, 7)


class TestLineOfOffset:
    def test_first_line(self):
        assert line_of_offset("abc\ndef\n", 0) == 1

    def test_second_line(self):
        assert line_of_offset("abc\ndef\n", 4) == 2

    def test_offset_at_end(self):
        assert line_of_offset("abc\ndef", 7) == 2

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            line_of_offset("abc", 10)


# Newline-dense text, so the generated offsets actually cross line
# boundaries; "\r" is deliberately included because the index treats it
# as ordinary text (only "\n" separates lines).
_LINEY = st.text(alphabet="ab\n\r", max_size=60)


class TestLineIndex:
    def test_matches_line_of_offset_on_simple_source(self):
        source = "abc\ndef\n"
        index = LineIndex(source)
        for offset in range(len(source) + 1):
            assert index.line_of(offset) == line_of_offset(source, offset)

    def test_empty_source_has_one_line(self):
        index = LineIndex("")
        assert len(index) == 1
        assert index.line_of(0) == 1
        assert index.line_text(0) == ""

    def test_out_of_range_rejected(self):
        index = LineIndex("abc")
        with pytest.raises(ValueError):
            index.line_of(10)
        with pytest.raises(ValueError):
            index.line_bounds(-1)

    def test_line_start_inverts_line_of(self):
        source = "ab\n\ncd"
        index = LineIndex(source)
        assert [index.line_start(line) for line in (1, 2, 3)] == [0, 3, 4]
        for offset in range(len(source) + 1):
            assert index.line_start(index.line_of(offset)) <= offset
        for line in (0, 4):
            with pytest.raises(ValueError):
                index.line_start(line)

    def test_line_text_keeps_carriage_return(self):
        # "\r\n" terminators: "\r" is ordinary text on its line
        index = LineIndex("one\r\ntwo\r\n")
        assert index.line_text(0) == "one\r"
        assert index.line_text(5) == "two\r"

    def test_bounds_do_not_force_the_start_table(self):
        index = LineIndex("a\nb\nc")
        assert index.line_bounds(2) == (2, 3)
        assert index._starts is None  # rfind/find path, no table built
        assert index.line_of(2) == 2
        assert index._starts is not None

    @given(_LINEY, st.integers(min_value=0, max_value=60))
    @settings(max_examples=200, deadline=None)
    @example("", 0)
    @example("no trailing newline", 5)
    @example("a\r\nb\r\n", 3)
    @example("\r", 1)
    @example("\n\n\n", 2)
    def test_line_of_agrees_with_count(self, source, offset):
        offset = min(offset, len(source))
        index = LineIndex(source)
        # the naive oracles the index replaces
        assert index.line_of(offset) == source.count("\n", 0, offset) + 1
        assert index.line_of(offset) == line_of_offset(source, offset)

    @given(_LINEY, st.integers(min_value=0, max_value=60))
    @settings(max_examples=200, deadline=None)
    @example("", 0)
    @example("tail", 4)
    @example("a\r\nb", 2)
    def test_line_text_agrees_with_split(self, source, offset):
        offset = min(offset, len(source))
        index = LineIndex(source)
        expected = source.split("\n")[index.line_of(offset) - 1]
        assert index.line_text(offset) == expected
        start, end = index.line_bounds(offset)
        assert source[start:end] == expected
        assert start <= offset <= end + 1  # offset may sit on the newline

    @given(_LINEY)
    @settings(max_examples=100, deadline=None)
    @example("")
    @example("a\nb\nc")
    def test_length_counts_split_lines(self, source):
        assert len(LineIndex(source)) == len(source.split("\n"))

    @given(_LINEY, st.integers(min_value=0, max_value=60))
    @settings(max_examples=100, deadline=None)
    def test_built_and_unbuilt_paths_agree(self, source, offset):
        offset = min(offset, len(source))
        unbuilt = LineIndex(source)
        bounds_first = unbuilt.line_bounds(offset)  # rfind/find, no table
        built = LineIndex(source)
        built.line_of(offset)  # forces the start table
        assert built.line_bounds(offset) == bounds_first


class TestMergeSpans:
    def test_empty(self):
        assert merge_spans([]) == ()

    def test_disjoint_kept(self):
        assert merge_spans([Span(0, 2), Span(5, 7)]) == (Span(0, 2), Span(5, 7))

    def test_overlapping_merged(self):
        assert merge_spans([Span(0, 5), Span(3, 9)]) == (Span(0, 9),)

    def test_adjacent_merged(self):
        assert merge_spans([Span(0, 5), Span(5, 9)]) == (Span(0, 9),)

    def test_unsorted_input(self):
        assert merge_spans([Span(5, 9), Span(0, 5)]) == (Span(0, 9),)


class TestIterLines:
    def test_offsets(self):
        rows = list(iter_lines_with_offsets("ab\ncd\n"))
        assert rows == [(1, 0, "ab"), (2, 3, "cd")]

    def test_no_trailing_newline(self):
        rows = list(iter_lines_with_offsets("ab\ncd"))
        assert rows[-1] == (2, 3, "cd")


class TestReport:
    def _finding(self, cwe="CWE-089"):
        return Finding(rule_id="R1", cwe_id=cwe, message="m", span=Span(0, 1))

    def test_vulnerable_when_findings(self):
        report = AnalysisReport(tool="t", source="x", findings=[self._finding()])
        assert report.is_vulnerable

    def test_not_vulnerable_when_empty(self):
        assert not AnalysisReport(tool="t", source="x").is_vulnerable

    def test_cwes_sorted_unique(self):
        report = AnalysisReport(
            tool="t",
            source="x",
            findings=[self._finding("CWE-502"), self._finding("CWE-089"), self._finding("CWE-502")],
        )
        assert report.cwes() == ("CWE-089", "CWE-502")

    def test_findings_for(self):
        report = AnalysisReport(
            tool="t", source="x", findings=[self._finding("CWE-089"), self._finding("CWE-502")]
        )
        assert len(report.findings_for("CWE-089")) == 1


class TestPatch:
    def test_noop(self):
        patch = Patch(rule_id="R", cwe_id="CWE-089", span=Span(3, 3), replacement="")
        assert patch.is_noop()

    def test_not_noop_with_imports(self):
        patch = Patch(
            rule_id="R", cwe_id="CWE-089", span=Span(3, 3), replacement="", new_imports=("import os",)
        )
        assert not patch.is_noop()


class TestPromptAndSample:
    def test_prompt_token_count(self):
        prompt = Prompt(
            prompt_id="X-1",
            source=PromptSource.SECURITYEVAL,
            text="three little words",
            cwe_ids=("CWE-089",),
            scenario_key="sql_user_lookup",
        )
        assert prompt.token_count == 3

    def test_sample_vulnerability_flag(self):
        prompt = Prompt(
            prompt_id="X-1",
            source=PromptSource.LLMSECEVAL,
            text="t",
            cwe_ids=(),
            scenario_key="s",
        )
        sample = CodeSample(
            sample_id="m:X-1",
            generator=GeneratorName.COPILOT,
            prompt=prompt,
            source="print(1)",
            true_cwe_ids=("CWE-089",),
            variant_key="v",
        )
        assert sample.is_vulnerable
        safe = CodeSample(
            sample_id="m:X-2",
            generator=GeneratorName.CLAUDE,
            prompt=prompt,
            source="print(1)",
            true_cwe_ids=(),
            variant_key="v",
        )
        assert not safe.is_vulnerable


class TestEnums:
    def test_severity_str(self):
        assert str(Severity.HIGH) == "high"

    def test_confidence_str(self):
        assert str(Confidence.LOW) == "low"

    def test_generator_values(self):
        assert {g.value for g in GeneratorName} == {"copilot", "claude", "deepseek"}
