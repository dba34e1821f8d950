"""Tests for the PatchitPy engine: detect → patch → verify."""

import pytest

from repro import PatchitPy, default_ruleset
from repro.core.patcher import apply_patches
from repro.core.rules import RuleSet
from repro.types import Patch, Span

SQLI = '''import sqlite3

def lookup(uid):
    conn = sqlite3.connect("db")
    cur = conn.cursor()
    cur.execute(f"SELECT * FROM users WHERE id = {uid}")
    return cur.fetchone()
'''

MULTI_VULN = '''from flask import Flask, request
import pickle

app = Flask(__name__)

@app.route("/load", methods=["POST"])
def load():
    state = pickle.loads(request.data)
    return f"<p>{state}</p>"

if __name__ == "__main__":
    app.run(debug=True)
'''


class TestDetect:
    def test_sql_injection_found(self, engine):
        findings = engine.detect(SQLI)
        assert any(f.cwe_id == "CWE-089" for f in findings)

    def test_clean_code_clean(self, engine):
        clean = 'import sqlite3\n\ndef f(uid):\n    cur.execute("SELECT * FROM t WHERE id=?", (uid,))\n'
        assert engine.detect(clean) == []

    def test_multi_vuln_all_found(self, engine):
        cwes = {f.cwe_id for f in engine.detect(MULTI_VULN)}
        assert {"CWE-502", "CWE-079", "CWE-209"} <= cwes

    def test_is_vulnerable(self, engine):
        assert engine.is_vulnerable(SQLI)
        assert not engine.is_vulnerable("print('hello')\n")

    def test_incomplete_snippet_still_detected(self, engine):
        incomplete = "```python\n" + SQLI + "```\n"
        assert engine.is_vulnerable(incomplete)

    def test_indented_fragment_still_detected(self, engine):
        indented = "\n".join("    " + line for line in SQLI.splitlines())
        assert engine.is_vulnerable(indented)


class TestPatch:
    def test_sql_injection_patched(self, engine):
        result = engine.patch(SQLI)
        assert 'cur.execute("SELECT * FROM users WHERE id = ?", (uid,))' in result.patched
        assert not engine.is_vulnerable(result.patched)

    def test_multi_vuln_fixed_point(self, engine):
        result = engine.patch(MULTI_VULN)
        assert engine.detect(result.patched) == []
        assert "json.loads(request.data)" in result.patched
        assert "escape(state)" in result.patched
        assert "debug=False" in result.patched

    def test_imports_inserted_once(self, engine):
        result = engine.patch(MULTI_VULN)
        assert result.patched.count("import json") == 1
        assert result.patched.count("from flask import escape") == 1

    def test_unused_import_pruned(self, engine):
        result = engine.patch(MULTI_VULN)
        assert "import pickle" not in result.patched

    def test_prune_can_be_disabled(self):
        engine = PatchitPy(prune_imports=False)
        result = engine.patch(MULTI_VULN)
        assert "import pickle" in result.patched

    def test_patch_idempotent(self, engine):
        once = engine.patch(SQLI).patched
        twice = engine.patch(once).patched
        assert once == twice

    def test_clean_input_unchanged(self, engine):
        clean = "def f():\n    return 1\n"
        result = engine.patch(clean)
        assert result.patched == clean
        assert not result.changed

    def test_unpatchable_findings_reported(self, engine):
        ssrf = (
            "import requests\nfrom flask import Flask, request\n"
            'data = requests.get(request.args.get("url"), timeout=5)\n'
        )
        result = engine.patch(ssrf)
        assert any(f.cwe_id == "CWE-918" for f in result.unpatchable)

    def test_detection_only_rule_leaves_source(self, engine):
        source = "exec(payload)\n"
        result = engine.patch(source)
        assert "exec(payload)" in result.patched

    def test_max_passes_validation(self):
        with pytest.raises(ValueError):
            PatchitPy(max_passes=0)

    def test_applied_patch_metadata(self, engine):
        result = engine.patch(SQLI)
        assert result.applied
        assert all(p.rule_id.startswith("PIT-") for p in result.applied)


class TestRenderPatchesSpanAnchoring:
    """Regression: the search fallback must not render a patch from one
    match and splice it at another finding's stale span."""

    def test_stale_span_reanchors_to_actual_match(self, engine):
        source = "data = pickle.loads(blob)\n"
        [finding] = [f for f in engine.detect(source) if f.cwe_id == "CWE-502"]
        stale = finding.with_span(
            Span(finding.span.start - 3, finding.span.end - 3)
        )
        patches = engine.render_patches(source, [stale])
        assert len(patches) == 1
        # the patch is anchored where the pattern actually matched, not at
        # the stale span it was handed
        assert patches[0].span == finding.span
        patched = apply_patches(source, patches).source
        assert "json.loads(blob)" in patched
        assert "pickle.loads" not in patched

    def test_stale_span_does_not_corrupt_earlier_text(self, engine):
        source = "safe = 1  # placeholder\nx = pickle.loads(a)\n"
        [finding] = [f for f in engine.detect(source) if f.cwe_id == "CWE-502"]
        # a span pointing at the harmless first line: the pattern's only
        # match is later, so the patch must land there
        stale = finding.with_span(Span(0, 8))
        patches = engine.render_patches(source, [stale])
        assert len(patches) == 1
        patched = apply_patches(source, patches).source
        assert "safe = 1  # placeholder\n" in patched
        assert "json.loads(a)" in patched

    def test_exact_span_unchanged(self, engine):
        source = "data = pickle.loads(blob)\n"
        [finding] = [f for f in engine.detect(source) if f.cwe_id == "CWE-502"]
        patches = engine.render_patches(source, [finding])
        assert patches[0].span == finding.span


class TestAnalyze:
    def test_report_includes_patches(self, engine):
        report = engine.analyze(SQLI)
        assert report.findings and report.patches
        assert report.patched_source is not None

    def test_report_without_patching(self, engine):
        report = engine.analyze(SQLI, patch=False)
        assert report.findings and not report.patches


class TestApplyPatches:
    def test_ordered_application(self):
        source = "aaa bbb ccc"
        patches = [
            Patch("R1", "CWE-089", Span(0, 3), "XXX"),
            Patch("R2", "CWE-089", Span(8, 11), "YYY"),
        ]
        outcome = apply_patches(source, patches)
        assert outcome.source == "XXX bbb YYY"

    def test_overlap_skipped(self):
        source = "aaa bbb"
        patches = [
            Patch("R1", "CWE-089", Span(0, 5), "XXX"),
            Patch("R2", "CWE-089", Span(3, 7), "YYY"),
        ]
        outcome = apply_patches(source, patches)
        assert outcome.source == "XXXbb"
        assert len(outcome.skipped) == 1

    def test_import_insertion(self):
        source = "import os\n\nx = bad()\n"
        patches = [Patch("R1", "CWE-095", Span(15, 20), "good()", new_imports=("import ast",))]
        outcome = apply_patches(source, patches)
        assert "import ast" in outcome.source
        assert outcome.source.index("import ast") > outcome.source.index("import os")


class TestCorpusLevelInvariants:
    """Property-style invariants over the real generated corpus."""

    def test_patch_never_raises(self, engine, flat_samples):
        for sample in flat_samples[:150]:
            engine.patch(sample.source)

    def test_patched_not_worse(self, engine, flat_samples):
        # patching must never create rule matches that were absent before
        for sample in flat_samples[:150]:
            before = {f.rule_id for f in engine.detect(sample.source)}
            after = {f.rule_id for f in engine.detect(engine.patch(sample.source).patched)}
            assert after <= before

    def test_custom_ruleset_respected(self):
        single = RuleSet([default_ruleset().get("PIT-A08-01")])
        engine = PatchitPy(rules=single)
        assert engine.is_vulnerable("pickle.loads(x)")
        assert not engine.is_vulnerable("eval(x)")


class _ScanLog(PatchitPy):
    """Records the text of every detect it runs."""

    def __init__(self) -> None:
        super().__init__()
        self.scanned = []

    def detect(self, source, metrics=None, trace=None):
        self.scanned.append(source)
        return super().detect(source, metrics, trace)


def _repeats(texts):
    seen, repeats = set(), []
    for text in texts:
        if text in seen:
            repeats.append(text)
        seen.add(text)
    return repeats


class TestEachTextDetectedOnce:
    """A request detects each distinct text once; only the submitted
    source may be re-scanned, when the caller handed its findings in."""

    def test_patch_detects_each_text_once(self, flat_samples):
        engine = _ScanLog()
        for sample in flat_samples:
            engine.scanned = []
            engine.patch(sample.source)
            assert _repeats(engine.scanned) == [], sample.sample_id

    def test_daemon_request_rescans_at_most_the_source(self, flat_samples):
        from repro.server.app import analyze_payload

        engine = _ScanLog()
        source_rescans = 0
        for sample in flat_samples:
            engine.scanned = []
            analyze_payload(engine, sample.source, patch=True)
            repeats = _repeats(engine.scanned)
            assert all(text == sample.source for text in repeats), sample.sample_id
            assert len(repeats) <= 1, sample.sample_id
            source_rescans += len(repeats)
        assert source_rescans < len(flat_samples) // 4

    def test_subset_callers_see_the_full_final_finding_set(self, flat_samples):
        engine = PatchitPy()

        def unpatchable(text):
            return [f.to_dict() for f in engine.detect(text) if not f.fixable]

        checked = 0
        for sample in flat_samples:
            findings = engine.detect(sample.source)
            if not findings:
                continue
            for subset in ([], [f for f in findings if f.fixable][:1]):
                result = engine.patch(sample.source, subset)
                if any(v.reverted for v in result.verdicts):
                    continue  # a full revert reports the subset it started from
                got = [f.to_dict() for f in result.unpatchable]
                assert got == unpatchable(result.patched), sample.sample_id
                checked += 1
        assert checked > 100

    def test_rendered_is_the_submitted_source_render(self, flat_samples):
        engine = PatchitPy()
        for sample in flat_samples[:200]:
            findings = engine.detect(sample.source)
            result = engine.patch(sample.source, findings)
            expected = engine.render_patches(sample.source, findings)
            assert [p.to_dict() for p in result.rendered] == [
                p.to_dict() for p in expected
            ]
