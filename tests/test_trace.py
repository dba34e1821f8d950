"""Tests for structured tracing, per-finding provenance and the watchdog.

Pins the tracing PR's contract: deterministic span ids (``--jobs 1`` and
``--jobs 4`` emit byte-identical canonical traces), zero-cost disabled
recorders, complete provenance on every ``analyze`` finding, the
slow-rule watchdog's rule-health table, and the surfacing layers (CLI
``--explain``/``--trace``, SARIF, HTML, Prometheus).
"""

import json
import pickle
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro import PatchitPy, ProjectScanner, ScanMetrics
from repro.cli import main
from repro.core.htmlreport import render_html_report
from repro.core.matching import _dedupe_same_cwe_overlaps, run_rules
from repro.core.project import scan_paths
from repro.core.sarif import to_sarif
from repro.observability import (
    NULL_TRACE,
    NullTraceRecorder,
    RuleHealth,
    TraceRecorder,
    format_stats,
    render_explain,
    to_prometheus,
)
from repro.observability.trace import span_id
from repro.types import AnalysisReport, Confidence, Finding, Severity, Span

VULN_PICKLE = "import pickle\n\ndata = pickle.loads(blob)\n"
VULN_MD5 = "import hashlib\n\nh = hashlib.md5(secret_value)\n"
VULN_YAML = 'import yaml\n\ny = yaml.load(open("f"))\n'
CLEAN = "def add(a, b):\n    return a + b\n"
NOSEC = "import pickle\n\ndata = pickle.loads(blob)  # nosec\n"


@pytest.fixture
def tree(tmp_path):
    (tmp_path / "a.py").write_text(VULN_PICKLE)
    (tmp_path / "b.py").write_text(VULN_MD5)
    (tmp_path / "c.py").write_text(CLEAN)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "d.py").write_text(VULN_YAML + VULN_PICKLE)
    (tmp_path / "pkg" / "e.py").write_text(CLEAN)
    return tmp_path


class TestRecorder:
    def test_span_ids_are_content_derived(self):
        assert span_id("", "scan", "root", 0) == span_id("", "scan", "root", 0)
        assert span_id("", "scan", "root", 0) != span_id("", "scan", "root", 1)
        assert span_id("p1", "rule", "R", 0) != span_id("p2", "rule", "R", 0)

    def test_children_are_parented_to_open_span(self):
        t = TraceRecorder()
        outer = t.begin("scan", "root")
        inner = t.begin("file", "a.py")
        t.event("cache-lookup", "a.py", outcome="miss")
        t.end(inner, findings=0)
        t.end(outer, files=1)
        by_id = {e["id"]: e for e in t.events}
        assert by_id[inner]["parent"] == outer
        lookup = next(e for e in t.events if e["kind"] == "cache-lookup")
        assert lookup["parent"] == inner
        assert by_id[outer]["parent"] is None
        # children are emitted before their parent closes
        assert t.events[-1]["id"] == outer

    def test_same_name_siblings_get_distinct_ids(self):
        t = TraceRecorder()
        first = t.event("rule", "R")
        second = t.event("rule", "R")
        assert first != second

    def test_canonical_jsonl_strips_only_timing(self):
        t = TraceRecorder()
        sid = t.begin("rule", "R")
        t.end(sid, outcome="no-match", matches=0)
        assert "dur_ms" in t.to_jsonl()
        canonical = t.canonical_jsonl()
        assert "dur_ms" not in canonical
        assert '"outcome": "no-match"' in canonical

    def test_merge_reparents_top_level_events(self):
        scan = TraceRecorder()
        root = scan.begin("scan", "r")
        worker = TraceRecorder()
        fid = worker.begin("file", "a.py")
        worker.event("rule", "R")
        worker.end(fid)
        scan.merge(worker, parent=root)
        scan.end(root)
        file_event = next(e for e in scan.events if e["kind"] == "file")
        assert file_event["parent"] == root
        rule_event = next(e for e in scan.events if e["kind"] == "rule")
        assert rule_event["parent"] == fid

    def test_merge_none_and_disabled_are_noops(self):
        t = TraceRecorder()
        assert t.merge(None) is t
        assert t.merge(NullTraceRecorder()) is t
        assert t.events == []

    def test_null_recorder_pickles_to_singleton(self):
        assert pickle.loads(pickle.dumps(NULL_TRACE)) is NULL_TRACE
        assert not NULL_TRACE.enabled
        assert NULL_TRACE.begin("scan", "x") == ""
        assert NULL_TRACE.to_jsonl() == ""

    def test_write_jsonl(self, tmp_path):
        t = TraceRecorder()
        t.event("rule", "R", outcome="no-match")
        target = t.write_jsonl(tmp_path / "trace.jsonl")
        lines = target.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["kind"] == "rule"


class TestTracedDetect:
    def test_findings_identical_to_untraced(self):
        engine = PatchitPy()
        plain = engine.detect(VULN_PICKLE + VULN_MD5)
        traced = engine.detect(VULN_PICKLE + VULN_MD5, trace=TraceRecorder())
        assert [f.to_dict() | {"provenance": None} for f in traced] == [
            f.to_dict() | {"provenance": None} for f in plain
        ]
        assert all(f.provenance is not None for f in traced)
        assert all(f.provenance is None for f in plain)

    def test_rule_spans_cover_every_rule(self):
        engine = PatchitPy()
        t = TraceRecorder()
        engine.detect(VULN_PICKLE, trace=t)
        rule_events = [e for e in t.events if e["kind"] == "rule"]
        assert len(rule_events) == len(list(engine.rules))
        outcomes = {e["outcome"] for e in rule_events}
        assert "matched" in outcomes
        assert "prefilter-skip" in outcomes

    def test_guard_veto_recorded(self):
        engine = PatchitPy()
        t = TraceRecorder()
        findings = engine.detect(NOSEC, trace=t)
        assert findings == []
        vetoed = [
            e
            for e in t.events
            if e["kind"] == "guard-decision" and e["vetoed"]
        ]
        assert vetoed, "nosec veto not traced"
        rule_events = [e for e in t.events if e["kind"] == "rule" and e["vetoes"]]
        assert rule_events

    def test_traced_detect_also_feeds_metrics(self):
        engine = PatchitPy()
        metrics = ScanMetrics()
        engine.detect(VULN_PICKLE, metrics=metrics, trace=TraceRecorder())
        assert metrics.counters["findings"] >= 1
        assert metrics.rules


class TestProvenance:
    def test_provenance_names_prefilter_and_guards(self):
        engine = PatchitPy()
        [finding] = engine.detect(VULN_YAML, trace=TraceRecorder())
        prov = finding.provenance
        assert prov.rule_id == finding.rule_id
        assert prov.prefilter_passed
        assert prov.matched_span == (finding.span.start, finding.span.end)
        descriptions = [g.description for g in prov.guards]
        assert any("nosec" in d for d in descriptions)
        assert not prov.vetoed
        # the patch preview is rendered at detection time
        assert prov.patch is not None
        assert "safe_load" in prov.patch.replacement

    def test_analyze_attaches_provenance_untraced(self):
        report = PatchitPy().analyze(VULN_PICKLE + VULN_MD5, patch=True)
        assert report.findings
        for finding in report.findings:
            assert finding.provenance is not None
            assert finding.provenance.rule_id == finding.rule_id
            assert finding.provenance.guards
        patchable = [f for f in report.findings if f.fixable]
        assert patchable
        assert all(f.provenance.patch is not None for f in patchable)

    def test_explain_renders_guard_verdicts_and_patch(self):
        engine = PatchitPy()
        report = engine.analyze(VULN_YAML, patch=True)
        text = engine.explain(VULN_YAML, report.findings[0])
        assert "fired" in text
        assert "[pass]" in text
        assert "safe_load" in text

    def test_explain_without_provenance_points_at_flags(self):
        finding = Finding(
            rule_id="X",
            cwe_id="CWE-1",
            message="m",
            span=Span(0, 1),
        )
        assert "--explain" in render_explain(finding)

    def test_finding_dict_roundtrip_preserves_provenance(self):
        engine = PatchitPy()
        [finding] = engine.detect(VULN_YAML, trace=TraceRecorder())
        restored = Finding.from_dict(finding.to_dict())
        assert restored == finding  # provenance excluded from equality
        assert restored.provenance is not None
        assert restored.provenance.to_dict() == finding.provenance.to_dict()

    def test_untraced_finding_keeps_pre_1_2_shape(self):
        [finding] = PatchitPy().detect(VULN_YAML)
        assert "provenance" not in finding.to_dict()

    def test_provenance_survives_the_scan_cache(self, tree):
        tracer = TraceRecorder()
        ProjectScanner(trace=tracer).scan(tree, use_cache=True)
        warm = ProjectScanner().scan(tree, use_cache=True)
        assert warm.cache_hits == 5
        cached_findings = [f for r in warm.files for f in r.findings]
        assert cached_findings
        assert all(f.provenance is not None for f in cached_findings)


class TestParallelDeterminism:
    def test_jobs1_vs_jobs4_traces_byte_identical(self, tree):
        t1 = TraceRecorder()
        r1 = ProjectScanner(trace=t1).scan(tree, jobs=1)
        t4 = TraceRecorder()
        r4 = ProjectScanner(trace=t4).scan(tree, jobs=4, processes=True)
        assert t1.canonical_jsonl() == t4.canonical_jsonl()
        assert t1.canonical_jsonl()  # non-empty
        prov1 = [
            [f.provenance.to_dict() for f in r.findings] for r in r1.files
        ]
        prov4 = [
            [f.provenance.to_dict() for f in r.findings] for r in r4.files
        ]
        assert prov1 == prov4

    def test_trace_is_one_connected_tree(self, tree):
        t = TraceRecorder()
        ProjectScanner(trace=t).scan(tree, jobs=1)
        ids = {e["id"] for e in t.events}
        roots = [e for e in t.events if e["parent"] is None]
        assert [e["kind"] for e in roots] == ["scan"]
        for event in t.events:
            if event["parent"] is not None:
                assert event["parent"] in ids
        scan_event = roots[0]
        assert scan_event["files"] == 5
        file_events = [e for e in t.events if e["kind"] == "file"]
        assert len(file_events) == 5

    def test_warm_scan_traces_cache_hits(self, tree):
        ProjectScanner().scan(tree, use_cache=True)
        t = TraceRecorder()
        ProjectScanner(trace=t).scan(tree, use_cache=True)
        lookups = [e for e in t.events if e["kind"] == "cache-lookup"]
        assert len(lookups) == 5
        assert all(e["outcome"] == "hit" for e in lookups)

    def test_scan_paths_forwards_trace(self, tree):
        t = TraceRecorder()
        report = scan_paths([tree], trace=t)
        assert report.total_findings
        assert any(e["kind"] == "scan" for e in t.events)


class TestWatchdog:
    def test_tiny_budget_flags_slow_rules(self, tree):
        metrics = ScanMetrics()
        scanner = ProjectScanner(metrics=metrics, slow_rule_budget_ms=0.0000001)
        scanner.scan(tree, jobs=1)
        assert metrics.rule_health, "no rule breached an (almost) zero budget"
        entry = next(iter(metrics.rule_health.values()))
        assert entry.breaches >= 1
        assert entry.worst_file.endswith(".py")
        assert entry.worst_ms > 0
        assert metrics.counters["slow_rule_breaches"] >= len(metrics.rule_health)

    def test_none_budget_disables_watchdog(self, tree):
        metrics = ScanMetrics()
        ProjectScanner(metrics=metrics, slow_rule_budget_ms=None).scan(tree)
        assert metrics.rule_health == {}
        assert "slow_rule_breaches" not in metrics.counters

    def test_rule_health_in_format_stats(self):
        metrics = ScanMetrics()
        health = metrics.health_for("PIT-X")
        health.note("slow.py", 120.0)
        text = format_stats(metrics)
        assert "rule health" in text
        assert "slow.py" in text
        assert "120.0ms" in text

    def test_rule_health_merge_is_deterministic(self):
        # same worst_ms on two files: the lexicographically smaller path
        # wins regardless of merge order (associativity requirement)
        a = RuleHealth()
        a.note("b.py", 80.0)
        b = RuleHealth()
        b.note("a.py", 80.0)
        ab = RuleHealth()
        ab.merge(a)
        ab.merge(b)
        ba = RuleHealth()
        ba.merge(b)
        ba.merge(a)
        assert ab.to_dict() == ba.to_dict()
        assert ab.worst_file == "a.py"
        assert ab.breaches == 2

    def test_rule_health_serialization_roundtrip(self):
        metrics = ScanMetrics()
        metrics.health_for("PIT-X").note("f.py", 75.5)
        restored = ScanMetrics.from_dict(metrics.to_dict())
        assert restored.rule_health["PIT-X"].to_dict() == {
            "breaches": 1,
            "worst_ms": 75.5,
            "worst_file": "f.py",
        }


class TestPrometheusEscaping:
    def _metrics_with_hostile_rule(self):
        metrics = ScanMetrics()
        rule_id = 'bad"rule\\id'
        stats = metrics.rule_stats(rule_id)
        stats.calls = 1
        stats.time_s = 0.5
        health = metrics.health_for(rule_id)
        health.note('dir\\file"name.py', 90.0)
        return metrics, rule_id

    def test_rule_labels_escape_quotes_and_backslashes(self):
        metrics, _ = self._metrics_with_hostile_rule()
        payload = to_prometheus(metrics)
        assert 'rule="bad\\"rule\\\\id"' in payload
        assert 'file="dir\\\\file\\"name.py"' in payload
        # no raw (unescaped) quote or backslash survives inside a label
        for line in payload.splitlines():
            if line.startswith("#") or "{" not in line:
                continue
            label_part = line[line.index("{") : line.rindex("}")]
            assert '\\"' in label_part or '"bad' not in label_part

    def test_rule_health_families_exported(self):
        metrics, _ = self._metrics_with_hostile_rule()
        payload = to_prometheus(metrics)
        assert "patchitpy_rule_slow_breaches" in payload
        assert "patchitpy_rule_worst_file_ms" in payload


class TestSarif:
    def test_default_shape_unchanged_without_metrics(self):
        report = PatchitPy().analyze(VULN_PICKLE, patch=False)
        # strip provenance to mimic a pre-1.2 caller's findings
        report.findings = [f.with_provenance(None) for f in report.findings]
        log = to_sarif(report)
        run = log["runs"][0]
        assert "invocations" not in run
        assert all("provenance" not in r["properties"] for r in run["results"])

    def test_provenance_and_metrics_embedded(self):
        metrics = ScanMetrics()
        engine = PatchitPy(metrics=metrics)
        report = engine.analyze(VULN_PICKLE, patch=False)
        log = to_sarif(report, metrics=metrics)
        run = log["runs"][0]
        result = run["results"][0]
        prov = result["properties"]["provenance"]
        assert prov["rule_id"] == result["ruleId"]
        assert prov["guards"]
        invocation = run["invocations"][0]
        assert invocation["executionSuccessful"] is True
        snapshot = invocation["properties"]["metrics"]
        assert snapshot["counters"]["findings"] >= 1
        json.dumps(log)  # fully serializable

    def test_parse_failed_notification_still_present(self):
        metrics = ScanMetrics()
        report = AnalysisReport(
            tool="patchitpy", source="x = (", findings=[], parse_failed=True
        )
        metrics.count("findings", 0)
        log = to_sarif(report, metrics=metrics)
        invocation = log["runs"][0]["invocations"][0]
        assert invocation["toolExecutionNotifications"]
        assert "metrics" in invocation["properties"]


class TestHtml:
    def test_report_includes_provenance_details(self, tree):
        tracer = TraceRecorder()
        report = ProjectScanner(trace=tracer).scan(tree)
        document = render_html_report(report)
        assert "provenance" in document
        assert "nosec" in document

    def test_report_includes_rule_health(self, tree):
        metrics = ScanMetrics()
        scanner = ProjectScanner(metrics=metrics, slow_rule_budget_ms=0.0000001)
        report = scanner.scan(tree)
        document = render_html_report(report)
        assert "Rule health" in document


class TestCli:
    def test_explain_prints_provenance(self, tmp_path, capsys):
        target = tmp_path / "app.py"
        target.write_text(VULN_YAML)
        code = main(["scan", str(target), "--explain"])
        out = capsys.readouterr().out
        assert code == 1
        assert "fired" in out
        assert "[pass]" in out
        assert "safe_load" in out

    def test_trace_writes_jsonl(self, tmp_path, capsys):
        target = tmp_path / "app.py"
        target.write_text(VULN_PICKLE)
        trace_file = tmp_path / "trace.jsonl"
        code = main(["scan", str(target), "--trace", str(trace_file)])
        assert code == 1
        assert "trace written" in capsys.readouterr().out
        events = [json.loads(line) for line in trace_file.read_text().splitlines()]
        assert any(e["kind"] == "rule" for e in events)

    def test_directory_trace_explain_and_budget(self, tree, capsys):
        trace_file = tree / "trace.jsonl"
        code = main(
            [
                "scan",
                str(tree),
                "--no-cache",
                "--explain",
                "--trace",
                str(trace_file),
                "--stats",
                "--slow-rule-budget-ms",
                "0.0000001",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "fired" in out
        assert "rule health" in out
        assert trace_file.exists()
        events = [json.loads(line) for line in trace_file.read_text().splitlines()]
        assert any(e["kind"] == "scan" for e in events)
        assert any(e["kind"] == "file" for e in events)

    def test_zero_budget_disables_watchdog(self, tree, capsys):
        code = main(
            ["scan", str(tree), "--no-cache", "--stats", "--slow-rule-budget-ms", "0"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "rule health" not in out

    def test_sarif_includes_provenance_and_metrics(self, tmp_path, capsys):
        target = tmp_path / "app.py"
        target.write_text(VULN_PICKLE)
        code = main(["scan", str(target), "--format", "sarif", "--stats"])
        out = capsys.readouterr().out
        assert code == 1
        log = json.loads(out[: out.rindex("}") + 1])
        result = log["runs"][0]["results"][0]
        assert "provenance" in result["properties"]
        assert "invocations" in log["runs"][0]


class TestDedupe:
    @staticmethod
    def _finding(cwe, start, end, rule="R"):
        return Finding(
            rule_id=rule,
            cwe_id=cwe,
            message="m",
            span=Span(start, end),
            severity=Severity.MEDIUM,
            confidence=Confidence.MEDIUM,
        )

    @staticmethod
    def _reference(findings):
        # the pre-optimization quadratic implementation, kept as the oracle
        kept = []
        for finding in findings:
            duplicate = any(
                other.cwe_id == finding.cwe_id and other.span.overlaps(finding.span)
                for other in kept
            )
            if not duplicate:
                kept.append(finding)
        return kept

    def test_equivalent_to_quadratic_reference(self):
        import itertools

        cwes = ["CWE-1", "CWE-2"]
        spans = [(0, 4), (2, 6), (4, 4), (4, 8), (5, 9), (9, 12)]
        findings = sorted(
            (
                self._finding(cwe, start, end, rule=f"R{i}")
                for i, ((start, end), cwe) in enumerate(
                    itertools.product(spans, cwes)
                )
            ),
            key=lambda f: (f.span.start, f.span.end, f.rule_id),
        )
        assert _dedupe_same_cwe_overlaps(findings) == self._reference(findings)

    def test_zero_length_spans_do_not_mask_overlaps(self):
        # kept [5,10) then zero-length [10,10): a later [9,11) overlaps the
        # *first* span — pruning must not have discarded it
        findings = [
            self._finding("CWE-1", 5, 10, "A"),
            self._finding("CWE-1", 10, 10, "B"),
            self._finding("CWE-1", 10, 11, "C"),
        ]
        assert _dedupe_same_cwe_overlaps(findings) == self._reference(findings)

    def test_run_rules_still_dedupes(self):
        findings = run_rules(PatchitPy().rules, VULN_PICKLE + VULN_MD5)
        spans_by_cwe = {}
        for finding in findings:
            for other in spans_by_cwe.get(finding.cwe_id, []):
                assert not other.overlaps(finding.span)
            spans_by_cwe.setdefault(finding.cwe_id, []).append(finding.span)


class TestHotPathLint:
    def test_lint_script_passes(self):
        root = Path(__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, str(root / "scripts" / "check_hot_path_isolation.py"), str(root)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_lint_rejects_an_eager_facade_import(self, tmp_path):
        root = Path(__file__).resolve().parent.parent
        shutil.copytree(
            root / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__")
        )
        facade = tmp_path / "src" / "repro" / "core" / "__init__.py"
        facade.write_text(facade.read_text() + "\nfrom repro.core.engine import PatchitPy\n")
        proc = subprocess.run(
            [sys.executable, str(root / "scripts" / "check_hot_path_isolation.py"), str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1, proc.stdout + proc.stderr
        line = len(facade.read_text().splitlines())
        assert f"{facade}:{line}: import-time import of repro.core.engine" in proc.stdout

    def test_lint_rejects_an_ide_splice_path(self, tmp_path):
        root = Path(__file__).resolve().parent.parent
        shutil.copytree(
            root / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__")
        )
        ide = tmp_path / "src" / "repro" / "ide"
        extension = ide / "extension.py"
        extension.write_text(
            extension.read_text()
            + "\n\ndef _splice(engine, text):\n"
            + "    from ..core import patcher\n"
            + "    return engine.render_patches(text, [])\n"
        )
        protocol = ide / "protocol.py"
        protocol.write_text(
            protocol.read_text() + "\nfrom repro.core.imports import ImportManager\n"
        )
        proc = subprocess.run(
            [sys.executable, str(root / "scripts" / "check_hot_path_isolation.py"), str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1, proc.stdout + proc.stderr
        last = len(extension.read_text().splitlines())
        assert f"{extension}:{last - 1}: imports repro.core.patcher" in proc.stdout
        assert f"{extension}:{last}: uses render_patches" in proc.stdout
        line = len(protocol.read_text().splitlines())
        assert f"{protocol}:{line}: imports repro.core.imports" in proc.stdout
