"""Tests for the observability subsystem: collector, merge, exporters, CLI.

The pinned contracts:

- per-rule counters are **identical** between a serial scan and a
  ``jobs=4`` process-parallel scan of the same tree (wall times may
  differ; counts may not);
- :meth:`ScanMetrics.merge` is associative, so worker snapshots can be
  folded in any completion order;
- the default no-op collector records nothing and leaves reports in
  their pre-observability shape (``report.metrics is None``);
- the exporters produce parseable JSON and well-formed Prometheus text;
- the CLI surfaces (``--stats``, ``--metrics``) and the new argument
  contract (``--in-place`` validation, exit codes) behave as documented.
"""

import json
import warnings
from pathlib import Path

import pytest

from repro import (
    NULL_METRICS,
    PatchitPy,
    ProjectScanner,
    RuleStats,
    ScanMetrics,
)
from repro.cli import main
from repro.observability import (
    dumps_json,
    format_stats,
    metrics_to_dict,
    to_prometheus,
)

VULN_PICKLE = "import pickle\n\ndata = pickle.loads(blob)\n"
VULN_MD5 = "import hashlib\n\nh = hashlib.md5(secret_value)\n"
CLEAN = "def add(a, b):\n    return a + b\n"
NOSEC = "import pickle\n\ndata = pickle.loads(blob)  # nosec\n"


@pytest.fixture()
def tree(tmp_path):
    (tmp_path / "a.py").write_text(VULN_PICKLE)
    (tmp_path / "b.py").write_text(VULN_MD5)
    (tmp_path / "c.py").write_text(CLEAN)
    (tmp_path / "d.py").write_text(NOSEC)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "e.py").write_text(VULN_PICKLE + VULN_MD5)
    (tmp_path / "pkg" / "f.py").write_text(CLEAN)
    return tmp_path


def _counter_view(metrics: ScanMetrics) -> dict:
    """The deterministic slice of a snapshot: every count, no wall times.

    ``slow_rule_breaches`` is a count *of* wall-time events (watchdog
    budget overruns), so it is excluded along with the timings.
    """
    return {
        "rules": {
            rule_id: {
                k: v for k, v in stats.to_dict().items() if k != "time_s"
            }
            for rule_id, stats in metrics.rules.items()
        },
        "counters": {
            k: v for k, v in metrics.counters.items() if k != "slow_rule_breaches"
        },
        "file_paths": sorted(metrics.files),
    }


class TestCollector:
    def test_rule_stats_created_on_first_use(self):
        metrics = ScanMetrics()
        stats = metrics.rule_stats("R1")
        stats.matches += 3
        assert metrics.rules["R1"].matches == 3

    def test_detect_records_per_rule_counters(self):
        metrics = ScanMetrics()
        engine = PatchitPy(metrics=metrics)
        findings = engine.detect(VULN_PICKLE)
        assert findings
        assert metrics.counters["detect_calls"] == 1
        assert metrics.counters["findings"] == len(findings)
        assert metrics.timers["detect_time_s"] > 0
        # every rule in the catalog was offered the file exactly once
        assert {stats.calls for stats in metrics.rules.values()} == {1}
        total_matches = sum(s.matches for s in metrics.rules.values())
        assert total_matches >= len(findings)
        # the clean-miss rules were mostly spared by the prefilter
        assert sum(s.prefilter_skips for s in metrics.rules.values()) > 0

    def test_guard_veto_counted(self):
        metrics = ScanMetrics()
        engine = PatchitPy(metrics=metrics)
        assert engine.detect(NOSEC) == []
        assert sum(s.guard_vetoes for s in metrics.rules.values()) >= 1

    def test_patch_counters(self):
        metrics = ScanMetrics()
        engine = PatchitPy(metrics=metrics)
        result = engine.patch(VULN_PICKLE)
        assert result.applied
        assert metrics.counters["patch_calls"] == 1
        assert metrics.counters["patch_passes"] >= 1
        assert metrics.counters["patches_applied"] == len(result.applied)
        assert metrics.timers["patch_time_s"] > 0

    def test_analyze_accepts_new_keyword(self):
        metrics = ScanMetrics()
        engine = PatchitPy(metrics=metrics)
        report = engine.analyze(VULN_PICKLE, patch=False)
        assert report.findings and not report.patches
        assert metrics.counters["detect_calls"] == 1

    def test_snapshot_is_independent(self):
        metrics = ScanMetrics()
        metrics.count("detect_calls", 2)
        copy = metrics.snapshot()
        copy.count("detect_calls", 5)
        assert metrics.counters["detect_calls"] == 2


class TestMerge:
    def _sample(self, rule_id, matches, calls, counter):
        m = ScanMetrics()
        stats = m.rule_stats(rule_id)
        stats.matches = matches
        stats.calls = calls
        stats.time_s = 0.25 * calls
        m.count("detect_calls", counter)
        m.add_time("detect_time_s", 0.5)
        m.record_file(f"/{rule_id}.py", 0.125)
        return m

    def test_merge_is_associative(self):
        a1, b1, c1 = (
            self._sample("R1", 1, 2, 3),
            self._sample("R2", 4, 5, 6),
            self._sample("R1", 7, 8, 9),
        )
        a2, b2, c2 = (
            self._sample("R1", 1, 2, 3),
            self._sample("R2", 4, 5, 6),
            self._sample("R1", 7, 8, 9),
        )
        left = ScanMetrics().merge(ScanMetrics().merge(a1).merge(b1)).merge(c1)
        right = ScanMetrics().merge(a2).merge(ScanMetrics().merge(b2).merge(c2))
        assert metrics_to_dict(left) == metrics_to_dict(right)

    def test_merge_is_commutative_on_counters(self):
        ab = ScanMetrics().merge(self._sample("R1", 1, 1, 1)).merge(
            self._sample("R2", 2, 2, 2)
        )
        ba = ScanMetrics().merge(self._sample("R2", 2, 2, 2)).merge(
            self._sample("R1", 1, 1, 1)
        )
        assert metrics_to_dict(ab) == metrics_to_dict(ba)

    def test_merge_none_and_disabled_are_noops(self):
        m = self._sample("R1", 1, 1, 1)
        before = metrics_to_dict(m)
        m.merge(None)
        m.merge(NULL_METRICS)
        assert metrics_to_dict(m) == before

    def test_null_merge_absorbs(self):
        assert NULL_METRICS.merge(ScanMetrics()) is NULL_METRICS
        assert metrics_to_dict(NULL_METRICS) == {
            "rules": {},
            "counters": {},
            "timers": {},
            "files": {},
            "rule_health": {},
            "durations": {},
        }


class TestScanParity:
    """Serial and process-parallel scans must agree on every counter."""

    def _scan(self, tree, jobs):
        metrics = ScanMetrics()
        scanner = ProjectScanner(metrics=metrics)
        report = scanner.scan(tree, jobs=jobs, processes=jobs > 1)
        assert report.metrics is metrics
        return report, metrics

    def test_serial_vs_process_parallel_totals(self, tree):
        serial_report, serial = self._scan(tree, jobs=1)
        parallel_report, parallel = self._scan(tree, jobs=4)
        assert [f.path for f in serial_report.files] == [
            f.path for f in parallel_report.files
        ]
        assert _counter_view(serial) == _counter_view(parallel)
        assert serial.counters["files_scanned"] == 6
        assert serial.counters["detect_calls"] == 6
        assert serial.counters["findings"] == serial_report.total_findings

    def test_per_file_durations_recorded(self, tree):
        _, metrics = self._scan(tree, jobs=1)
        assert len(metrics.files) == 6
        assert all(duration >= 0 for duration in metrics.files.values())
        assert metrics.timers["file_time_s"] == pytest.approx(
            sum(metrics.files.values())
        )
        assert metrics.timers["scan_time_s"] > 0

    def test_cache_counters_flow_into_metrics(self, tree):
        cold = ScanMetrics()
        ProjectScanner(metrics=cold).scan(tree, use_cache=True)
        assert cold.counters["cache_misses"] == 6
        assert "cache_hits" not in cold.counters or cold.counters["cache_hits"] == 0

        warm = ScanMetrics()
        ProjectScanner(metrics=warm).scan(tree, use_cache=True)
        assert warm.counters["cache_hits"] == 6
        assert warm.cache_hit_rate() == 1.0
        assert warm.counters["files_from_cache"] == 6
        # zero analysis happened, so no per-rule traffic at all
        assert warm.rules == {}

    def test_stale_hint_counted(self, tree):
        ProjectScanner(metrics=ScanMetrics()).scan(tree, use_cache=True)
        target = tree / "a.py"
        target.write_text(VULN_PICKLE + "\n# extended\n")
        rescan = ScanMetrics()
        ProjectScanner(metrics=rescan).scan(tree, use_cache=True)
        assert rescan.counters["cache_stale_hints"] == 1

    def test_patch_tree_metrics(self, tree):
        metrics = ScanMetrics()
        scanner = ProjectScanner(metrics=metrics)
        report = scanner.patch_tree(tree, backup=False)
        assert report.metrics is metrics
        assert metrics.counters["files_patched"] == len(
            [f for f in report.files if f.patched]
        )
        assert metrics.counters["patches_applied"] >= 1


class TestDisabledCollector:
    def test_scan_report_has_no_metrics(self, tree):
        report = ProjectScanner().scan(tree)
        assert report.metrics is None

    def test_patch_tree_report_has_no_metrics(self, tree):
        report = ProjectScanner().patch_tree(tree, backup=False)
        assert report.metrics is None

    def test_engine_default_records_nothing(self):
        engine = PatchitPy()
        engine.detect(VULN_PICKLE)
        engine.patch(VULN_PICKLE)
        assert engine.metrics is NULL_METRICS
        assert metrics_to_dict(engine.metrics) == {
            "rules": {},
            "counters": {},
            "timers": {},
            "files": {},
            "rule_health": {},
            "durations": {},
        }

    def test_null_collector_pickles_to_singleton(self):
        import pickle

        assert pickle.loads(pickle.dumps(NULL_METRICS)) is NULL_METRICS

    def test_enabled_collector_pickles_with_state(self):
        import pickle

        m = ScanMetrics()
        m.count("detect_calls", 4)
        m.rule_stats("R1").matches = 2
        clone = pickle.loads(pickle.dumps(m))
        assert metrics_to_dict(clone) == metrics_to_dict(m)


class TestExporters:
    @pytest.fixture()
    def collected(self, tree):
        metrics = ScanMetrics()
        ProjectScanner(metrics=metrics).scan(tree, use_cache=True)
        return metrics

    def test_json_round_trip(self, collected):
        payload = json.loads(dumps_json(collected))
        restored = ScanMetrics.from_dict(payload)
        assert metrics_to_dict(restored) == metrics_to_dict(collected)

    def test_rule_stats_round_trip(self):
        stats = RuleStats(calls=2, time_s=0.5, matches=1, prefilter_skips=1)
        assert RuleStats.from_dict(stats.to_dict()) == stats

    def test_prometheus_format(self, collected):
        text = to_prometheus(collected)
        assert "# TYPE patchitpy_detect_calls counter" in text
        assert "patchitpy_cache_misses 6" in text
        assert 'patchitpy_rule_time_seconds{rule="' in text
        assert 'patchitpy_rule_prefilter_skips{rule="' in text
        # every sample line is NAME VALUE or NAME{labels} VALUE
        for line in text.strip().splitlines():
            if line.startswith("#"):
                continue
            name, _, value = line.rpartition(" ")
            assert name and float(value) is not None

    def test_format_stats_sections(self, collected):
        text = format_stats(collected, top=5)
        assert "top 5 rules by time:" in text
        assert "cache:" in text and "hit rate" in text
        assert "prefilter skip(s)" in text

    def test_format_stats_empty_collector(self):
        assert "(no metrics recorded)" in format_stats(ScanMetrics())


class TestCliSurface:
    @pytest.fixture()
    def project(self, tmp_path):
        (tmp_path / "a.py").write_text(VULN_PICKLE)
        (tmp_path / "b.py").write_text(CLEAN)
        return tmp_path

    def test_stats_flag_directory(self, project, capsys):
        code = main(["scan", str(project), "--stats"])
        out = capsys.readouterr().out
        assert code == 1
        assert "scan statistics:" in out
        assert "rules by time:" in out
        assert "hit rate" in out

    def test_stats_flag_single_file(self, project, capsys):
        code = main(["scan", str(project / "a.py"), "--stats"])
        out = capsys.readouterr().out
        assert code == 1
        assert "scan statistics:" in out

    def test_metrics_json_export(self, project, tmp_path, capsys):
        target = tmp_path / "metrics.json"
        main(["scan", str(project), "--metrics", str(target)])
        payload = json.loads(target.read_text())
        assert payload["counters"]["detect_calls"] == 2
        assert payload["rules"]

    def test_metrics_prometheus_export(self, project, tmp_path, capsys):
        target = tmp_path / "metrics.prom"
        main(["scan", str(project), "--metrics", str(target)])
        assert "# TYPE patchitpy_detect_calls counter" in target.read_text()

    def test_no_stats_no_metrics_output(self, project, capsys):
        main(["scan", str(project)])
        out = capsys.readouterr().out
        assert "scan statistics:" not in out

    def test_in_place_requires_patch(self, project, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["scan", str(project / "a.py"), "--in-place"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --in-place" in capsys.readouterr().err

    def test_in_place_rejects_lines(self, project, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["patch", str(project / "a.py"), "--in-place", "--lines", "1:2"])
        assert excinfo.value.code == 2
        assert "--lines" in capsys.readouterr().err

    def test_exit_codes_documented_in_help(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        assert "exit codes" in capsys.readouterr().out


class TestDeprecationShim:
    def test_legacy_keyword_is_rejected(self):
        engine = PatchitPy()
        with pytest.raises(TypeError, match="apply_patches_flag"):
            engine.analyze(VULN_PICKLE, apply_patches_flag=False)

    def test_new_keyword_does_not_warn(self):
        engine = PatchitPy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = engine.analyze(VULN_PICKLE, patch=True)
        assert report.patches
