"""Tests for the SARIF / plain-JSON exporters and the CLI format flag."""

import json

import pytest

from repro.cli import main
from repro.core import PatchitPy
from repro.core.sarif import dumps_plain, dumps_sarif, to_plain_json, to_sarif
from repro.types import AnalysisReport

SOURCE = 'import pickle\n\ndata = pickle.loads(blob)\napp.run(debug=True)\n'


@pytest.fixture(scope="module")
def report():
    engine = PatchitPy()
    findings = engine.detect(SOURCE)
    return AnalysisReport(tool="patchitpy", source=SOURCE, findings=findings)


class TestSarif:
    def test_schema_header(self, report):
        log = to_sarif(report)
        assert log["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in log["$schema"]

    def test_one_run_with_driver(self, report):
        run = to_sarif(report)["runs"][0]
        assert run["tool"]["driver"]["name"] == "patchitpy"
        assert run["tool"]["driver"]["rules"]

    def test_result_per_finding(self, report):
        run = to_sarif(report)["runs"][0]
        assert len(run["results"]) == len(report.findings)

    def test_rule_index_consistency(self, report):
        run = to_sarif(report)["runs"][0]
        rules = run["tool"]["driver"]["rules"]
        for result in run["results"]:
            assert rules[result["ruleIndex"]]["id"] == result["ruleId"]

    def test_locations_point_at_lines(self, report):
        run = to_sarif(report)["runs"][0]
        lines = {
            r["locations"][0]["physicalLocation"]["region"]["startLine"]
            for r in run["results"]
        }
        assert 3 in lines  # pickle.loads line
        assert 4 in lines  # debug=True line

    def test_cwe_tags(self, report):
        run = to_sarif(report)["runs"][0]
        tags = {t for rule in run["tool"]["driver"]["rules"] for t in rule["properties"]["tags"]}
        assert "CWE-502" in tags and "CWE-209" in tags

    def test_parse_failed_notification(self):
        engine = PatchitPy()
        bad = "```python\npickle.loads(x)\n```"
        rep = AnalysisReport(
            tool="patchitpy", source=bad, findings=engine.detect(bad), parse_failed=True
        )
        run = to_sarif(rep)["runs"][0]
        assert "invocations" in run

    def test_dumps_is_valid_json(self, report):
        parsed = json.loads(dumps_sarif(report))
        assert parsed["runs"]


class TestPlainJson:
    def test_shape(self, report):
        payload = to_plain_json(report, artifact_uri="x.py")
        assert payload["vulnerable"] is True
        assert payload["target"] == "x.py"
        assert all({"rule", "cwe", "line"} <= set(f) for f in payload["findings"])

    def test_dumps_roundtrip(self, report):
        assert json.loads(dumps_plain(report))["tool"] == "patchitpy"

    def test_clean_report(self):
        payload = to_plain_json(AnalysisReport(tool="t", source="x = 1\n"))
        assert payload["vulnerable"] is False
        assert payload["findings"] == []


class TestCliFormats:
    @pytest.fixture()
    def vulnerable_file(self, tmp_path):
        path = tmp_path / "t.py"
        path.write_text(SOURCE)
        return path

    def test_json_format(self, vulnerable_file, capsys):
        code = main(["scan", str(vulnerable_file), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["vulnerable"] is True

    def test_sarif_format(self, vulnerable_file, capsys):
        main(["scan", str(vulnerable_file), "--format", "sarif"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == "2.1.0"
        assert payload["runs"][0]["results"]

    def test_json_clean_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "c.py"
        path.write_text("print('ok')\n")
        assert main(["scan", str(path), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["findings"] == []
