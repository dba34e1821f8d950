"""Tests for the patchitpy CLI."""

import pytest

from repro.cli import main

VULN = 'import pickle\n\ndata = pickle.loads(blob)\napp.run(debug=True)\n'


@pytest.fixture()
def vulnerable_file(tmp_path):
    path = tmp_path / "target.py"
    path.write_text(VULN)
    return path


class TestDetection:
    def test_findings_printed(self, vulnerable_file, capsys):
        code = main(["scan", str(vulnerable_file)])
        out = capsys.readouterr().out
        assert code == 1
        assert "CWE-502" in out and "CWE-209" in out

    def test_clean_file_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "clean.py"
        path.write_text("print('ok')\n")
        assert main(["scan", str(path)]) == 0
        assert "no vulnerable patterns" in capsys.readouterr().out

    def test_missing_file_exit_two(self, tmp_path, capsys):
        assert main(["scan", str(tmp_path / "absent.py")]) == 2
        assert "error" in capsys.readouterr().err


class TestPatching:
    def test_patch_to_stdout(self, vulnerable_file, capsys):
        main(["patch", str(vulnerable_file)])
        out = capsys.readouterr().out
        assert "json.loads(blob)" in out
        assert vulnerable_file.read_text() == VULN  # untouched

    def test_patch_in_place(self, vulnerable_file):
        main(["patch", str(vulnerable_file), "--in-place"])
        text = vulnerable_file.read_text()
        assert "json.loads(blob)" in text
        assert "debug=False" in text


class TestSelection:
    def test_line_range_limits_analysis(self, vulnerable_file, capsys):
        main(["scan", str(vulnerable_file), "--lines", "4:4"])
        out = capsys.readouterr().out
        assert "CWE-209" in out
        assert "CWE-502" not in out

    def test_bad_range_rejected(self, vulnerable_file):
        with pytest.raises(SystemExit):
            main(["scan", str(vulnerable_file), "--lines", "90:99"])

    def test_malformed_range_rejected(self, vulnerable_file):
        with pytest.raises(SystemExit):
            main(["scan", str(vulnerable_file), "--lines", "abc"])


class TestExtended:
    def test_extended_catalog_flag(self, tmp_path, capsys):
        path = tmp_path / "ext.py"
        path.write_text("import sys\nsys.path.insert(0, '/tmp')\n")
        assert main(["scan", str(path)]) == 0  # default ruleset silent
        assert main(["scan", str(path), "--extended"]) == 1  # extended rule fires


class TestDirectoryMode:
    @pytest.fixture()
    def project(self, tmp_path):
        (tmp_path / "a.py").write_text("import pickle\nx = pickle.loads(b)\n")
        (tmp_path / "b.py").write_text("print('ok')\n")
        return tmp_path

    def test_scan_directory(self, project, capsys):
        code = main(["scan", str(project)])
        out = capsys.readouterr().out
        assert code == 1
        assert "vulnerable files: 1" in out
        assert "CWE-502" in out

    def test_patch_directory_in_place(self, project, capsys):
        main(["patch", str(project), "--in-place"])
        assert "json.loads" in (project / "a.py").read_text()
        assert (project / "a.py.orig").exists()

    def test_clean_directory_exit_zero(self, tmp_path):
        (tmp_path / "ok.py").write_text("print('fine')\n")
        assert main(["scan", str(tmp_path)]) == 0

    def test_html_report_flag(self, project, tmp_path, capsys):
        out = tmp_path / "report.html"
        main(["scan", str(project), "--html", str(out)])
        assert out.exists()
        assert "<!DOCTYPE html>" in out.read_text()

    def test_jobs_flag(self, project, capsys):
        code = main(["scan", str(project), "--jobs", "2", "--no-cache"])
        out = capsys.readouterr().out
        assert code == 1
        assert "vulnerable files: 1" in out

    def test_cache_written_and_reused(self, project, capsys):
        from repro.core.cache import CACHE_DIR_NAME

        main(["scan", str(project)])
        assert (project / CACHE_DIR_NAME).is_dir()
        main(["scan", str(project)])
        out = capsys.readouterr().out
        assert "cache: 2 hit(s), 0 miss(es)" in out

    def test_no_cache_flag(self, project, capsys):
        from repro.core.cache import CACHE_DIR_NAME

        main(["scan", str(project), "--no-cache"])
        assert not (project / CACHE_DIR_NAME).exists()
        assert "cache:" not in capsys.readouterr().out

    def test_clear_cache_flag(self, project, capsys):
        main(["scan", str(project)])
        capsys.readouterr()  # drain the cold-scan output
        code = main(["scan", str(project), "--clear-cache"])
        out = capsys.readouterr().out
        assert code == 1
        # the wiped cache forces a full re-analysis
        assert "cache: 0 hit(s), 2 miss(es)" in out
