"""Tests for the documentation tooling (generator + example linter) and
the dead-definition lint.

These run the actual scripts the CI workflow runs, so a local
``pytest`` failure here predicts the CI docs-lint failure exactly.
"""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
GEN = REPO_ROOT / "scripts" / "gen_cli_docs.py"
LINT = REPO_ROOT / "scripts" / "check_docs_examples.py"
DEAD_CODE = REPO_ROOT / "scripts" / "check_dead_code.py"


def _run(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, cwd=REPO_ROOT
    )


class TestGeneratedCliDocs:
    def test_docs_cli_md_is_fresh(self):
        """docs/cli.md matches the parsers (regenerate if this fails)."""
        result = _run(str(GEN), "--check")
        assert result.returncode == 0, result.stderr

    def test_generated_doc_covers_both_parsers(self):
        text = (REPO_ROOT / "docs" / "cli.md").read_text()
        assert "## `patchitpy`" in text
        assert "## `patchitpy serve`" in text
        assert "GENERATED FILE" in text

    def test_every_cli_flag_is_documented(self):
        sys.path.insert(0, str(REPO_ROOT / "src"))
        from repro.cli import build_parser
        from repro.server.daemon import build_serve_parser

        text = (REPO_ROOT / "docs" / "cli.md").read_text()
        for parser in (build_parser(), build_serve_parser()):
            for action in parser._actions:
                for option in action.option_strings:
                    if option in ("-h", "--help"):
                        continue
                    assert f"`{option}`" in text, f"{option} missing from docs/cli.md"

    def test_check_detects_drift(self):
        """--check exits non-zero when the file diverges from the parsers."""
        target = REPO_ROOT / "docs" / "cli.md"
        original = target.read_text()
        try:
            target.write_text(original + "\nstale trailing line\n")
            result = _run(str(GEN), "--check")
            assert result.returncode == 1
            assert "stale" in result.stderr
        finally:
            target.write_text(original)


class TestDocsExamples:
    def test_all_documentation_examples_are_valid(self):
        result = _run(str(LINT))
        assert result.returncode == 0, result.stdout + result.stderr
        assert "0 broken" in result.stdout

    def test_linter_catches_broken_python(self, tmp_path):
        sys.path.insert(0, str(REPO_ROOT / "scripts"))
        import check_docs_examples as linter

        doc = tmp_path / "doc.md"
        doc.write_text("```python\ndef broken(:\n```\n")
        blocks = list(linter.iter_blocks(doc))
        assert len(blocks) == 1
        _, line, language, body = blocks[0]
        assert line == 1 and language == "python"
        assert "does not compile" in linter.check_python(body)

    def test_linter_checks_console_commands_only(self):
        sys.path.insert(0, str(REPO_ROOT / "scripts"))
        import check_docs_examples as linter

        transcript = "$ echo hello\nhello output ( not a command\n"
        assert linter.check_console(transcript) == ""
        assert "does not parse" in linter.check_console("$ echo 'unterminated\n")

    def test_linter_validates_json_blocks(self):
        sys.path.insert(0, str(REPO_ROOT / "scripts"))
        import check_docs_examples as linter

        assert linter.check_json('{"ok": true}\n') == ""
        assert "does not parse" in linter.check_json("{nope}\n")


class TestDeadCodeLint:
    def test_every_definition_in_src_is_referenced(self):
        result = _run(str(DEAD_CODE))
        assert result.returncode == 0, result.stdout + result.stderr

    def test_an_unreferenced_function_fails(self, tmp_path):
        package = tmp_path / "src" / "pkg"
        package.mkdir(parents=True)
        (package / "mod.py").write_text(
            "def used():\n    return 1\n\n\ndef unused():\n    return used()\n"
        )
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "test_mod.py").write_text("from pkg.mod import used\n")
        result = _run(str(DEAD_CODE), str(tmp_path))
        assert result.returncode == 1, result.stdout + result.stderr
        assert "src/pkg/mod.py:5: unused is referenced nowhere" in result.stdout
        assert ": used " not in result.stdout


class TestVersionMetadata:
    def test_release_metadata_matches_package_version(self):
        """pyproject.toml and CITATION.cff carry ``repro.__version__``."""
        sys.path.insert(0, str(REPO_ROOT / "src"))
        from repro import __version__

        # read by pattern, not tomllib: tomllib is 3.11+ and CI runs 3.9
        pyproject = (REPO_ROOT / "pyproject.toml").read_text()
        match = re.search(r'^version\s*=\s*"([^"]+)"', pyproject, re.MULTILINE)
        assert match is not None and match.group(1) == __version__
        citation = (REPO_ROOT / "CITATION.cff").read_text()
        match = re.search(r"^version:\s*(\S+)", citation, re.MULTILINE)
        assert match is not None and match.group(1) == __version__
