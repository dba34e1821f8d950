"""Integrity tests: every shipped example must run cleanly."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"

_EXAMPLES = [
    "quickstart.py",
    "flask_webapp_hardening.py",
    "ai_pipeline_audit.py",
    "rule_mining_demo.py",
    "ide_session.py",
    "language_server_demo.py",
    "project_scan_report.py",
]


@pytest.mark.parametrize("name", _EXAMPLES)
def test_example_runs_cleanly(name):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip(), "examples must produce output"


def test_example_list_is_complete():
    shipped = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    assert set(_EXAMPLES) <= shipped
    # full_case_study is exercised via the harness tests (it is the slowest)
    assert "full_case_study.py" in shipped
