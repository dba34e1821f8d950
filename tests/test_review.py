"""Tests for diff-aware review mode (``repro.core.review``).

The load-bearing property is baseline suppression identity: a finding
whose line number merely shifts (code inserted above it) keeps its
content-hash ``finding_key`` and stays *pre-existing*, while a genuinely
new finding — even one firing the same rule with different matched text
— is *introduced*.  That property is tested directly against
``finding_key`` over a generated corpus, and end to end through
``review()``, the CLI subcommand, and the server endpoint.
"""

from __future__ import annotations

import difflib
import json
import subprocess

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    BackgroundServer,
    PatchitPy,
    PatchitPyServer,
    ReviewFinding,
    ReviewReport,
    ScanMetrics,
    ServerClient,
    ServerConfig,
    ServerError,
    review,
)
from repro.core import review as review_module
from repro.core.review import (
    STATUS_FIXED,
    STATUS_INTRODUCED,
    STATUS_PRE_EXISTING,
    ReviewError,
    parse_unified_diff,
    patch_introduced,
    reverse_apply,
)
from repro.core.sarif import review_to_sarif
from repro.core.verify import finding_key
from repro.observability.trace import TraceRecorder

ENGINE = PatchitPy()

# Statements the default 85-rule catalog reliably flags, used to build
# synthetic baselines and changes.
VULN_YAML = "cfg = yaml.load(data)\n"
VULN_YAML_OTHER = "cfg2 = yaml.load(other)\n"
VULN_SHELL = 'subprocess.call("ls " + name, shell=True)\n'
PREAMBLE = "import yaml\nimport subprocess\n"


def unified(old: str, new: str, path: str = "app.py") -> str:
    return "".join(
        difflib.unified_diff(
            old.splitlines(keepends=True),
            new.splitlines(keepends=True),
            fromfile=f"a/{path}",
            tofile=f"b/{path}",
        )
    )


def review_of(tmp_path, old: str, new: str, **kwargs):
    """Write ``new`` as the worktree head and review the diff from ``old``."""
    (tmp_path / "app.py").write_text(new)
    kwargs.setdefault("use_cache", False)
    kwargs.setdefault("engine", ENGINE)
    return review(tmp_path, diff_text=unified(old, new), **kwargs)


# --------------------------------------------------------------- diff layer


class TestDiffParsing:
    def test_git_style_headers(self):
        diff = (
            "diff --git a/pkg/mod.py b/pkg/mod.py\n"
            "index 1111111..2222222 100644\n"
            "--- a/pkg/mod.py\n"
            "+++ b/pkg/mod.py\n"
            "@@ -1,2 +1,3 @@\n"
            " import os\n"
            "+import sys\n"
            " x = 1\n"
        )
        (fd,) = parse_unified_diff(diff)
        assert fd.old_path == "pkg/mod.py"
        assert fd.new_path == "pkg/mod.py"
        assert fd.change == "modified"
        (hunk,) = fd.hunks
        assert (hunk.old_start, hunk.old_count) == (1, 2)
        assert (hunk.new_start, hunk.new_count) == (1, 3)
        assert hunk.new_range == (1, 3)

    def test_added_and_deleted_files(self):
        diff = (
            "--- /dev/null\n"
            "+++ b/new.py\n"
            "@@ -0,0 +1,1 @@\n"
            "+x = 1\n"
            "--- a/old.py\n"
            "+++ /dev/null\n"
            "@@ -1,1 +0,0 @@\n"
            "-y = 2\n"
        )
        added, deleted = parse_unified_diff(diff)
        assert added.old_path is None and added.change == "added"
        assert deleted.new_path is None and deleted.change == "deleted"
        assert deleted.hunks[0].old_lines == ["y = 2\n"]

    def test_no_newline_marker(self):
        old = "a = 1\n"
        new = "a = 1\nb = 2"  # no trailing newline
        (fd,) = parse_unified_diff(unified(old, new))
        assert fd.hunks[0].new_lines[-1] == "b = 2"
        assert reverse_apply(new, fd.hunks) == old

    def test_multi_file_diff(self):
        diff = unified("a = 1\n", "a = 2\n", path="one.py") + unified(
            "b = 1\n", "b = 2\n", path="two.py"
        )
        parsed = parse_unified_diff(diff)
        assert [fd.path for fd in parsed] == ["one.py", "two.py"]

    def test_reverse_apply_rejects_mismatched_diff(self):
        (fd,) = parse_unified_diff(unified("a = 1\n", "a = 2\n"))
        with pytest.raises(ReviewError):
            reverse_apply("something else entirely\n", fd.hunks)

    @settings(max_examples=60, deadline=None)
    @given(
        old_lines=st.lists(
            st.sampled_from(["a = 1\n", "b = 2\n", "# c\n", "\n", "d = 'x'\n"]),
            max_size=12,
        ),
        new_lines=st.lists(
            st.sampled_from(["a = 1\n", "e = 5\n", "# f\n", "\n", "g = 'y'\n"]),
            max_size=12,
        ),
    )
    def test_reverse_apply_inverts_any_difflib_diff(self, old_lines, new_lines):
        """reverse_apply(new, parse(diff(old, new))) == old, always."""
        old, new = "".join(old_lines), "".join(new_lines)
        parsed = parse_unified_diff(unified(old, new))
        if not parsed:  # identical sides produce no diff
            assert old == new
            return
        assert reverse_apply(new, parsed[0].hunks) == old


# ----------------------------------------------------------- classification


class TestClassification:
    def test_introduced_vs_preexisting_under_line_shift(self, tmp_path):
        old = PREAMBLE + "\n" + VULN_YAML
        new = PREAMBLE + "\n" + VULN_SHELL + "\n# pad\n# pad\n" + VULN_YAML
        report = review_of(tmp_path, old, new)
        assert [f.finding.rule_id for f in report.introduced] == ["PIT-A03-08"]
        assert len(report.pre_existing) == 1
        assert report.pre_existing[0].finding.rule_id == "PIT-A08-06"
        assert not report.fixed
        assert not report.clean

    def test_same_rule_different_text_is_introduced(self, tmp_path):
        old = PREAMBLE + VULN_YAML
        new = PREAMBLE + VULN_YAML + VULN_YAML_OTHER
        report = review_of(tmp_path, old, new)
        introduced = report.introduced
        assert len(introduced) == 1
        assert introduced[0].finding.rule_id == "PIT-A08-06"
        assert "other" in introduced[0].finding.snippet

    def test_fixed_findings_detected(self, tmp_path):
        old = PREAMBLE + VULN_YAML
        new = PREAMBLE + "cfg = yaml.safe_load(data)\n"
        report = review_of(tmp_path, old, new)
        assert not report.introduced
        assert len(report.fixed) == 1
        assert report.fixed[0].status == STATUS_FIXED
        assert report.clean

    def test_duplicate_occurrence_counts(self, tmp_path):
        """N+1 copies of the same text against N baseline copies leave
        exactly one introduced finding."""
        old = PREAMBLE + VULN_YAML
        new = PREAMBLE + VULN_YAML + VULN_YAML
        report = review_of(tmp_path, old, new)
        assert len(report.introduced) == 1
        assert len(report.pre_existing) == 1

    def test_hunk_attribution(self, tmp_path):
        old = PREAMBLE + "\n" + VULN_YAML
        new = PREAMBLE + "\n" + VULN_SHELL + VULN_YAML
        report = review_of(tmp_path, old, new)
        (item,) = report.introduced
        assert item.hunk is not None
        start, end = item.hunk
        assert start <= item.line <= end

    def test_untouched_python_files_are_not_scanned(self, tmp_path):
        (tmp_path / "untouched.py").write_text(PREAMBLE + VULN_YAML)
        report = review_of(tmp_path, "a = 1\n", "a = 2\n")
        assert [f.path for f in report.files] == ["app.py"]
        assert not report.findings

    def test_non_python_files_skipped(self, tmp_path):
        (tmp_path / "notes.txt").write_text("yaml.load(x)\n")
        diff = unified("a\n", "yaml.load(x)\n", path="notes.txt")
        report = review(tmp_path, diff_text=diff, use_cache=False, engine=ENGINE)
        assert not report.files and not report.findings

    @settings(max_examples=40, deadline=None)
    @given(
        pad=st.lists(
            st.sampled_from(["# comment\n", "\n", "x = 1\n", "name = 'n'\n"]),
            max_size=10,
        )
    )
    def test_property_line_shift_never_introduces(self, tmp_path_factory, pad):
        """Inserting arbitrary benign lines above a baseline finding must
        classify it pre-existing — the finding_key identity is
        position-independent."""
        tmp_path = tmp_path_factory.mktemp("shift")
        old = PREAMBLE + VULN_YAML
        new = PREAMBLE + "".join(pad) + VULN_YAML
        report = review_of(tmp_path, old, new)
        assert not report.introduced
        if old == new:  # empty pad produces an empty diff: nothing to review
            assert not report.findings
            return
        assert len(report.pre_existing) == 1
        # the identity driving the classification is finding_key itself
        (base_finding,) = ENGINE.detect(old)
        (head_finding,) = ENGINE.detect(new)
        assert finding_key(old, base_finding) == finding_key(new, head_finding)

    @settings(max_examples=40, deadline=None)
    @given(
        arg=st.text(
            alphabet="abcdefghij_", min_size=1, max_size=8
        ).filter(lambda s: s != "data")
    )
    def test_property_different_text_same_rule_is_introduced(
        self, tmp_path_factory, arg
    ):
        """A same-rule finding with different matched text has a different
        finding_key and must be introduced."""
        tmp_path = tmp_path_factory.mktemp("newtext")
        old = PREAMBLE + VULN_YAML
        new = PREAMBLE + VULN_YAML + f"v = yaml.load({arg})\n"
        report = review_of(tmp_path, old, new)
        assert len(report.introduced) == 1
        assert report.introduced[0].finding.rule_id == "PIT-A08-06"
        assert len(report.pre_existing) == 1


# ------------------------------------------------------------- cache + git


class TestCacheAndGit:
    def test_warm_review_is_all_cache_hits(self, tmp_path):
        old = PREAMBLE + VULN_YAML
        new = PREAMBLE + VULN_YAML + VULN_SHELL
        (tmp_path / "app.py").write_text(new)
        diff = unified(old, new)
        cold = review(tmp_path, diff_text=diff, engine=ENGINE)
        warm = review(tmp_path, diff_text=diff, engine=ENGINE)
        assert cold.cache_misses == 2  # baseline + head side
        assert warm.cache_misses == 0
        assert warm.cache_hits == 2
        assert warm.files[0].from_cache
        assert [f.status for f in warm.findings] == [
            f.status for f in cold.findings
        ]

    def test_metrics_and_trace_flow_through(self, tmp_path):
        metrics = ScanMetrics()
        trace = TraceRecorder()
        report = review_of(
            tmp_path,
            PREAMBLE + VULN_YAML,
            PREAMBLE + VULN_YAML + VULN_SHELL,
            metrics=metrics,
            trace=trace,
        )
        assert metrics.counters["review_calls"] == 1
        assert metrics.counters["review_introduced"] == 1
        assert metrics.counters["review_pre_existing"] == 1
        kinds = {event["kind"] for event in trace.events}
        assert "review" in kinds and "review-file" in kinds
        assert report.metrics is metrics

    def test_input_mode_validation(self, tmp_path):
        with pytest.raises(ReviewError):
            review(tmp_path)
        with pytest.raises(ReviewError):
            review(tmp_path, base="HEAD", diff_text="--- a\n+++ b\n")

    @pytest.fixture()
    def git_repo(self, tmp_path):
        def git(*args):
            subprocess.run(
                ["git", "-C", str(tmp_path), *args],
                check=True,
                capture_output=True,
            )

        git("init", "-q")
        git("config", "user.email", "t@example.com")
        git("config", "user.name", "t")
        (tmp_path / "app.py").write_text(PREAMBLE + VULN_YAML)
        git("add", "-A")
        git("commit", "-qm", "base")
        (tmp_path / "app.py").write_text(PREAMBLE + VULN_SHELL + VULN_YAML)
        git("add", "-A")
        git("commit", "-qm", "vuln")
        return tmp_path

    def test_git_revision_range(self, git_repo):
        report = review(
            git_repo, base="HEAD~1", head="HEAD", use_cache=False, engine=ENGINE
        )
        assert [f.finding.rule_id for f in report.introduced] == ["PIT-A03-08"]
        assert len(report.pre_existing) == 1
        assert report.base == "HEAD~1" and report.head == "HEAD"

    def test_git_worktree_mode_sees_uncommitted_fix(self, git_repo):
        (git_repo / "app.py").write_text(PREAMBLE + VULN_YAML)
        report = review(git_repo, base="HEAD", use_cache=False, engine=ENGINE)
        assert not report.introduced
        assert len(report.fixed) == 1
        assert report.head == "worktree"

    def test_unknown_revision_raises(self, git_repo):
        with pytest.raises(ReviewError):
            review(git_repo, base="no-such-rev", use_cache=False, engine=ENGINE)


def _push_repo(root, files: int):
    """A git repo at ``root`` whose last commit touches ``files`` Python
    files, deletes one, adds one, and renames one that is not UTF-8."""

    def git(*args):
        subprocess.run(["git", "-C", str(root), *args], check=True, capture_output=True)

    git("init", "-q")
    git("config", "user.email", "t@example.com")
    git("config", "user.name", "t")
    names = [f"pkg/m {index}.py" for index in range(files)]
    (root / "pkg").mkdir()
    for name in names:
        (root / name).write_text(PREAMBLE + VULN_YAML)
    (root / "gone.py").write_text(PREAMBLE + VULN_SHELL)
    (root / "latin1.py").write_bytes(b"# caf\xe9\n" + VULN_YAML.encode())
    git("add", "-A")
    git("commit", "-qm", "base")
    for name in names:
        (root / name).write_text(PREAMBLE + VULN_SHELL + VULN_YAML)
    (root / "gone.py").unlink()
    (root / "new.py").write_text(VULN_SHELL)
    git("mv", "latin1.py", "latin1_moved.py")
    git("add", "-A")
    git("commit", "-qm", "push")


def _git_repo(root, base, push):
    """A git repo at ``root``: a commit of the files ``base`` maps to
    their bytes, then one that writes ``push`` over them."""

    def git(*args):
        subprocess.run(["git", "-C", str(root), *args], check=True, capture_output=True)

    git("init", "-q")
    git("config", "user.email", "t@example.com")
    git("config", "user.name", "t")
    for files, message in ((base, "base"), (push, "push")):
        for name, data in files.items():
            (root / name).write_bytes(data)
        git("add", "-A")
        git("commit", "-qm", message)


VULN_EVAL = b"y = eval(z)\n"


class TestUnusualGitOutput:
    """A pushed line that is not UTF-8 costs its own file an error row;
    a path git quotes is reviewed under its real name."""

    def test_a_non_utf8_line_is_its_files_error(self, tmp_path, capsys):
        from repro.cli import main

        _git_repo(
            tmp_path,
            {"a.py": b"x = 1\n", "b.py": b"x = 1\n"},
            {"a.py": b"x = 1\n# caf\xe9\n", "b.py": b"x = 1\n" + VULN_EVAL},
        )
        for kwargs in ({"base": "HEAD~1", "head": "HEAD"}, {"base": "HEAD~1"}):
            report = review(tmp_path, use_cache=False, engine=ENGINE, **kwargs)
            errors = {f.path: f.error for f in report.files if f.error}
            assert list(errors) == ["a.py"], kwargs
            assert "UTF-8" in errors["a.py"] or "utf-8" in errors["a.py"]
            assert [(f.path, f.finding.rule_id) for f in report.introduced] == [
                ("b.py", "PIT-A03-11")
            ]
            assert not report.fixed and not report.pre_existing
        # the CLI: no traceback, the error row counted, exit 1 for the eval
        code = main(["review", "HEAD~1..HEAD", "--root", str(tmp_path), "--no-cache"])
        out = capsys.readouterr().out
        assert code == 1
        assert "unreadable files: 1" in out and "b.py:2" in out
        # the same diff from a file, reviewed against the worktree
        diff = subprocess.run(
            ["git", "-C", str(tmp_path), "diff", "HEAD~1", "HEAD"],
            check=True,
            capture_output=True,
        ).stdout
        assert b"caf\xe9" in diff
        (tmp_path / "push.diff").write_bytes(diff)
        code = main(
            ["review", "--diff", str(tmp_path / "push.diff"), "--root", str(tmp_path),
             "--no-cache"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "unreadable files: 1" in out and "b.py:2" in out

    def test_a_clean_push_with_a_non_utf8_line_exits_zero(self, tmp_path, capsys):
        from repro.cli import main

        _git_repo(tmp_path, {"a.py": b"x = 1\n"}, {"a.py": b"x = 1\n# caf\xe9\n"})
        code = main(["review", "HEAD~1..HEAD", "--root", str(tmp_path), "--no-cache"])
        assert code == 0
        assert "unreadable files: 1" in capsys.readouterr().out

    def test_quoted_paths_are_reviewed_under_their_names(self, tmp_path):
        names = ["café.py", 'say "hi" now.py', "a.py"]
        _git_repo(
            tmp_path,
            {name: b"x = 1\n" for name in names},
            {name: b"x = 1\n" + VULN_EVAL for name in names},
        )
        raw = subprocess.run(
            ["git", "-C", str(tmp_path), "diff", "HEAD~1", "HEAD"],
            check=True,
            capture_output=True,
            text=True,
        ).stdout
        assert '"a/caf\\303\\251.py"' in raw and '\\"hi\\"' in raw
        for kwargs in ({"base": "HEAD~1", "head": "HEAD"}, {"base": "HEAD~1"}):
            report = review(tmp_path, use_cache=False, engine=ENGINE, **kwargs)
            assert not [f for f in report.files if f.error], kwargs
            assert sorted(f.path for f in report.introduced) == sorted(names)

    def test_c_style_escapes_are_undone(self):
        diff = (
            '--- "a/caf\\303\\251 \\"q\\" \\\\ \\t\\n.py"\n'
            '+++ "b/caf\\303\\251 \\"q\\" \\\\ \\t\\n.py"\n'
            "@@ -1 +1 @@\n"
            "-x = 1\n"
            "+x = 2\n"
        )
        (fd,) = parse_unified_diff(diff)
        assert fd.old_path == fd.new_path == 'café "q" \\ \t\n.py'


class TestBlobsInOneGitProcess:
    """A revision review reads its blobs with one ``git cat-file
    --batch``; ``git show`` per side per file is the reference."""

    def _reviewed(self, root, monkeypatch, **kwargs):
        programs = []
        run = subprocess.run

        def counting(argv, *args, **options):
            programs.append(argv[3])  # git -C <root> <program>
            return run(argv, *args, **options)

        monkeypatch.setattr(review_module.subprocess, "run", counting)
        report = review(root, use_cache=False, engine=ENGINE, **kwargs)
        monkeypatch.undo()
        return report.to_dict(), programs

    @pytest.mark.parametrize("head", ["HEAD", None], ids=["revisions", "worktree"])
    def test_the_report_is_what_git_show_gives(self, tmp_path, monkeypatch, head):
        _push_repo(tmp_path, 5)
        batched, programs = self._reviewed(
            tmp_path, monkeypatch, base="HEAD~1", head=head
        )
        assert programs.count("cat-file") == 1 and "show" not in programs
        monkeypatch.setattr(review_module, "_git_blobs", lambda root, blobs: {})
        shown, programs = self._reviewed(tmp_path, monkeypatch, base="HEAD~1", head=head)
        assert "show" in programs
        assert batched == shown
        assert len(batched["findings"]) >= 5

    def test_the_process_count_does_not_grow_with_files(self, tmp_path, monkeypatch):
        counts = []
        for files in (1, 8):
            root = tmp_path / str(files)
            root.mkdir()
            _push_repo(root, files)
            _, programs = self._reviewed(root, monkeypatch, base="HEAD~1", head="HEAD")
            counts.append(len(programs))
        assert counts[0] == counts[1] == 3  # rev-parse, diff, cat-file

    def test_absent_and_undecodable_sides_are_none(self, tmp_path):
        _push_repo(tmp_path, 1)
        blobs = [
            ("HEAD~1", "latin1.py"),  # not UTF-8
            ("HEAD", "latin1.py"),  # moved away
            ("HEAD", "no such.py"),
            ("no-such-rev", "new.py"),
            ("HEAD", "new.py"),
        ]
        texts = review_module._git_blobs(tmp_path, blobs)
        assert texts == {
            blob: review_module._git_show(tmp_path, *blob) for blob in blobs
        }
        assert texts[("HEAD", "new.py")] == VULN_SHELL
        assert [blob for blob, text in texts.items() if text is None] == blobs[:4]

    def test_a_path_holding_a_line_break_is_left_to_git_show(self, tmp_path):
        # git quotes such a path in a diff, so the parser never yields
        # one; a caller's FileDiff can still name it
        _push_repo(tmp_path, 1)
        odd = "odd\nname.py"
        (tmp_path / odd).write_text(VULN_YAML)
        subprocess.run(
            ["git", "-C", str(tmp_path), "add", "-A"], check=True, capture_output=True
        )
        subprocess.run(
            ["git", "-C", str(tmp_path), "commit", "-qm", "odd"],
            check=True,
            capture_output=True,
        )
        blobs = [("HEAD", odd), ("HEAD", "new.py")]
        texts = review_module._git_blobs(tmp_path, blobs)
        assert texts == {("HEAD", "new.py"): VULN_SHELL}
        diff = review_module.FileDiff(old_path=odd, new_path=odd)
        sides = review_module._load_sides(tmp_path, diff, "HEAD", "HEAD", texts)
        assert sides == (VULN_YAML, VULN_YAML)


# ------------------------------------------------------- serialization/SARIF


class TestSerialization:
    def test_report_round_trip(self, tmp_path):
        report = review_of(
            tmp_path,
            PREAMBLE + VULN_YAML,
            PREAMBLE + VULN_SHELL + VULN_YAML + VULN_YAML_OTHER,
        )
        data = report.to_dict()
        json.dumps(data)  # must be JSON-clean
        restored = ReviewReport.from_dict(data)
        assert restored.to_dict() == data
        assert [f.status for f in restored.findings] == [
            f.status for f in report.findings
        ]
        assert restored.counts() == report.counts()

    def test_finding_round_trip_preserves_hunk(self, tmp_path):
        report = review_of(
            tmp_path, PREAMBLE + VULN_YAML, PREAMBLE + VULN_YAML + VULN_SHELL
        )
        (item,) = report.introduced
        restored = ReviewFinding.from_dict(item.to_dict())
        assert restored.hunk == item.hunk
        assert restored.key == item.key
        assert restored.finding == item.finding

    def test_sarif_baseline_states(self, tmp_path):
        report = review_of(
            tmp_path,
            PREAMBLE + VULN_YAML + VULN_YAML_OTHER,
            PREAMBLE + VULN_YAML + VULN_SHELL,
        )
        sarif = review_to_sarif(report, include_preexisting=True)
        states = {
            (r["ruleId"], r["baselineState"])
            for r in sarif["runs"][0]["results"]
        }
        assert ("PIT-A03-08", "new") in states
        assert ("PIT-A08-06", "unchanged") in states
        assert ("PIT-A08-06", "absent") in states

    def test_sarif_default_emits_only_introduced(self, tmp_path):
        report = review_of(
            tmp_path, PREAMBLE + VULN_YAML, PREAMBLE + VULN_YAML + VULN_SHELL
        )
        sarif = review_to_sarif(report)
        results = sarif["runs"][0]["results"]
        assert [r["baselineState"] for r in results] == ["new"]
        region = results[0]["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == report.introduced[0].line
        invocation = sarif["runs"][0]["invocations"][0]
        assert invocation["properties"]["review"]["counts"][STATUS_PRE_EXISTING] == 1


# ---------------------------------------------------------------- patching


class TestPatchIntroduced:
    def test_patches_only_introduced(self, tmp_path):
        old = PREAMBLE + VULN_YAML
        new = PREAMBLE + VULN_YAML + VULN_YAML_OTHER
        report = review_of(tmp_path, old, new)
        results = patch_introduced(report, ENGINE)
        patched = results["app.py"].patched
        # the introduced finding is patched ...
        assert "yaml.safe_load(other)" in patched
        # ... the pre-existing one is left exactly as it was
        assert "yaml.load(data)" in patched

    @pytest.mark.parametrize(
        "old, new, patched, applied",
        [
            (
                PREAMBLE + VULN_YAML,
                PREAMBLE + VULN_YAML + VULN_YAML_OTHER,
                "import yaml\ncfg = yaml.load(data)\ncfg2 = yaml.safe_load(other)\n",
                [("PIT-A08-06", 59, 75, "yaml.safe_load(other)")],
            ),
            (
                PREAMBLE + VULN_YAML,
                PREAMBLE + VULN_YAML + VULN_SHELL,
                PREAMBLE + VULN_YAML + VULN_SHELL.replace("True", "False"),
                [("PIT-A03-08", 52, 93, VULN_SHELL.replace("True", "False")[:-1])],
            ),
            (
                PREAMBLE,
                PREAMBLE + VULN_YAML + VULN_SHELL,
                PREAMBLE
                + "cfg = yaml.safe_load(data)\n"
                + VULN_SHELL.replace("True", "False"),
                [
                    ("PIT-A08-06", 36, 51, "yaml.safe_load(data)"),
                    ("PIT-A03-08", 52, 93, VULN_SHELL.replace("True", "False")[:-1]),
                ],
            ),
            # a second copy of a pre-existing finding shares its identity
            (PREAMBLE + VULN_YAML, PREAMBLE + VULN_YAML * 2, PREAMBLE + VULN_YAML * 2, []),
            (
                PREAMBLE + VULN_SHELL,
                VULN_YAML_OTHER + PREAMBLE + VULN_SHELL + VULN_YAML,
                "cfg2 = yaml.safe_load(other)\n" + PREAMBLE + VULN_SHELL
                + "cfg = yaml.safe_load(data)\n",
                [
                    ("PIT-A08-06", 7, 23, "yaml.safe_load(other)"),
                    ("PIT-A08-06", 102, 117, "yaml.safe_load(data)"),
                ],
            ),
        ],
    )
    def test_outcomes_on_the_head_finding_set(self, tmp_path, old, new, patched, applied):
        """The engine gets every head finding, pre-existing identities
        excluded: the patched text, applied patches and verdicts are
        those of patching the introduced findings alone against the head
        baseline."""
        (result,) = patch_introduced(review_of(tmp_path, old, new), ENGINE).values()
        assert result.patched == patched
        assert [
            (p.rule_id, p.span.start, p.span.end, p.replacement) for p in result.applied
        ] == applied
        assert [(v.rule_id, v.status, v.reverted) for v in result.verdicts] == [
            (rule_id, "verified", False) for rule_id, *_ in applied
        ]

    def test_deserialized_report_cannot_patch(self, tmp_path):
        report = review_of(
            tmp_path, PREAMBLE + VULN_YAML, PREAMBLE + VULN_YAML + VULN_YAML_OTHER
        )
        restored = ReviewReport.from_dict(report.to_dict())
        with pytest.raises(ReviewError):
            patch_introduced(restored, ENGINE)


# ---------------------------------------------------------------- CLI layer


class TestReviewCLI:
    def run_cli(self, args, capsys):
        from repro.cli import main

        code = main(args)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_review_via_diff_file(self, tmp_path, capsys):
        old = PREAMBLE + VULN_YAML
        new = PREAMBLE + VULN_YAML + VULN_SHELL
        (tmp_path / "app.py").write_text(new)
        diff_file = tmp_path / "change.diff"
        diff_file.write_text(unified(old, new))
        code, out, _ = self.run_cli(
            [
                "review",
                "--diff",
                str(diff_file),
                "--root",
                str(tmp_path),
                "--no-cache",
            ],
            capsys,
        )
        assert code == 1
        assert "introduced: 1" in out
        assert "PIT-A03-08" in out
        assert "PIT-A08-06" not in out  # pre-existing suppressed

    def test_review_clean_change_exits_zero(self, tmp_path, capsys):
        old = "a = 1\n"
        new = "a = 2\n"
        (tmp_path / "app.py").write_text(new)
        diff_file = tmp_path / "change.diff"
        diff_file.write_text(unified(old, new))
        code, out, _ = self.run_cli(
            ["review", "--diff", str(diff_file), "--root", str(tmp_path)],
            capsys,
        )
        assert code == 0
        assert "introduced: 0" in out

    def test_review_json_format(self, tmp_path, capsys):
        old = PREAMBLE + VULN_YAML
        new = PREAMBLE + VULN_YAML + VULN_SHELL
        (tmp_path / "app.py").write_text(new)
        diff_file = tmp_path / "c.diff"
        diff_file.write_text(unified(old, new))
        code, out, _ = self.run_cli(
            [
                "review",
                "--diff",
                str(diff_file),
                "--root",
                str(tmp_path),
                "--format",
                "json",
                "--no-cache",
            ],
            capsys,
        )
        payload = json.loads(out)
        assert payload["counts"][STATUS_INTRODUCED] == 1
        statuses = {item["status"] for item in payload["findings"]}
        assert STATUS_PRE_EXISTING not in statuses

    def test_review_sarif_format(self, tmp_path, capsys):
        old = PREAMBLE + VULN_YAML
        new = PREAMBLE + VULN_YAML + VULN_SHELL
        (tmp_path / "app.py").write_text(new)
        diff_file = tmp_path / "c.diff"
        diff_file.write_text(unified(old, new))
        code, out, _ = self.run_cli(
            [
                "review",
                "--diff",
                str(diff_file),
                "--root",
                str(tmp_path),
                "--format",
                "sarif",
                "--no-cache",
            ],
            capsys,
        )
        sarif = json.loads(out)
        assert sarif["version"] == "2.1.0"
        assert [r["baselineState"] for r in sarif["runs"][0]["results"]] == ["new"]

    def test_review_patch_in_place(self, tmp_path, capsys):
        old = PREAMBLE + VULN_YAML
        new = PREAMBLE + VULN_YAML + VULN_YAML_OTHER
        (tmp_path / "app.py").write_text(new)
        diff_file = tmp_path / "c.diff"
        diff_file.write_text(unified(old, new))
        code, out, err = self.run_cli(
            [
                "review",
                "--diff",
                str(diff_file),
                "--root",
                str(tmp_path),
                "--patch",
                "--in-place",
                "--no-cache",
            ],
            capsys,
        )
        text = (tmp_path / "app.py").read_text()
        assert "yaml.safe_load(other)" in text
        assert "yaml.load(data)" in text  # pre-existing untouched
        assert code == 1

    def test_review_requires_an_input_mode(self, capsys):
        with pytest.raises(SystemExit):
            self.run_cli(["review"], capsys)

    def test_review_rejects_both_modes(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            self.run_cli(
                ["review", "HEAD", "--diff", "-", "--root", str(tmp_path)],
                capsys,
            )


class TestLegacyShim:
    """The pre-1.6 flat-flag spelling is gone: it is an argparse error."""

    def test_legacy_scan_is_rejected(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "t.py"
        path.write_text(PREAMBLE + VULN_YAML)
        with pytest.raises(SystemExit) as excinfo:
            main([str(path)])
        captured = capsys.readouterr()
        assert excinfo.value.code == 2
        assert "invalid choice" in captured.err
        assert captured.out == ""

    def test_legacy_patch_flag_is_rejected(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "t.py"
        path.write_text(PREAMBLE + VULN_YAML)
        with pytest.raises(SystemExit) as excinfo:
            main([str(path), "--patch"])
        captured = capsys.readouterr()
        assert excinfo.value.code == 2
        assert "yaml.safe_load" not in captured.out
        assert path.read_text() == PREAMBLE + VULN_YAML

    def test_subcommand_invocations_print_no_notice(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "t.py"
        path.write_text("x = 1\n")
        assert main(["scan", str(path)]) == 0
        assert "deprecated" not in capsys.readouterr().err


# --------------------------------------------------------------- the server


class TestServerReview:
    @pytest.fixture(scope="class")
    def running_server(self):
        server = PatchitPyServer(config=ServerConfig(port=0))
        with BackgroundServer(server) as handle:
            with ServerClient(port=handle.port) as client:
                yield server, client

    def make_change(self, tmp_path):
        old = PREAMBLE + VULN_YAML
        new = PREAMBLE + VULN_YAML + VULN_SHELL
        (tmp_path / "app.py").write_text(new)
        return unified(old, new)

    def test_review_round_trip(self, running_server, tmp_path):
        _, client = running_server
        diff = self.make_change(tmp_path)
        payload = client.review(str(tmp_path), diff=diff)
        assert payload["counts"][STATUS_INTRODUCED] == 1
        assert payload["clean"] is False
        statuses = {item["status"] for item in payload["findings"]}
        assert statuses == {STATUS_INTRODUCED}
        restored = ReviewReport.from_dict(
            {**payload, "findings": payload["findings"]}
        )
        assert len(restored.findings) == 1

    def test_review_include_preexisting_and_sarif(self, running_server, tmp_path):
        _, client = running_server
        diff = self.make_change(tmp_path)
        payload = client.review(
            str(tmp_path), diff=diff, include_preexisting=True, sarif=True
        )
        statuses = {item["status"] for item in payload["findings"]}
        assert STATUS_PRE_EXISTING in statuses
        states = {
            r["baselineState"] for r in payload["sarif"]["runs"][0]["results"]
        }
        assert states == {"new", "unchanged"}

    def test_review_warm_cache_round_trip(self, running_server, tmp_path):
        _, client = running_server
        diff = self.make_change(tmp_path)
        cold = client.review(str(tmp_path), diff=diff)
        warm = client.review(str(tmp_path), diff=diff)
        assert cold["cache_misses"] == 2
        assert warm["cache_misses"] == 0 and warm["cache_hits"] == 2

    def test_review_trace_and_metrics_flow(self, running_server, tmp_path):
        server, client = running_server
        before = server.metrics.counters.get("review_calls", 0)
        diff = self.make_change(tmp_path)
        payload = client.review(str(tmp_path), diff=diff, trace=True)
        assert any(e["kind"] == "review" for e in payload["trace_events"])
        assert server.metrics.counters.get("review_calls", 0) == before + 1

    def test_review_validation_errors(self, running_server, tmp_path):
        _, client = running_server
        with pytest.raises(ServerError) as excinfo:
            client.review(str(tmp_path))
        assert excinfo.value.status == 400
        with pytest.raises(ServerError) as excinfo:
            client.review(str(tmp_path / "missing"), diff="x")
        assert excinfo.value.status == 400

    def test_review_bad_revision_is_400(self, running_server, tmp_path):
        _, client = running_server
        (tmp_path / "app.py").write_text("x = 1\n")
        with pytest.raises(ServerError) as excinfo:
            client.review(str(tmp_path), base="no-such-rev")
        assert excinfo.value.status == 400
