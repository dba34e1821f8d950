"""Tests for the Verifier stage: verdict taxonomy and the re-patch loop."""

import warnings
from pathlib import Path

import pytest

from repro.core.engine import PatchitPy
from repro.core.rules import PatchTemplate, RuleSet, rule
from repro.core.sarif import dumps_plain, to_sarif
from repro.core.verify import (
    VERDICT_IMPORT_COLLISION,
    VERDICT_REGRESSED,
    VERDICT_SYNTAX_BROKEN,
    VERDICT_VERIFIED,
    PatchVerdict,
    binding_collisions,
    finding_key,
    syntax_context,
)
from repro.observability import ScanMetrics, TraceRecorder
from repro.types import Finding, Span


def _rules(*rules_):
    return RuleSet(list(rules_))


GOOD_RULE = rule(
    "TST-GOOD-01",
    "CWE-502",
    "unsafe transmogrify",
    r"transmogrify\((\w+)\)",
    patch=PatchTemplate(replacement=r"safe_mogrify(\1)", description="use safe_mogrify"),
)

# Deliberately broken template: the "safe" replacement matches another rule.
TAINTING_RULE = rule(
    "TST-TAINT-01",
    "CWE-502",
    "unsafe frobnicate",
    r"frobnicate\((\w+)\)",
    patch=PatchTemplate(replacement=r"dangerously(\1)", description="broken rewrite"),
)
DANGER_RULE = rule(
    "TST-DANGER-01",
    "CWE-094",
    "dangerous call",
    r"dangerously\(",
)

# Deliberately broken template: replacement is identical, so the
# triggering finding survives patching verbatim.
NOOP_RULE = rule(
    "TST-NOOP-01",
    "CWE-094",
    "noop rewrite",
    r"noop_bad\(\)",
    patch=PatchTemplate(replacement="noop_bad()", description="does nothing"),
)

# Deliberately broken template: the replacement is not valid Python.
BREAKING_RULE = rule(
    "TST-BREAK-01",
    "CWE-094",
    "legacy parse",
    r"legacy_parse\((\w+)\)",
    patch=PatchTemplate(replacement=r"broken((", description="mangles syntax"),
)

# An unclosed-call fragment: it never parses on its own, yet applied to
# its text it compiles.
FRAGMENT_RULE = rule(
    "TST-FRAG-01",
    "CWE-328",
    "weak hash",
    r"weak_hash\(",
    patch=PatchTemplate(replacement="strong_hash(", description="use strong_hash"),
)

COLLIDING_RULE = rule(
    "TST-COLLIDE-01",
    "CWE-330",
    "weak token",
    r"weak_token\(\)",
    patch=PatchTemplate(
        replacement="secrets.token_hex(16)",
        imports=("import secrets",),
        description="use secrets",
    ),
)


class TestFindingKey:
    def test_stable_under_offset_shift(self):
        a = Finding("R1", "CWE-094", "m", Span(0, 7), snippet="evil(x)")
        b = Finding("R1", "CWE-094", "m", Span(10, 17), snippet="evil(x)")
        assert finding_key("evil(x)\n\n\nevil(x)\n", a) == finding_key(
            "evil(x)\n\n\nevil(x)\n", b
        )

    def test_distinct_rules_distinct_keys(self):
        f = Finding("R1", "CWE-094", "m", Span(0, 7))
        g = Finding("R2", "CWE-094", "m", Span(0, 7))
        src = "evil(x)\n"
        assert finding_key(src, f) != finding_key(src, g)

    def test_distinct_text_distinct_keys(self):
        f = Finding("R1", "CWE-094", "m", Span(0, 7))
        assert finding_key("evil(x)\n", f) != finding_key("evil(y)\n", f)

    def test_span_clamped_to_source(self):
        f = Finding("R1", "CWE-094", "m", Span(0, 999))
        assert finding_key("short\n", f)  # no IndexError


class TestSyntaxContext:
    def test_full_module(self):
        assert syntax_context("x = 1\n") == "module"

    def test_function_body_snippet(self):
        assert syntax_context("return compute()\n") == "function-body"

    def test_async_body_snippet(self):
        assert syntax_context("return await fetch()\n") == "async-body"

    def test_indented_snippet(self):
        assert syntax_context("    return pickle.loads(x)\n") is not None

    def test_invalid_everywhere(self):
        assert syntax_context("def f(:\n") is None


class TestBindingCollisions:
    def test_assignment_collides(self):
        out = binding_collisions('secrets = "hunter2"\n', ["import secrets"])
        assert "secrets" in out and "assignment" in out["secrets"]

    def test_def_collides(self):
        out = binding_collisions("def json(x):\n    return x\n", ["import json"])
        assert "json" in out

    def test_alias_collides(self):
        out = binding_collisions("import numpy as hashlib\n", ["import hashlib"])
        assert "hashlib" in out

    def test_already_imported_is_skipped(self):
        # nothing new would be inserted, so nothing can collide
        out = binding_collisions("import json\njson = json\n", ["import json"])
        assert out == {}

    def test_clean_file_no_collision(self):
        assert binding_collisions("x = 1\n", ["import json"]) == {}


class TestVerdictTaxonomy:
    def test_verified(self):
        engine = PatchitPy(rules=_rules(GOOD_RULE))
        result = engine.patch("y = transmogrify(data)\n")
        assert result.patched == "y = safe_mogrify(data)\n"
        assert [v.status for v in result.verdicts] == [VERDICT_VERIFIED]
        assert result.verified and not result.unverified

    def test_regressed_new_finding_introduced(self):
        engine = PatchitPy(rules=_rules(TAINTING_RULE, DANGER_RULE))
        result = engine.patch("y = frobnicate(data)\n")
        # the broken rewrite is detected and reverted, not shipped
        assert result.patched == "y = frobnicate(data)\n"
        assert result.applied == []
        assert [v.status for v in result.verdicts] == [VERDICT_REGRESSED]
        assert result.verdicts[0].reverted
        assert "new finding" in result.verdicts[0].detail

    def test_regressed_trigger_survives(self):
        engine = PatchitPy(rules=_rules(NOOP_RULE))
        result = engine.patch("noop_bad()\n")
        assert result.patched == "noop_bad()\n"
        # the identical-replacement patch re-applies on every fixpoint
        # pass, so one verdict per application — all regressed, all
        # reverted, none shipped
        assert result.verdicts and result.applied == []
        assert all(v.status == VERDICT_REGRESSED for v in result.verdicts)
        assert all(v.reverted for v in result.verdicts)
        assert "still present" in result.verdicts[0].detail

    def test_syntax_broken(self):
        engine = PatchitPy(rules=_rules(BREAKING_RULE))
        result = engine.patch("value = legacy_parse(raw)\n")
        assert result.patched == "value = legacy_parse(raw)\n"
        assert [v.status for v in result.verdicts] == [VERDICT_SYNTAX_BROKEN]
        assert result.verdicts[0].reverted

    def test_import_collision(self):
        engine = PatchitPy(rules=_rules(COLLIDING_RULE))
        source = 'secrets = "hunter2"\ntoken = weak_token()\n'
        result = engine.patch(source)
        assert result.patched == source
        assert [v.status for v in result.verdicts] == [VERDICT_IMPORT_COLLISION]
        assert "secrets" in result.verdicts[0].detail

    def test_incomplete_snippet_not_flagged_as_syntax_broken(self):
        # the paper's incomplete-snippet case: a bare function body is
        # valid in a wrapper context before AND after patching
        engine = PatchitPy(rules=_rules(GOOD_RULE))
        result = engine.patch("    return transmogrify(blob)\n")
        assert "safe_mogrify" in result.patched
        assert [v.status for v in result.verdicts] == [VERDICT_VERIFIED]

    def test_never_compilable_original_cannot_regress_on_syntax(self):
        # original compiles in no context, so the patch can't be blamed
        # for a syntax state that was already broken
        engine = PatchitPy(rules=_rules(GOOD_RULE))
        result = engine.patch("def f(:\n    transmogrify(x)\n")
        assert [v.status for v in result.verdicts] == [VERDICT_VERIFIED]


class TestRepatchLoop:
    def test_good_patch_survives_bad_patch_reverted(self):
        engine = PatchitPy(rules=_rules(GOOD_RULE, BREAKING_RULE))
        source = "a = transmogrify(x)\nb = legacy_parse(y)\n"
        result = engine.patch(source)
        # converges: the good patch ships, the breaking one is banned
        assert result.patched == "a = safe_mogrify(x)\nb = legacy_parse(y)\n"
        statuses = sorted(v.status for v in result.verdicts)
        assert statuses == [VERDICT_SYNTAX_BROKEN, VERDICT_VERIFIED]
        reverted = [v for v in result.verdicts if v.reverted]
        assert [v.rule_id for v in reverted] == ["TST-BREAK-01"]
        assert len(result.applied) == 1

    def test_only_the_patch_that_breaks_alone_is_blamed(self):
        engine = PatchitPy(rules=_rules(FRAGMENT_RULE, BREAKING_RULE))
        result = engine.patch("a = weak_hash(x)\nb = legacy_parse(y)\n")
        assert result.patched == "a = strong_hash(x)\nb = legacy_parse(y)\n"
        assert [(v.rule_id, v.status, v.reverted) for v in result.verdicts] == [
            ("TST-BREAK-01", VERDICT_SYNTAX_BROKEN, True),
            ("TST-FRAG-01", VERDICT_VERIFIED, False),
        ]
        assert "alone" in result.verdicts[0].detail

    def test_an_interaction_blames_every_patch(self):
        # each patch alone compiles; together they assign a name before
        # declaring it global
        global_rule = rule(
            "TST-GLOBAL-01", "CWE-094", "declares", r"foo\(\)",
            patch=PatchTemplate(replacement="global x", description="declare"),
        )
        assign_rule = rule(
            "TST-ASSIGN-01", "CWE-094", "assigns", r"bar\(\)",
            patch=PatchTemplate(replacement="x = 1", description="assign"),
        )
        engine = PatchitPy(rules=_rules(global_rule, assign_rule))
        source = "def f():\n    bar()\n    foo()\n"
        result = engine.patch(source)
        assert result.patched == source
        assert [v.status for v in result.verdicts] == [VERDICT_SYNTAX_BROKEN] * 2
        assert all("no wrapper context" in v.detail for v in result.verdicts)

    def test_attempts_bounded(self):
        engine = PatchitPy(rules=_rules(NOOP_RULE), max_verify_attempts=1)
        result = engine.patch("noop_bad()\n")
        assert result.patched == "noop_bad()\n"
        assert all(v.reverted for v in result.verdicts)

    def test_invalid_max_verify_attempts_rejected(self):
        with pytest.raises(ValueError):
            PatchitPy(max_verify_attempts=0)


class TestWarningFilters:
    """Compiling user text says nothing and depends on no warning filter."""

    # an invalid escape: a DeprecationWarning, a SyntaxWarning from 3.12
    SOURCE = 'import re\nPATTERN = re.compile("\\d+")\nvalue = legacy_parse(raw)\n'

    def _patch(self, action):
        engine = PatchitPy(rules=_rules(BREAKING_RULE))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            result = engine.patch(self.SOURCE)
        return result, caught

    def test_no_warning_and_the_same_result_under_any_filter(self):
        result, caught = self._patch("always")
        assert [str(w.message) for w in caught] == []
        assert [v.status for v in result.verdicts] == [VERDICT_SYNTAX_BROKEN]
        assert self._patch("error")[0] == result
        assert self._patch("ignore")[0] == result


class TestCorpusGate:
    """The verifier reverts nothing the engine ships for the corpus, and
    an indented corpus sample that compiles keeps compiling."""

    def test_no_patch_reverted_on_the_corpus(self, flat_samples, engine):
        assert len(flat_samples) == 609
        reverted = [
            (sample.sample_id, v.rule_id, v.detail)
            for sample in flat_samples
            for v in engine.patch(sample.source).verdicts
            if v.reverted
        ]
        assert reverted == []

    def test_indented_samples_get_no_syntax_broken_verdict(self, flat_samples, engine):
        compiling, broken = 0, []
        for pad in (" ", "  ", "    ", "        "):
            for sample in flat_samples:
                text = "".join(
                    pad + line for line in sample.source.splitlines(keepends=True)
                )
                if syntax_context(text) is None:
                    continue
                compiling += 1
                broken.extend(
                    (len(pad), sample.sample_id, v.rule_id)
                    for v in engine.patch(text).verdicts
                    if v.status == VERDICT_SYNTAX_BROKEN
                )
        assert compiling == 2056
        assert broken == []


class TestVerdictSurfacing:
    def test_analyze_report_carries_verdicts(self):
        engine = PatchitPy(rules=_rules(GOOD_RULE))
        report = engine.analyze("y = transmogrify(data)\n")
        assert [v.status for v in report.verdicts] == [VERDICT_VERIFIED]

    def test_provenance_carries_verdict(self):
        engine = PatchitPy(rules=_rules(GOOD_RULE))
        report = engine.analyze("y = transmogrify(data)\n")
        prov = report.findings[0].provenance
        assert prov is not None and prov.patch is not None
        assert prov.patch.verdict == VERDICT_VERIFIED

    def test_explain_shows_verdict(self):
        from repro.observability import render_explain

        engine = PatchitPy(rules=_rules(BREAKING_RULE))
        report = engine.analyze("value = legacy_parse(raw)\n")
        text = render_explain(report.findings[0])
        assert "verdict: syntax-broken" in text

    def test_provenance_verdict_roundtrips(self):
        from repro.observability.provenance import PatchProvenance

        prov = PatchProvenance("d", "r", (), verdict="regressed", verdict_detail="why")
        clone = PatchProvenance.from_dict(prov.to_dict())
        assert clone.verdict == "regressed" and clone.verdict_detail == "why"
        # no verdict -> pre-1.5 serialized shape
        assert "verdict" not in PatchProvenance("d", "r", ()).to_dict()

    def test_sarif_embeds_verdicts(self):
        engine = PatchitPy(rules=_rules(GOOD_RULE))
        report = engine.analyze("y = transmogrify(data)\n")
        log = to_sarif(report)
        verdicts = log["runs"][0]["invocations"][0]["properties"]["patchVerdicts"]
        assert verdicts[0]["status"] == VERDICT_VERIFIED

    def test_plain_json_embeds_verdicts(self):
        engine = PatchitPy(rules=_rules(GOOD_RULE))
        report = engine.analyze("y = transmogrify(data)\n")
        assert '"patch_verdicts"' in dumps_plain(report)

    def test_plain_json_shape_unchanged_without_verdicts(self):
        engine = PatchitPy(rules=_rules(GOOD_RULE))
        report = engine.analyze("y = transmogrify(data)\n", patch=False)
        assert '"patch_verdicts"' not in dumps_plain(report)

    def test_verdict_roundtrips(self):
        verdict = PatchVerdict(
            "R1", "CWE-094", (3, 9), VERDICT_REGRESSED, detail="d",
            trigger_key="abc", reverted=True,
        )
        assert PatchVerdict.from_dict(verdict.to_dict()) == verdict


class TestObservabilityIntegration:
    def test_metrics_counters(self):
        metrics = ScanMetrics()
        engine = PatchitPy(rules=_rules(GOOD_RULE, BREAKING_RULE))
        engine.patch(
            "a = transmogrify(x)\nb = legacy_parse(y)\n", metrics=metrics
        )
        counters = metrics.to_dict()["counters"]
        assert counters["patch_verdict_verified"] == 1
        assert counters["patch_verdict_syntax_broken"] == 1
        assert counters["patches_verified"] == 1
        assert counters["patches_reverted"] == 1
        assert counters["patch_verify_attempts"] >= 1

    def test_trace_event_emitted(self):
        tracer = TraceRecorder()
        engine = PatchitPy(rules=_rules(GOOD_RULE))
        engine.patch("y = transmogrify(data)\n", trace=tracer)
        events = [e for e in tracer.events if e["kind"] == "patch-verify"]
        assert len(events) == 1
        assert events[0]["status"] == VERDICT_VERIFIED


class TestProjectIntegration:
    def test_patch_tree_aggregates_verdicts(self, tmp_path: Path):
        (tmp_path / "good.py").write_text("a = transmogrify(x)\n")
        (tmp_path / "bad.py").write_text("b = legacy_parse(y)\n")
        from repro.core.project import ProjectScanner

        engine = PatchitPy(rules=_rules(GOOD_RULE, BREAKING_RULE))
        scanner = ProjectScanner(engine=engine)
        report = scanner.patch_tree(tmp_path, backup=False, use_cache=False)
        assert report.verified_patches == 1
        assert report.unverified_patches == 1
        assert report.verdict_counts() == {
            VERDICT_SYNTAX_BROKEN: 1,
            VERDICT_VERIFIED: 1,
        }
        assert "patch verdicts:" in report.summary()
        assert "unverified patches reverted: 1" in report.summary()
        # the unverifiable file was left byte-identical but still reports
        bad = next(f for f in report.files if f.path.name == "bad.py")
        assert not bad.patched and bad.reverted_patches == 1
        assert (tmp_path / "bad.py").read_text() == "b = legacy_parse(y)\n"

    def test_server_payload_carries_verdicts(self):
        from repro.server.app import analyze_payload

        engine = PatchitPy(rules=_rules(GOOD_RULE, BREAKING_RULE))
        payload, _ = analyze_payload(
            engine, "a = transmogrify(x)\nb = legacy_parse(y)\n", patch=True
        )
        assert payload["patches_reverted"] == 1
        assert payload["verified"] is False
        statuses = {v["status"] for v in payload["patch_verdicts"]}
        assert statuses == {VERDICT_VERIFIED, VERDICT_SYNTAX_BROKEN}
        # clients must never see an edit the verifier refused to ship
        assert [p["rule_id"] for p in payload["patches"]] == ["TST-GOOD-01"]

    def test_server_payload_verified_defaults(self):
        from repro.server.app import analyze_payload

        engine = PatchitPy(rules=_rules(GOOD_RULE))
        payload, _ = analyze_payload(engine, "x = 1\n", patch=True)
        assert payload["verified"] is True
        assert payload["patch_verdicts"] == []

    def test_html_report_shows_verdict_counts(self, tmp_path: Path):
        from repro.core.htmlreport import render_html_report
        from repro.core.project import ProjectScanner

        (tmp_path / "good.py").write_text("a = transmogrify(x)\n")
        (tmp_path / "bad.py").write_text("b = legacy_parse(y)\n")
        engine = PatchitPy(rules=_rules(GOOD_RULE, BREAKING_RULE))
        scanner = ProjectScanner(engine=engine)
        report = scanner.patch_tree(tmp_path, backup=False, use_cache=False)
        document = render_html_report(report)
        assert "Patch verdicts" in document
        assert VERDICT_VERIFIED in document
        assert VERDICT_SYNTAX_BROKEN in document
        assert "1 patch(es) failed verification" in document


class TestCliIntegration:
    def test_exit_code_3_on_reverted_patch(self, tmp_path: Path, monkeypatch, capsys):
        # route the CLI onto a ruleset with a deliberately-broken template
        import repro.cli as cli

        target = tmp_path / "sample.py"
        target.write_text("value = legacy_parse(raw)\n")
        real = cli.PatchitPy

        def patched_engine(**kwargs):
            kwargs["rules"] = _rules(BREAKING_RULE)
            return real(**kwargs)

        monkeypatch.setattr(cli, "PatchitPy", patched_engine)
        code = cli.main(["patch", str(target)])
        captured = capsys.readouterr()
        assert code == 3
        assert "syntax-broken" in captured.err
        # verification cannot be turned off
        with pytest.raises(SystemExit) as exited:
            cli.main(["patch", str(target), "--no-verify"])
        assert exited.value.code == 2

    def test_verify_flag_parses(self):
        """There is no flag: every patching subcommand verifies."""
        from repro.cli import build_parser

        for argv in (
            ["patch", "x.py", "--no-verify"],
            ["patch", "x.py", "--verify"],
            ["review", "HEAD", "--patch", "--no-verify"],
        ):
            with pytest.raises(SystemExit) as exited:
                build_parser().parse_args(argv)
            assert exited.value.code == 2

    def test_sarif_export_carries_verdicts_and_exit_code(
        self, tmp_path: Path, monkeypatch, capsys
    ):
        import json

        import repro.cli as cli

        target = tmp_path / "sample.py"
        target.write_text("value = legacy_parse(raw)\n")
        real = cli.PatchitPy

        def patched_engine(**kwargs):
            kwargs["rules"] = _rules(BREAKING_RULE)
            return real(**kwargs)

        monkeypatch.setattr(cli, "PatchitPy", patched_engine)
        code = cli.main(["patch", str(target), "--format", "sarif"])
        captured = capsys.readouterr()
        assert code == 3
        log = json.loads(captured.out)
        verdicts = log["runs"][0]["invocations"][0]["properties"]["patchVerdicts"]
        assert [v["status"] for v in verdicts] == [VERDICT_SYNTAX_BROKEN]
        assert verdicts[0]["reverted"] is True
        # detection-only SARIF keeps the pre-1.5 shape
        code = cli.main(["scan", str(target), "--format", "sarif"])
        run = json.loads(capsys.readouterr().out)["runs"][0]
        assert code == 1 and "invocations" not in run
