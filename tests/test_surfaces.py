"""Every editor surface ships exactly the text a verified ``patch()`` ships.

The VS Code extension model and the LSP quick fixes turn findings into
edits the same way: one :meth:`PatchitPy.patch` call, with the findings
the user did not ask for excluded by identity, expressed as a line diff
of the submitted text.  These properties hold the surfaces to that call
on the whole corpus and on detect's mutation strategy (indented
snippets included), so no editor edit skips overlap resolution, import
pruning or the verifier, and none breaks an input that compiles.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.core import PatchitPy, finding_key
from repro.core.verify import syntax_context
from repro.ide import LanguageServer, PatchitPyExtension, TextDocument
from tests.test_candidates import mutated_samples

URI = "file:///surface.py"


def _compiles_if_input_did(before: str, after: str) -> bool:
    return syntax_context(before) is None or syntax_context(after) is not None


def check_whole_document(engine: PatchitPy, text: str) -> None:
    document = TextDocument(text)
    PatchitPyExtension(engine=engine).assess_selection(document)
    assert document.get_text() == engine.patch(text).patched
    assert _compiles_if_input_did(text, document.get_text())


def check_selection(engine: PatchitPy, text: str) -> None:
    """The first half of the lines selected: the identity of every
    finding not accepted (outside the selection, or inside with no patch
    for its rule) is excluded, even where an accepted twin shares it."""
    document = TextDocument(text)
    selection = document.range_of_lines(0, (document.line_count - 1) // 2)
    start = document.offset_at(selection.start)
    end = document.offset_at(selection.end)
    findings = engine.detect(text)
    accepted = [
        f for f in findings if f.fixable and start <= f.span.start and f.span.end <= end
    ]
    declined = frozenset(finding_key(text, f) for f in findings if f not in accepted)
    expected = engine.patch(text, findings, exclude=declined).patched

    session = PatchitPyExtension(engine=engine).assess_selection(document, selection)
    assert session.accepted == accepted
    assert session.withheld == [f for f in accepted if finding_key(text, f) in declined]
    assert document.get_text() == expected
    assert _compiles_if_input_did(text, document.get_text())


def check_quick_fixes(engine: PatchitPy, text: str) -> None:
    """One action per fixable finding identity whose verified patch
    changes the text, each applying to exactly that patch."""
    findings = engine.detect(text)
    keys = [finding_key(text, f) for f in findings]
    expected = []
    for key in dict.fromkeys(k for f, k in zip(findings, keys) if f.fixable):
        result = engine.patch(text, findings, exclude=frozenset(keys) - {key})
        if result.changed:
            rule_id = next(f.rule_id for f, k in zip(findings, keys) if k == key)
            expected.append((rule_id, result.patched))

    server = LanguageServer(engine=engine)
    server.did_open(URI, text)
    actions = server.code_actions(URI)
    assert [a["data"]["ruleId"] for a in actions] == [rule for rule, _ in expected]
    for action, (_, patched) in zip(actions, expected):
        server.did_change(URI, text)
        assert server.apply_workspace_edit(action["edit"])["applied"]
        assert server.document_text(URI) == patched
        assert _compiles_if_input_did(text, patched)


CHECKS = [check_whole_document, check_selection, check_quick_fixes]


@pytest.mark.parametrize("check", CHECKS, ids=lambda check: check.__name__)
def test_surfaces_ship_the_verified_patch_on_the_corpus(flat_samples, engine, check):
    assert len(flat_samples) > 600  # the whole corpus, not a slice
    for sample in flat_samples:
        try:
            check(engine, sample.source)
        except AssertionError as error:
            raise AssertionError(sample.sample_id) from error


@pytest.mark.parametrize("check", CHECKS, ids=lambda check: check.__name__)
def test_surfaces_ship_the_verified_patch_on_doubled_samples(flat_samples, engine, check):
    """Each sample twice over, so every finding has a twin with its
    identity: the selection (the first copy) withholds every accepted
    finding, and a quick fix patches both copies."""
    for sample in flat_samples:
        text = sample.source if sample.source.endswith("\n") else sample.source + "\n"
        try:
            check(engine, text * 2)
        except AssertionError as error:
            raise AssertionError(sample.sample_id) from error


@pytest.mark.parametrize("check", CHECKS, ids=lambda check: check.__name__)
def test_surfaces_ship_the_verified_patch_on_mutations(flat_samples, engine, check):
    @settings(max_examples=100, deadline=None)
    @given(source=mutated_samples([sample.source for sample in flat_samples]))
    def run(source):
        check(engine, source)

    run()


def test_an_indented_snippet_gets_both_fixes():
    """Imports go in at the snippet's margin, so each quick fix and the
    whole-file patch verify."""
    text = "    import hashlib\n    h = hashlib.md5(data)\n    os.system(cmd)\n"
    patched = PatchitPy().patch(text)
    assert not patched.unverified
    assert patched.patched.startswith(
        "    import hashlib\n    import subprocess\n    import shlex\n"
    )

    server = LanguageServer()
    server.did_open(URI, text)
    actions = server.code_actions(URI)
    assert len(actions) == 2
    for action in actions:
        server.did_change(URI, text)
        assert server.apply_workspace_edit(action["edit"])["applied"]
        assert server.document_text(URI) != text
        assert syntax_context(server.document_text(URI)) is not None

    document = TextDocument(text)
    session = PatchitPyExtension().assess_selection(document)
    assert len(session.accepted) == 2
    assert document.get_text() == patched.patched
