"""Tests for the LSP-style language-server layer."""

import pytest

from repro.core import PatchitPy
from repro.ide.protocol import LanguageServer

VULN = 'import pickle\n\ndef restore(blob):\n    return pickle.loads(blob)\n'
URI = "file:///w/restore.py"


@pytest.fixture()
def server():
    return LanguageServer()


class TestLifecycle:
    def test_initialize_capabilities(self, server):
        response = server.initialize()
        assert response["capabilities"]["codeActionProvider"]
        assert response["serverInfo"]["name"] == "patchitpy-ls"

    def test_did_open_publishes_diagnostics(self, server):
        published = server.did_open(URI, VULN)
        assert published["uri"] == URI
        assert len(published["diagnostics"]) == 1
        diagnostic = published["diagnostics"][0]
        assert diagnostic["code"] == "CWE-502"
        assert diagnostic["source"] == "patchitpy"
        assert diagnostic["severity"] == 1  # critical → Error

    def test_did_change_refreshes(self, server):
        server.did_open(URI, VULN)
        published = server.did_change(URI, "x = 1\n")
        assert published["diagnostics"] == []

    def test_did_close_forgets(self, server):
        server.did_open(URI, VULN)
        server.did_close(URI)
        with pytest.raises(KeyError):
            server.document_text(URI)

    def test_diagnostic_range_points_at_call(self, server):
        published = server.did_open(URI, VULN)
        r = published["diagnostics"][0]["range"]
        assert r["start"]["line"] == 3


class TestCodeActions:
    def test_quickfix_offered(self, server):
        server.did_open(URI, VULN)
        actions = server.code_actions(URI)
        assert len(actions) == 1
        action = actions[0]
        assert action["kind"] == "quickfix"
        assert "json" in str(action["edit"]).lower()

    def test_range_filtering(self, server):
        server.did_open(URI, VULN)
        assert server.code_actions(URI, 0, 5) == []  # import line only

    def test_edit_includes_import_insertion(self, server):
        server.did_open(URI, VULN)
        action = server.code_actions(URI)[0]
        assert server.apply_workspace_edit(action["edit"])["applied"]
        # the line diff to the verified patch: the import json insertion,
        # and the pruning of the import pickle left dead
        text = server.document_text(URI)
        assert text == PatchitPy().patch(VULN).patched
        assert "import json\n" in text and "import pickle" not in text

    def test_detection_only_findings_have_no_action(self, server):
        server.did_open(URI, "exec(payload)\n")
        assert server.code_actions(URI) == []

    def test_identical_matches_share_one_action(self, server):
        # both calls match the same text: one identity, one patch() call
        server.did_open(URI, "import hashlib\na = hashlib.md5(x)\nb = hashlib.md5(y)\n")
        (action,) = server.code_actions(URI)
        assert [d["range"]["start"]["line"] for d in action["diagnostics"]] == [1, 2]
        assert server.apply_workspace_edit(action["edit"])["applied"]
        assert server.document_text(URI).count("hashlib.sha256(") == 2

    def test_quick_fix_prunes_every_unused_import(self, server):
        # Breaking since 6.0.0: the verified patch drops each top-level
        # import that nothing uses, also one the fix did not touch
        server.did_open(URI, "import sys\nimport hashlib\nh = hashlib.md5(d)\n")
        (action,) = server.code_actions(URI)
        assert server.apply_workspace_edit(action["edit"])["applied"]
        assert server.document_text(URI) == "import hashlib\nh = hashlib.sha256(d)\n"

    def test_fix_the_verifier_reverts_is_not_offered(self, server):
        # os.system's fix imports subprocess over an existing binding
        server.did_open(URI, "import os\nsubprocess = load_runner()\nos.system(cmd)\n")
        assert server.code_actions(URI) == []


class TestApplyEdit:
    def test_roundtrip_fixes_document(self, server):
        server.did_open(URI, VULN)
        action = server.code_actions(URI)[0]
        outcome = server.apply_workspace_edit(action["edit"])
        assert outcome["applied"]
        text = server.document_text(URI)
        assert "json.loads(blob)" in text
        assert "import json" in text
        # refreshed diagnostics show the pickle finding gone
        assert outcome["diagnostics"][URI]["diagnostics"] == [] or all(
            d["code"] != "CWE-502" for d in outcome["diagnostics"][URI]["diagnostics"]
        )

    def test_overlapping_edits_are_refused(self, server):
        server.did_open(URI, "abcdef\n")
        edit = {
            "changes": {
                URI: [
                    {"range": _span(0, 0, 0, 4), "newText": "X"},
                    {"range": _span(0, 2, 0, 6), "newText": "Y"},
                ]
            }
        }
        outcome = server.apply_workspace_edit(edit)
        assert outcome["applied"] is False
        assert "overlapping" in outcome["failureReason"]
        assert server.document_text(URI) == "abcdef\n"

    def test_edit_outside_the_document_is_refused(self, server):
        server.did_open(URI, "x = 1\n")
        edit = {"changes": {URI: [{"range": _span(0, 0, 9, 0), "newText": ""}]}}
        assert server.apply_workspace_edit(edit)["applied"] is False
        assert server.document_text(URI) == "x = 1\n"

    def test_full_loop_until_clean(self, server):
        source = (
            "import pickle\nfrom flask import Flask, request\n\napp = Flask(__name__)\n\n"
            '@app.route("/x", methods=["POST"])\ndef x():\n'
            "    state = pickle.loads(request.data)\n"
            '    return f"<p>{state}</p>"\n\napp.run(debug=True)\n'
        )
        server.did_open(URI, source)
        for _ in range(8):
            actions = server.code_actions(URI)
            if not actions:
                break
            server.apply_workspace_edit(actions[0]["edit"])
        final = server.did_change(URI, server.document_text(URI))
        assert final["diagnostics"] == []


def _span(start_line, start_character, end_line, end_character):
    return {
        "start": {"line": start_line, "character": start_character},
        "end": {"line": end_line, "character": end_character},
    }
