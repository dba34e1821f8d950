"""Language-server-style protocol surface for other editors.

The paper's conclusion names extending beyond VS Code as future work; the
portable way to do that is the Language Server Protocol.  This module
exposes the engine through LSP-shaped payloads over the in-memory
document model:

- ``textDocument/didOpen``/``didChange`` → diagnostics published per
  document (one diagnostic per finding, LSP severity mapping, CWE code);
- ``textDocument/codeAction`` → one quick-fix action per patchable
  finding identity in the requested range whose verified patch changes
  the document.  Its workspace edit is the line diff from the document
  to ``engine.patch(source, findings, exclude=<the other findings'
  keys>)`` (:func:`~repro.ide.edits.line_diff`), imports included,
  which the client applies verbatim.  Identities hash the rule and the
  matched text, so identical matches (two ``hashlib.md5(`` calls) share
  one action, which fixes them all.

Payloads are plain dicts in LSP 3.17 shapes, so a thin stdio transport
can serve any LSP-capable editor.

The language server normally embeds an in-process engine; pointing it at
a running scan daemon instead is one line —
``LanguageServer(engine=ServerTransport(ServerClient(port=8753)))`` —
because :class:`ServerTransport` exposes the two engine methods the
server calls (``detect`` and ``patch``) over the daemon's
``/v1/analyze`` endpoint.  Many editor windows then share one warm
engine instead of each paying rule-compilation at startup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core import PatchitPy
from repro.core.engine import PatchResult
from repro.core.verify import PatchVerdict, finding_key
from repro.exceptions import DocumentError
from repro.ide.document import Position, Range, TextDocument
from repro.ide.edits import WorkspaceEdit, line_diff
from repro.types import Finding, Patch, Severity

# LSP DiagnosticSeverity: 1=Error, 2=Warning, 3=Information, 4=Hint
_LSP_SEVERITY = {
    Severity.CRITICAL: 1,
    Severity.HIGH: 1,
    Severity.MEDIUM: 2,
    Severity.LOW: 3,
}


def _position(document: TextDocument, offset: int) -> Dict[str, int]:
    position = document.position_at(offset)
    return {"line": position.line, "character": position.character}


def _range(document: TextDocument, start: int, end: int) -> Dict[str, object]:
    return {"start": _position(document, start), "end": _position(document, end)}


@dataclass
class LanguageServer:
    """A minimal PatchitPy language server over in-memory documents."""

    engine: PatchitPy = field(default_factory=PatchitPy)
    _documents: Dict[str, TextDocument] = field(default_factory=dict)
    _findings: Dict[str, List[Finding]] = field(default_factory=dict)

    # ------------------------------------------------------ lifecycle

    def initialize(self) -> Dict[str, object]:
        """The ``initialize`` response advertising server capabilities."""
        return {
            "capabilities": {
                "textDocumentSync": 1,  # full sync
                "codeActionProvider": {"codeActionKinds": ["quickfix"]},
                "diagnosticProvider": {
                    "interFileDependencies": False,
                    "workspaceDiagnostics": False,
                },
            },
            "serverInfo": {"name": "patchitpy-ls", "version": "1.0.0"},
        }

    # ------------------------------------------------- document sync

    def did_open(self, uri: str, text: str) -> Dict[str, object]:
        """Handle ``textDocument/didOpen``; returns publishDiagnostics."""
        self._documents[uri] = TextDocument(text, uri=uri)
        return self._publish(uri)

    def did_change(self, uri: str, text: str) -> Dict[str, object]:
        """Handle full-sync ``textDocument/didChange``."""
        if uri not in self._documents:
            return self.did_open(uri, text)
        document = self._documents[uri]
        document.replace(document.full_range(), text)
        return self._publish(uri)

    def did_close(self, uri: str) -> None:
        """Handle textDocument/didClose: drop server state."""
        self._documents.pop(uri, None)
        self._findings.pop(uri, None)

    def document_text(self, uri: str) -> str:
        """Current text of an open document."""
        return self._documents[uri].get_text()

    # ----------------------------------------------------- diagnostics

    def _publish(self, uri: str) -> Dict[str, object]:
        document = self._documents[uri]
        source = document.get_text()
        findings = self.engine.detect(source)
        self._findings[uri] = findings
        diagnostics = [
            {
                "range": _range(document, f.span.start, f.span.end),
                "severity": _LSP_SEVERITY[f.severity],
                "code": f.cwe_id,
                "source": "patchitpy",
                "message": f.message,
                "data": {"ruleId": f.rule_id, "fixable": f.fixable},
            }
            for f in findings
        ]
        return {"uri": uri, "diagnostics": diagnostics}

    # ----------------------------------------------------- code actions

    def code_actions(
        self,
        uri: str,
        start_offset: Optional[int] = None,
        end_offset: Optional[int] = None,
    ) -> List[Dict[str, object]]:
        """Handle ``textDocument/codeAction`` for an offset range."""
        document = self._documents[uri]
        source = document.get_text()
        findings = self._findings.get(uri)
        if findings is None:
            findings = self.engine.detect(source)
            self._findings[uri] = findings

        if start_offset is None:
            start_offset = 0
        if end_offset is None:
            end_offset = len(source)

        keys = [finding_key(source, f) for f in findings]
        every_key = frozenset(keys)
        # Identities are position-independent: same-text twins share a
        # key, which must stay patchable, so they share one action.
        in_range: Dict[str, List[Finding]] = {}
        for finding, key in zip(findings, keys):
            if (
                finding.fixable
                and start_offset <= finding.span.end
                and finding.span.start <= end_offset
            ):
                in_range.setdefault(key, []).append(finding)
        actions: List[Dict[str, object]] = []
        for key, twins in in_range.items():
            result = self.engine.patch(source, findings, exclude=every_key - {key})
            if not result.changed:
                continue
            description = next(
                (p.description for p in result.rendered if p.trigger_key == key), ""
            )
            edits = [
                {"range": _range(document, start, end), "newText": new_text}
                for start, end, new_text in line_diff(source, result.patched)
            ]
            actions.append(
                {
                    "title": f"PatchitPy: {description or 'apply safe alternative'}",
                    "kind": "quickfix",
                    "diagnostics": [
                        {
                            "range": _range(document, f.span.start, f.span.end),
                            "code": f.cwe_id,
                            "message": f.message,
                        }
                        for f in twins
                    ],
                    "edit": {"changes": {uri: edits}},
                    "data": {"ruleId": twins[0].rule_id},
                }
            )
        return actions

    # ------------------------------------------------------- edit apply

    def apply_workspace_edit(self, edit: Dict[str, object]) -> Dict[str, object]:
        """Apply a ``WorkspaceEdit`` (as a client would) to the documents.

        All or nothing: an edit outside its document, or two edits that
        overlap, answer ``applied: False`` with a ``failureReason`` and
        leave every document unchanged.
        """
        changes = edit.get("changes", {})
        workspace = WorkspaceEdit()
        try:
            for uri, edits in changes.items():
                document = self._documents[uri]
                for change in edits:
                    bounds = change["range"]
                    workspace.replace(
                        document,
                        Range(Position(**bounds["start"]), Position(**bounds["end"])),
                        change["newText"],
                    )
            workspace.apply()
        except DocumentError as error:
            return {"applied": False, "failureReason": str(error)}
        # refresh diagnostics for changed documents
        refreshed = {uri: self._publish(uri) for uri in changes}
        return {"applied": True, "diagnostics": refreshed}


class ServerTransport:
    """An engine-shaped adapter that analyzes on a running scan daemon.

    Implements exactly the :class:`~repro.core.PatchitPy` surface
    :class:`LanguageServer` touches — :meth:`detect` and :meth:`patch` —
    by calling the daemon's ``/v1/analyze`` endpoint and rebuilding the
    wire payloads into the ordinary dataclasses.  ``client`` is any
    object with the :class:`~repro.server.client.ServerClient`
    ``analyze()`` signature.
    """

    def __init__(self, client) -> None:
        self.client = client

    def detect(self, source: str) -> List[Finding]:
        payload = self.client.analyze(source, patch=False)
        return [Finding.from_dict(raw) for raw in payload.get("findings", [])]

    def patch(
        self,
        source: str,
        findings: Optional[Sequence[Finding]] = None,
        exclude: Iterable[str] = frozenset(),
    ) -> PatchResult:
        """The daemon's verified patch of ``source``, ``exclude`` kept out.

        The daemon detects ``source`` itself, so ``findings`` only keeps
        the engine's signature.  ``patched`` is the reply's
        ``patched_source``; ``rendered`` and ``verdicts`` are its
        ``patches`` and ``patch_verdicts``.  The wire carries no applied,
        skipped or unpatchable lists, so those stay empty.
        """
        payload = self.client.analyze(source, patch=True, exclude=exclude)
        return PatchResult(
            original=source,
            patched=payload["patched_source"],
            verdicts=[PatchVerdict.from_dict(raw) for raw in payload["patch_verdicts"]],
            rendered=[Patch.from_dict(raw) for raw in payload["patches"]],
        )
