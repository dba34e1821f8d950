"""The PatchitPy extension workflow over the editor model (§II-B).

The user right-clicks a selection (or the whole file) and runs the
"PatchitPy: Assess selection" command.  The extension analyzes the
document, raises a pop-up with the fix suggestion for each finding inside
the selection, and patches the findings the user accepts with one
verified :meth:`~repro.core.PatchitPy.patch` of the whole document — the
same overlap resolution, import surgery and verifier every other surface
ships.  The patched text reaches the document as a minimal line diff
(:func:`~repro.ide.edits.line_diff`) through the edit API, new imports
included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.core import PatchitPy
from repro.core.report import format_finding
from repro.core.verify import finding_key
from repro.ide.document import Range, TextDocument
from repro.ide.edits import EditBuilder, line_diff
from repro.types import Finding, LineIndex

# A popup callback answers True for "Yes, patch it".
PopupHandler = Callable[["Popup"], bool]


@dataclass(frozen=True)
class Popup:
    """One notification shown to the user."""

    title: str
    body: str
    actions: tuple = ("Yes", "No")


@dataclass
class ExtensionSession:
    """Record of one command invocation: popups raised, edits applied.

    ``findings`` are the findings inside the selection, with spans in
    document offsets; ``withheld`` are the accepted findings left
    unpatched because the same code (same rule, same matched text) was
    declined or lies outside the selection; ``applied_edit_count``
    counts the line-diff edits the patch took; ``imports_added`` lists
    the accepted patches' import statements that the document gained.
    """

    findings: List[Finding] = field(default_factory=list)
    popups: List[Popup] = field(default_factory=list)
    accepted: List[Finding] = field(default_factory=list)
    withheld: List[Finding] = field(default_factory=list)
    applied_edit_count: int = 0
    imports_added: List[str] = field(default_factory=list)


class PatchitPyExtension:
    """Scriptable equivalent of the VS Code extension's activate() command.

    ``popup_handler`` decides each "patch this finding?" question; the
    default accepts everything (the behaviour measured in the paper's
    patching evaluation).
    """

    COMMAND = "patchitpy.assessSelection"

    def __init__(
        self,
        engine: Optional[PatchitPy] = None,
        popup_handler: Optional[PopupHandler] = None,
    ) -> None:
        self.engine = engine if engine is not None else PatchitPy()
        self.popup_handler = popup_handler or (lambda popup: True)

    def assess_selection(
        self,
        document: TextDocument,
        selection: Optional[Range] = None,
    ) -> ExtensionSession:
        """Run the full detect → popup → patch workflow on ``selection``.

        With no selection the entire document is assessed, matching the
        extension's "launch on the whole program" mode.  The document is
        detected whole, so a finding reads the same with or without a
        selection, and the patch is
        ``engine.patch(text, findings, exclude=...)`` over every finding
        of the document, excluding the identity of every finding not
        accepted.  Identities hash the rule and the matched text, not the
        position, so an accepted finding whose identical twin was
        declined or lies outside the selection is left unpatched as well
        and listed in ``withheld``: code the user did not accept is never
        rewritten.
        """
        session = ExtensionSession()
        text = document.get_text()
        target_range = selection if selection is not None else document.full_range()
        start = document.offset_at(target_range.start)
        end = document.offset_at(target_range.end)

        findings = self.engine.detect(text)
        session.findings = [
            f for f in findings if start <= f.span.start and f.span.end <= end
        ]
        if not session.findings:
            session.popups.append(
                Popup(title="PatchitPy", body="No vulnerable patterns detected.", actions=("OK",))
            )
            return session

        lines = LineIndex(text)
        for finding in session.findings:
            rule = self.engine.rules.get(finding.rule_id)
            suggestion = rule.patch.description if rule.patch else "no automated fix available"
            popup = Popup(
                title=f"PatchitPy: {finding.cwe_id}",
                body=f"{format_finding(finding, text, lines)}\nSuggested fix: {suggestion}",
            )
            session.popups.append(popup)
            if rule.patch is not None and self.popup_handler(popup):
                session.accepted.append(finding)

        if session.accepted:
            keys = {f: finding_key(text, f) for f in findings}
            accepted = set(session.accepted)
            declined = frozenset(k for f, k in keys.items() if f not in accepted)
            session.withheld = [f for f in session.accepted if keys[f] in declined]
            if session.withheld:
                session.popups.append(
                    Popup(
                        title="PatchitPy",
                        body=f"{len(session.withheld)} accepted finding(s) left "
                        "unpatched: the same code elsewhere was declined or lies "
                        "outside the selection.",
                        actions=("OK",),
                    )
                )
            result = self.engine.patch(text, findings, exclude=declined)
            builder = EditBuilder(document)
            for edit_start, edit_end, new_text in line_diff(text, result.patched):
                builder.replace(
                    Range(document.position_at(edit_start), document.position_at(edit_end)),
                    new_text,
                )
            session.applied_edit_count = builder.apply()
            gained = set(result.patched.splitlines()) - set(text.splitlines())
            statements = dict.fromkeys(s for p in result.applied for s in p.new_imports)
            session.imports_added = [s for s in statements if s in gained]
        return session
