"""Per-finding provenance: the complete "why it fired" record.

The paper's central claim is that pattern rules are *auditable* — Table I
publishes the mined vulnerable/safe pairs precisely so a reviewer can
check what each rule matches and what it rewrites.  A finding on its own
does not carry that audit trail: it says *what* fired, not *why*.  A
:class:`Provenance` record closes the gap by capturing every decision the
engine made on the way to the finding:

- the literal **prefilter** that was checked (and that it passed — a
  finding can only exist on the passing side, but the record keeps the
  literal so a reader can reproduce the check);
- whether the rule's file-scope **prerequisites** were satisfied;
- each **guard's** individual pass/veto verdict (the ``# nosec`` waiver
  guard included);
- the **matched span** and matched text;
- the **rendered patch** — replacement text plus the imports it inserts —
  when the rule carries a patch template.

Records are plain mutable dataclasses: they pickle across
``ProcessPoolExecutor`` boundaries attached to their findings, serialize
to JSON for the SARIF/plain exports and the persistent scan cache, and
are rendered human-readable by :func:`render_explain` (the CLI
``--explain`` payload).

This module deliberately imports nothing from ``repro.core`` (rules are
duck-typed) so the observability package never participates in an import
cycle with the engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

__all__ = [
    "GuardDecision",
    "PatchProvenance",
    "Provenance",
    "guard_decisions",
    "provenance_from_match",
    "render_explain",
]


def _clip(text: str, limit: int = 160) -> str:
    flattened = " ".join(text.split())
    if len(flattened) <= limit:
        return flattened
    return flattened[: limit - 3] + "..."


@dataclass
class GuardDecision:
    """One guard's verdict on one candidate match."""

    description: str
    scope: str
    vetoed: bool

    def to_dict(self) -> dict:
        return {
            "description": self.description,
            "scope": self.scope,
            "vetoed": self.vetoed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GuardDecision":
        return cls(
            description=str(data.get("description", "")),
            scope=str(data.get("scope", "match")),
            vetoed=bool(data.get("vetoed", False)),
        )


@dataclass
class PatchProvenance:
    """The rendered safe alternative for one finding.

    ``verdict`` is filled in by the Verifier stage when patch
    verification runs: one of the :data:`repro.core.verify.VERDICT_STATUSES`
    values, with ``verdict_detail`` explaining a non-``verified`` ruling.
    Both serialize only when a verdict was recorded, so detection-only
    and verification-off workflows keep their pre-1.5 JSON shape.
    """

    description: str
    replacement: str
    imports: Tuple[str, ...] = ()
    verdict: Optional[str] = None
    verdict_detail: str = ""

    def to_dict(self) -> dict:
        data = {
            "description": self.description,
            "replacement": self.replacement,
            "imports": list(self.imports),
        }
        if self.verdict is not None:
            data["verdict"] = self.verdict
            if self.verdict_detail:
                data["verdict_detail"] = self.verdict_detail
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "PatchProvenance":
        verdict = data.get("verdict")
        return cls(
            description=str(data.get("description", "")),
            replacement=str(data.get("replacement", "")),
            imports=tuple(data.get("imports", ())),
            verdict=str(verdict) if verdict is not None else None,
            verdict_detail=str(data.get("verdict_detail", "")),
        )


@dataclass
class Provenance:
    """Every decision the engine made on the way to one finding.

    The record is mutable on purpose: the detection pass creates it, and
    the patching pass later fills in :attr:`patch` with the rendered
    replacement without rebuilding the (frozen) finding that carries it.
    """

    rule_id: str
    cwe_id: str
    prefilter: Optional[str]
    prefilter_passed: bool
    prerequisites: int
    prerequisites_passed: bool
    matched_span: Tuple[int, int]
    matched_text: str
    guards: List[GuardDecision] = field(default_factory=list)
    patch: Optional[PatchProvenance] = None

    @property
    def vetoed(self) -> bool:
        """True when any guard vetoed the candidate match."""
        return any(decision.vetoed for decision in self.guards)

    def to_dict(self) -> dict:
        data = {
            "rule_id": self.rule_id,
            "cwe_id": self.cwe_id,
            "prefilter": self.prefilter,
            "prefilter_passed": self.prefilter_passed,
            "prerequisites": self.prerequisites,
            "prerequisites_passed": self.prerequisites_passed,
            "matched_span": list(self.matched_span),
            "matched_text": self.matched_text,
            "guards": [decision.to_dict() for decision in self.guards],
        }
        if self.patch is not None:
            data["patch"] = self.patch.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "Provenance":
        start, end = data.get("matched_span", (0, 0))
        raw_patch = data.get("patch")
        return cls(
            rule_id=str(data.get("rule_id", "")),
            cwe_id=str(data.get("cwe_id", "")),
            prefilter=data.get("prefilter"),
            prefilter_passed=bool(data.get("prefilter_passed", True)),
            prerequisites=int(data.get("prerequisites", 0)),
            prerequisites_passed=bool(data.get("prerequisites_passed", True)),
            matched_span=(int(start), int(end)),
            matched_text=str(data.get("matched_text", "")),
            guards=[GuardDecision.from_dict(g) for g in data.get("guards", ())],
            patch=PatchProvenance.from_dict(raw_patch) if raw_patch else None,
        )


def guard_decisions(rule, source: str, match) -> List[GuardDecision]:
    """Every guard's verdict on a candidate match, in guard order.

    Unlike the hot matching path — which short-circuits on the first
    veto — this evaluates *all* guards, because the audit trail must name
    each one's verdict, not just the first blocker.
    """
    return [
        GuardDecision(
            description=guard.description or guard.pattern.pattern,
            scope=guard.scope,
            vetoed=guard.vetoes(source, match),
        )
        for guard in rule.all_guards()
    ]


def provenance_from_match(
    rule,
    source: str,
    match,
    decisions: Optional[List[GuardDecision]] = None,
) -> Provenance:
    """Build the full provenance record for one rule match.

    ``decisions`` reuses already-computed guard verdicts (the traced
    matching path evaluates them before deciding whether the match
    survives); when omitted they are evaluated here.  The patch preview
    is rendered eagerly so the record is self-contained even for
    detection-only workflows — a failing patch builder degrades to a
    record without a patch section rather than a failed scan.
    """
    literal = rule.literals.provenance
    record = Provenance(
        rule_id=rule.rule_id,
        cwe_id=rule.cwe_id,
        prefilter=literal,
        prefilter_passed=literal is None or literal in source,
        prerequisites=len(rule.prerequisites),
        prerequisites_passed=rule.applies_to(source),
        matched_span=(match.start(), match.end()),
        matched_text=_clip(match.group(0)),
        guards=decisions if decisions is not None else guard_decisions(rule, source, match),
    )
    if rule.patch is not None:
        try:
            replacement, imports = rule.patch.render(match)
        except Exception:
            pass
        else:
            record.patch = PatchProvenance(
                description=rule.patch.description,
                replacement=replacement,
                imports=tuple(imports),
            )
    return record


def render_explain(finding) -> str:
    """Human-readable "why it fired" block for one finding.

    Accepts any finding-shaped object; findings without an attached
    provenance record render a pointer to the flags that enable one.
    """
    provenance = getattr(finding, "provenance", None)
    if provenance is None:
        return (
            f"  why: no provenance recorded for {finding.rule_id} "
            "(rerun with --explain or --trace)"
        )
    lines = [
        f"  why {provenance.rule_id} fired ({provenance.cwe_id}):",
        f"    matched [{provenance.matched_span[0]}, {provenance.matched_span[1]}): "
        f"`{provenance.matched_text}`",
    ]
    if provenance.prefilter is None:
        lines.append("    prefilter: none (regex ran unconditionally)")
    else:
        verdict = "present" if provenance.prefilter_passed else "ABSENT"
        lines.append(f"    prefilter: literal {provenance.prefilter!r} {verdict}")
    if provenance.prerequisites:
        verdict = "satisfied" if provenance.prerequisites_passed else "UNSATISFIED"
        lines.append(
            f"    prerequisites: {provenance.prerequisites} file-scope pattern(s) {verdict}"
        )
    else:
        lines.append("    prerequisites: none")
    vetoes = sum(1 for decision in provenance.guards if decision.vetoed)
    lines.append(f"    guards: {len(provenance.guards)} evaluated, {vetoes} veto(es)")
    for decision in provenance.guards:
        verdict = "veto" if decision.vetoed else "pass"
        lines.append(f"      [{verdict}] ({decision.scope}) {decision.description}")
    if provenance.patch is None:
        lines.append("    patch: none (detection-only rule)")
    else:
        lines.append(f"    patch: {provenance.patch.description or 'rewrite'}")
        lines.append(f"      replacement: `{_clip(provenance.patch.replacement, 120)}`")
        if provenance.patch.imports:
            lines.append(f"      imports: {', '.join(provenance.patch.imports)}")
        if provenance.patch.verdict is not None:
            line = f"      verdict: {provenance.patch.verdict}"
            if provenance.patch.verdict_detail:
                line += f" — {_clip(provenance.patch.verdict_detail, 100)}"
            lines.append(line)
    return "\n".join(lines)
