"""The PatchitPy engine: the paper's two-phase detect → patch workflow.

Phase 1 (:meth:`PatchitPy.detect`) runs the 85 pattern rules over the raw
source.  Phase 2 (:meth:`PatchitPy.patch`) renders each triggered rule's
safe alternative, substitutes it at the matched span, and inserts any
imports the patch requires — the end-to-end flow of Fig. 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.matching import run_rules
from repro.core.patcher import apply_patches
from repro.core.rules import RuleSet, default_ruleset
from repro.core.verify import PatchVerdict, PatchVerifier, finding_key
from repro.exceptions import ReproError
from repro.observability.collector import NULL_METRICS, ScanMetrics, clock
from repro.observability.provenance import (
    PatchProvenance,
    provenance_from_match,
    render_explain,
)
from repro.observability.trace import NULL_TRACE, TraceRecorder
from repro.types import AnalysisReport, Finding, Patch, Span

#: Patching repeats detect→patch until a fixed point or this many passes,
#: because one applied patch can reveal or shift later matches.
MAX_PASSES = 3
#: How many times :meth:`PatchitPy.patch` verifies its output and
#: re-patches with the failing patches banned before it reverts them all.
MAX_VERIFY_ATTEMPTS = 3


def detect_with(
    engine,
    source: str,
    metrics: Optional[ScanMetrics] = None,
    trace: Optional[TraceRecorder] = None,
) -> List[Finding]:
    """``engine.detect(source)``, handed only the observers that are enabled.

    Either observer may be ``None`` or disabled.  A subclass whose
    ``detect`` predates observability takes ``source`` alone; never
    handing it the extra arguments while observability is off keeps it
    working.
    """
    metrics = metrics if metrics is not None and metrics.enabled else None
    if trace is not None and trace.enabled:
        return engine.detect(source, metrics=metrics, trace=trace)
    if metrics is not None:
        return engine.detect(source, metrics=metrics)
    return engine.detect(source)


@dataclass
class PatchResult:
    """Outcome of a patching pass."""

    original: str
    patched: str
    applied: List[Patch] = field(default_factory=list)
    skipped: List[Patch] = field(default_factory=list)
    unpatchable: List[Finding] = field(default_factory=list)
    # One verdict per patch the verifier examined; empty when nothing
    # was applied.  Reverted patches keep their verdict here (with
    # ``reverted=True``) even though they no longer appear in ``applied``.
    verdicts: List[PatchVerdict] = field(default_factory=list)
    # The first pass's render of ``original``: every patch of the
    # findings the call started from, before verifier bans and overlap
    # resolution, spans anchored to ``original`` — the edits a client
    # applies to the text it submitted.
    rendered: List[Patch] = field(default_factory=list)

    @property
    def changed(self) -> bool:
        """True when patching modified the source."""
        return self.patched != self.original

    @property
    def unverified(self) -> List[PatchVerdict]:
        """Verdicts of patches that failed verification (and were reverted)."""
        return [v for v in self.verdicts if not v.ok]

    @property
    def verified(self) -> bool:
        """True when every examined patch passed verification."""
        return all(v.ok for v in self.verdicts)


class PatchitPy:
    """Pattern-based vulnerability detector and patcher for Python code.

    Parameters
    ----------
    rules:
        The rule set to execute; defaults to the paper's 85-rule set.
    metrics:
        A :class:`~repro.observability.ScanMetrics` collector that every
        detect/patch call reports into.  Defaults to the shared no-op
        collector, which keeps instrumentation off the hot path entirely.
        Per-call ``metrics=`` arguments on :meth:`detect`/:meth:`patch`/
        :meth:`analyze` override it (the project scanner uses that to give
        each file its own snapshot without mutating shared state).
    trace:
        A :class:`~repro.observability.TraceRecorder` that detect/patch
        calls emit structured span events into.  Defaults to the shared
        no-op recorder (:data:`~repro.observability.NULL_TRACE`); with an
        enabled recorder every finding additionally carries a
        :class:`~repro.observability.Provenance` record.  Per-call
        ``trace=`` arguments override it, mirroring ``metrics``.
    """

    def __init__(
        self,
        rules: Optional[RuleSet] = None,
        prune_imports: bool = True,
        metrics: Optional[ScanMetrics] = None,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        self.rules = rules if rules is not None else default_ruleset()
        self.prune_imports = prune_imports
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.trace = trace if trace is not None else NULL_TRACE

    def _metrics(self, override: Optional[ScanMetrics]) -> ScanMetrics:
        return override if override is not None else self.metrics

    def _trace(self, override: Optional[TraceRecorder]) -> TraceRecorder:
        return override if override is not None else self.trace

    # ------------------------------------------------------------- detect

    def detect(
        self,
        source: str,
        metrics: Optional[ScanMetrics] = None,
        trace: Optional[TraceRecorder] = None,
    ) -> List[Finding]:
        """Phase 1: all findings for ``source``."""
        m = self._metrics(metrics)
        t = self._trace(trace)
        if not m.enabled and not t.enabled:
            return run_rules(self.rules, source)
        start = clock()
        findings = run_rules(self.rules, source, m if m.enabled else None, t)
        if m.enabled:
            elapsed = clock() - start
            m.count("detect_calls")
            m.count("findings", len(findings))
            m.add_time("detect_time_s", elapsed)
            m.observe("phase_seconds/detect", elapsed)
        return findings

    def is_vulnerable(self, source: str) -> bool:
        """Sample-level verdict used by the evaluation (§III-B)."""
        return bool(self.detect(source))

    def warmup(self) -> int:
        """Prime the engine so the first real request pays no lazy costs.

        Builds the candidate index and runs one probe detect, so a
        long-lived process (the scan daemon) pays the index compilation
        and module-level matcher setup once at startup — the built index
        then serves every request, and pickles with the rules into
        worker processes.  Returns the number of rules primed.
        """
        builder = getattr(self.rules, "candidate_index", None)
        if builder is not None:
            builder()
        self.detect("# patchitpy warmup probe\n")
        return len(self.rules)

    # -------------------------------------------------------------- patch

    def render_patches(
        self,
        source: str,
        findings: Sequence[Finding],
        trace: Optional[TraceRecorder] = None,
    ) -> List[Patch]:
        """Render the safe alternative for each patchable finding.

        Findings carrying a provenance record get its ``patch`` section
        updated in place with the actually-rendered replacement (which may
        differ from the detection-time preview when the span re-anchors);
        an enabled ``trace`` emits one ``patch-render`` event per patch.
        """
        t = self._trace(trace)
        patches: List[Patch] = []
        for finding in findings:
            rule = self.rules.get(finding.rule_id)
            if rule.patch is None:
                continue
            match = rule.pattern.match(source, finding.span.start)
            if match is None or match.end() != finding.span.end:
                match = rule.pattern.search(source, finding.span.start)
            if match is None:
                continue
            span = finding.span
            if match.start() != span.start or match.end() != span.end:
                # The fallback search landed on a different (possibly later)
                # match than the finding's recorded span — rendering from
                # that match but splicing at the stale span would corrupt
                # the file.  Re-anchor the patch to the text the
                # replacement was actually rendered from.
                span = Span(match.start(), match.end())
            replacement, imports = rule.patch.render(match)
            if finding.provenance is not None:
                finding.provenance.patch = PatchProvenance(
                    description=rule.patch.description,
                    replacement=replacement,
                    imports=tuple(imports),
                )
            if t.enabled:
                t.event(
                    "patch-render",
                    rule.rule_id,
                    start=span.start,
                    end=span.end,
                    replacement=replacement,
                    imports=list(imports),
                )
            patches.append(
                Patch(
                    rule_id=rule.rule_id,
                    cwe_id=rule.cwe_id,
                    span=span,
                    replacement=replacement,
                    new_imports=imports,
                    description=rule.patch.description,
                    trigger_key=finding_key(source, finding.with_span(span)),
                )
            )
        return patches

    def _patch_passes(
        self,
        source: str,
        rendered: Sequence[Patch],
        scan: Callable[[str], List[Finding]],
        t: TraceRecorder,
        banned: frozenset = frozenset(),
    ):
        """One full fixpoint patching run, skipping ``banned`` findings.

        ``rendered`` is the first pass's render of ``source``, and
        ``scan`` the calling :meth:`patch`'s detect, which scans each
        distinct text once.  ``banned`` holds finding-identity keys (see
        :func:`repro.core.verify.finding_key`) of patches the verifier
        rejected on an earlier attempt, or the caller excluded; their
        patches are dropped at render time so a re-run converges without
        them.  Returns ``(patched, applied, bases, skipped, passes,
        final_findings)``, ``bases`` holding, per applied patch, the text
        its pass rendered it against.
        """
        current = source
        all_applied: List[Patch] = []
        bases: List[str] = []
        last_skipped: List[Patch] = []
        passes = 0
        patches = rendered
        for pass_index in range(MAX_PASSES):
            if pass_index:
                patches = self.render_patches(current, pass_findings, t)
            if banned:
                patches = [p for p in patches if p.trigger_key not in banned]
            if not patches:
                break
            passes += 1
            outcome = apply_patches(current, patches)
            all_applied.extend(outcome.applied)
            bases.extend([current] * len(outcome.applied))
            last_skipped = outcome.skipped
            if not outcome.changed:
                break
            current = outcome.source
            pass_findings = scan(current)
            if not pass_findings:
                break
        if all_applied and self.prune_imports:
            from repro.core.imports import prune_unused_imports

            current = prune_unused_imports(current)
        return current, all_applied, bases, last_skipped, passes, scan(current)

    def patch(
        self,
        source: str,
        findings: Optional[Sequence[Finding]] = None,
        metrics: Optional[ScanMetrics] = None,
        trace: Optional[TraceRecorder] = None,
        exclude: frozenset = frozenset(),
    ) -> PatchResult:
        """Phase 2: substitute safe alternatives for detected patterns.

        Runs repeated passes until no patchable finding remains or
        :data:`MAX_PASSES` is reached; overlapping patches in one pass are
        retried on the next pass against the updated text.

        The Verifier stage then re-scans the output: patches whose
        triggering finding survived, that introduced a new finding, broke
        the syntax, or collide with an existing binding are banned by
        finding identity and patching re-runs without them, up to
        :data:`MAX_VERIFY_ATTEMPTS` times.  If the loop cannot converge on a
        fully verified patch set, *everything* is reverted — the original
        text ships unchanged rather than an unproven edit.  All examined
        patches keep their verdict in ``PatchResult.verdicts``.

        ``findings`` defaults to a detect of ``source``; it is also the
        verifier's identity baseline, so pass the *full* finding set and
        leave what must not change to ``exclude``.  ``exclude`` holds
        finding-identity keys (see :func:`repro.core.verify.finding_key`)
        that are never patched: the review workflow passes the
        pre-existing identities, so only what a change introduced is
        rewritten, and the editor surfaces the findings a user did not
        accept.
        """
        m = self._metrics(metrics)
        t = self._trace(trace)
        start = clock() if m.enabled else 0.0
        initial = (
            list(findings) if findings is not None else detect_with(self, source, m, t)
        )
        # Each text this call reaches is detected once: a pass, a prune
        # or a verifier retry that lands on an already-scanned text reuses
        # its findings.  Caller-supplied ``findings`` may be a subset, so
        # ``source`` counts as scanned only when this call detected it.
        scanned: Dict[str, List[Finding]] = {} if findings is not None else {source: initial}

        def scan(text: str) -> List[Finding]:
            found = scanned.get(text)
            if found is None:
                found = scanned[text] = detect_with(self, text, m, t)
            return found

        rendered = self.render_patches(source, initial, t)
        banned: set = set(exclude)
        reverted: List[PatchVerdict] = []
        attempts = 0
        verifier = PatchVerifier(lambda s: detect_with(self, s))
        while True:
            current, all_applied, bases, last_skipped, passes, final_findings = (
                self._patch_passes(source, rendered, scan, t, frozenset(banned))
            )
            if not all_applied:
                verdicts = list(reverted)
                break
            attempts += 1
            verify_started = clock() if m.enabled else 0.0
            judged = verifier.verify(
                source, initial, current, all_applied, final_findings, bases
            )
            if m.enabled:
                verify_elapsed = clock() - verify_started
                m.add_time("verify_time_s", verify_elapsed)
                m.observe("phase_seconds/verify", verify_elapsed)
            failing = [v for v in judged if not v.ok]
            if not failing:
                verdicts = list(reverted) + judged
                break
            new_bans = {v.trigger_key for v in failing if v.trigger_key} - banned
            if new_bans and attempts < MAX_VERIFY_ATTEMPTS:
                for v in failing:
                    v.reverted = True
                reverted.extend(failing)
                banned |= new_bans
                continue
            # Cannot converge (ban made no progress, or attempts
            # exhausted): revert the whole patch set.  Shipping the
            # original unchanged is the only edit we can still prove
            # safe — failing patches cannot be excised surgically once
            # later spans have shifted around them.
            for v in judged:
                v.reverted = True
            verdicts = list(reverted) + judged
            current = source
            all_applied = []
            last_skipped = []
            final_findings = list(initial)
            break
        unpatchable = [f for f in final_findings if not f.fixable]
        self._record_verdicts(source, initial, verdicts, attempts, m, t)
        if m.enabled:
            elapsed = clock() - start
            m.count("patch_calls")
            m.count("patch_passes", passes)
            m.count("patches_applied", len(all_applied))
            m.count("patches_skipped", len(last_skipped))
            m.count("findings_unpatchable", len(unpatchable))
            m.add_time("patch_time_s", elapsed)
            m.observe("phase_seconds/patch", elapsed)
        return PatchResult(
            original=source,
            patched=current,
            applied=all_applied,
            skipped=last_skipped,
            unpatchable=unpatchable,
            verdicts=verdicts,
            rendered=rendered,
        )

    def _record_verdicts(
        self,
        source: str,
        initial: Sequence[Finding],
        verdicts: Sequence[PatchVerdict],
        attempts: int,
        m: ScanMetrics,
        t: TraceRecorder,
    ) -> None:
        """Propagate verdicts into metrics, trace events, and provenance."""
        if not verdicts:
            return
        if m.enabled:
            m.count("patch_verify_attempts", attempts)
            for verdict in verdicts:
                m.count("patch_verdict_" + verdict.status.replace("-", "_"))
                if verdict.reverted:
                    m.count("patches_reverted")
                elif verdict.ok:
                    m.count("patches_verified")
                # verdict-aware rule health: a template whose patches
                # chronically fail verification surfaces per rule, with
                # one concrete failing ruling as the exemplar.
                m.health_for(verdict.rule_id).note_verdict(
                    verdict.status, verdict.detail, ok=verdict.ok
                )
        if t.enabled:
            for verdict in verdicts:
                t.event(
                    "patch-verify",
                    verdict.rule_id,
                    status=verdict.status,
                    attempts=attempts,
                    reverted=verdict.reverted,
                    detail=verdict.detail,
                )
        by_key = {v.trigger_key: v for v in verdicts if v.trigger_key}
        for finding in initial:
            provenance = finding.provenance
            if provenance is None or getattr(provenance, "patch", None) is None:
                continue
            verdict = by_key.get(finding_key(source, finding))
            if verdict is not None:
                provenance.patch.verdict = verdict.status
                provenance.patch.verdict_detail = verdict.detail

    # ------------------------------------------------------------ analyze

    def _ensure_provenance(self, source: str, findings: List[Finding]) -> List[Finding]:
        """Attach provenance records to findings that lack one.

        Reconstructs the audit trail post hoc by re-matching each
        finding's rule at its recorded span — O(findings), not O(rules),
        so :meth:`analyze` affords it without slowing the detect hot
        path.  Findings whose rule is unknown or no longer matches (e.g.
        hand-built ones) pass through untouched.
        """
        enriched: List[Finding] = []
        for finding in findings:
            if finding.provenance is not None:
                enriched.append(finding)
                continue
            try:
                rule = self.rules.get(finding.rule_id)
            except ReproError:
                enriched.append(finding)
                continue
            match = rule.pattern.match(source, finding.span.start)
            if match is None or match.end() != finding.span.end:
                match = rule.pattern.search(source, finding.span.start)
            if match is None:
                enriched.append(finding)
                continue
            enriched.append(
                finding.with_provenance(provenance_from_match(rule, source, match))
            )
        return enriched

    def explain(self, source: str, finding: Finding) -> str:
        """Human-readable "why it fired" block for one finding.

        Findings without an attached provenance record (cache hits,
        untraced scans) get one reconstructed from ``source`` first.
        """
        if finding.provenance is None:
            finding = self._ensure_provenance(source, [finding])[0]
        return render_explain(finding)

    def analyze(
        self,
        source: str,
        *,
        patch: bool = True,
        metrics: Optional[ScanMetrics] = None,
        trace: Optional[TraceRecorder] = None,
    ) -> AnalysisReport:
        """Full detect(+patch) pipeline returning a consolidated report.

        ``patch=False`` stops after detection.  Every finding in the
        report carries a provenance record — recorded inline when tracing
        is enabled, reconstructed post hoc otherwise.
        """
        m = self._metrics(metrics)
        t = self._trace(trace)
        findings = self._ensure_provenance(source, detect_with(self, source, m, t))
        report = AnalysisReport(tool="patchitpy", source=source, findings=findings)
        if patch and findings:
            result = self.patch(source, findings, m, t)
            report.patches = result.applied
            report.patched_source = result.patched
            report.verdicts = result.verdicts
        return report
