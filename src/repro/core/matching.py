"""Pattern-match execution: rules × source → findings.

This stage is deliberately AST-free (§II): matching runs directly on the
raw text so that incomplete, unparseable AI-generated snippets are still
analyzable — the property that lets PatchitPy out-recall AST-based tools on
generated code.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.candidates import RuleIndex
from repro.core.rules.base import DetectionRule
from repro.observability.collector import ScanMetrics, clock
from repro.types import Finding, LineIndex, Span


def _applies(
    rule: DetectionRule,
    source: str,
    memo: Dict[Tuple[str, int], bool],
) -> bool:
    """``rule.applies_to`` with a per-source prerequisite memo.

    Prerequisites are file-scope patterns shared across rules (e.g. a
    framework-import check), so within one ``run_rules`` call each
    distinct ``(pattern, flags)`` prerequisite is searched at most once
    however many rules require it.
    """
    for prerequisite in rule.prerequisites:
        key = (prerequisite.pattern, prerequisite.flags)
        verdict = memo.get(key)
        if verdict is None:
            verdict = memo[key] = prerequisite.search(source) is not None
        if not verdict:
            return False
    return True


def _match_candidate(
    rule: DetectionRule,
    source: str,
    memo: Dict[Tuple[str, int], bool],
    lines: Optional[LineIndex] = None,
) -> Optional[Tuple[List[Finding], int]]:
    """The one per-rule body: prerequisites, ``finditer``, guards.

    Returns the non-vetoed findings and the vetoed-match count, or
    ``None`` when a prerequisite fails (verdicts shared through ``memo``);
    required literals are the caller's selection, never checked here.
    """
    if not _applies(rule, source, memo):
        return None
    findings: List[Finding] = []
    vetoes = 0
    guards = rule.all_guards()
    for match in rule.pattern.finditer(source):
        if any(guard.vetoes(source, match, lines) for guard in guards):
            vetoes += 1
            continue
        findings.append(_finding_for(rule, match))
    return findings, vetoes


def match_rule(
    rule: DetectionRule, source: str, lines: Optional[LineIndex] = None
) -> List[Finding]:
    """All non-vetoed matches of ``rule`` in ``source`` as findings.

    ``lines`` optionally shares one per-source
    :class:`~repro.types.LineIndex` across rules for line-scope guards.
    """
    result = _match_candidate(rule, source, {}, lines)
    return [] if result is None else result[0]


def _finding_for(rule: DetectionRule, match) -> Finding:
    return Finding(
        rule_id=rule.rule_id,
        cwe_id=rule.cwe_id,
        message=rule.message,
        span=Span(match.start(), match.end()),
        snippet=_clip(match.group(0)),
        severity=rule.severity,
        confidence=rule.confidence,
        fixable=rule.patchable,
    )


def run_rules(
    rule_set: Iterable[DetectionRule],
    source: str,
    metrics: Optional[ScanMetrics] = None,
    trace: Optional["object"] = None,
) -> List[Finding]:
    """Run the rule set and return findings ordered by position then rule id.

    When two rules of the *same CWE* match overlapping spans, only the
    earlier (more specific, per catalog order) finding is kept, so a single
    vulnerable line does not inflate the report.

    This is the one dispatch: the set's candidate index (a plain iterable
    gets a fresh :class:`RuleIndex`) and grouped probe select the rules,
    memoized per source (:meth:`RuleIndex.grouped_plan`), and each runs
    live through :func:`_match_candidate`.  Findings equal
    :func:`reference_run`'s.

    With an enabled ``metrics`` collector the same selection is counted
    and the same per-rule body timed.  With an enabled ``trace``
    recorder every rule execution, guard verdict and match is
    additionally emitted as a structured span event and each surviving
    finding carries a full provenance record; the tracing machinery is
    imported only on that path, so the disabled scan runs exactly the
    pre-tracing code.
    """
    builder = getattr(rule_set, "candidate_index", None)
    index = builder() if builder is not None else RuleIndex(rule_set)
    lines = LineIndex(source)
    if trace is not None and getattr(trace, "enabled", False):
        findings = _run_traced(index, source, metrics, trace)
    elif metrics is None or not metrics.enabled:
        findings = _run_each(index.grouped_plan(source)[0], source, lines)
    else:
        findings = _run_measured(index, source, metrics, lines)
    findings.sort(key=lambda f: (f.span.start, f.span.end, f.rule_id))
    return _dedupe_same_cwe_overlaps(findings)


def reference_run(rules: Iterable[DetectionRule], source: str) -> List[Finding]:
    """The oracle: every rule through the per-rule body, nothing selected.

    No index, no grouped probe, no literal prefilter, then the ordering
    and same-CWE dedupe of :func:`run_rules`; tests compare against it.
    """
    findings = _run_each(rules, source, LineIndex(source))
    findings.sort(key=lambda f: (f.span.start, f.span.end, f.rule_id))
    return _dedupe_same_cwe_overlaps(findings)


def _run_each(
    rules: Iterable[DetectionRule], source: str, lines: LineIndex
) -> List[Finding]:
    """The uninstrumented loop: each given rule through the per-rule body."""
    findings: List[Finding] = []
    memo: Dict[Tuple[str, int], bool] = {}
    for rule in rules:
        result = _match_candidate(rule, source, memo, lines)
        if result is not None:
            findings.extend(result[0])
    return findings


def _run_measured(
    index: RuleIndex, source: str, metrics: ScanMetrics, lines: LineIndex
) -> List[Finding]:
    """The metrics pass: the production selection, counted, and its body, timed.

    Every rule counts one call; index-skipped rules also count a
    prefilter skip, grouped-cleared ones only the call (they can have no
    matches by construction).  Those offer counts are one tally of the
    candidate mask (:meth:`ScanMetrics.tally_rules`), so the pass costs
    O(dispatched rules); only dispatched rules pay per-rule time.
    """
    dispatch, cleared, hit_rule, mask = index.grouped_plan(source)
    candidates = bin(mask).count("1")
    metrics.count("index_candidates", candidates)
    metrics.count("index_skips", len(index) - candidates)
    metrics.count("grouped_cleared", cleared)
    metrics.count("grouped_dispatch", len(dispatch))
    if hit_rule is not None:
        metrics.count("grouped_hits", 1)
    metrics.tally_rules(index.rule_ids, mask)
    findings: List[Finding] = []
    memo: Dict[Tuple[str, int], bool] = {}
    for rule in dispatch:
        start = clock()
        stats = metrics.rule_stats(rule.rule_id)
        result = _match_candidate(rule, source, memo, lines)
        if result is None:
            stats.prereq_skips += 1
        else:
            findings.extend(result[0])
            stats.matches += len(result[0])
            stats.guard_vetoes += result[1]
        stats.time_s += clock() - start
    return findings


def _run_traced(
    index: RuleIndex, source: str, metrics: Optional[ScanMetrics], trace
) -> List[Finding]:
    """The traced matching path: events + provenance, same findings.

    Selects through the candidate lookup alone (no grouped probe: the
    audit covers every candidate) and records every decision: an
    ``index-lookup`` event with the candidate partition, a ``rule`` span
    per rule with its outcome — index-skipped rules keep their span,
    with outcome ``prefilter-skip`` — a ``guard-decision`` event per
    guard per candidate match (all guards are evaluated rather than
    short-circuiting, because the audit trail names each verdict), and a
    :class:`Provenance` record attached to every surviving finding.
    Feeds ``metrics`` too when enabled, so a traced scan still produces
    the aggregate counters.
    """
    # Local import by design: the disabled hot path must not touch the
    # tracing modules (scripts/check_hot_path_isolation.py enforces it).
    from repro.observability.provenance import guard_decisions, provenance_from_match

    findings: List[Finding] = []
    record_metrics = metrics is not None and metrics.enabled
    lookup = index.lookup(source)
    skipped = {id(rule) for rule in lookup.skipped}
    trace.event(
        "index-lookup",
        "candidates",
        candidates=len(lookup.candidates),
        skipped=len(lookup.skipped),
    )
    if record_metrics:
        metrics.count("index_candidates", len(lookup.candidates))
        metrics.count("index_skips", len(lookup.skipped))
    memo: Dict[Tuple[str, int], bool] = {}
    for rule in index.rules:
        start = clock()
        stats = metrics.rule_stats(rule.rule_id) if record_metrics else None
        if stats is not None:
            stats.calls += 1
        sid = trace.begin("rule", rule.rule_id)
        outcome = "no-match"
        rule_findings: List[Finding] = []
        vetoes = 0
        if id(rule) in skipped:
            outcome = "prefilter-skip"
            if stats is not None:
                stats.prefilter_skips += 1
        elif not _applies(rule, source, memo):
            outcome = "prereq-skip"
            if stats is not None:
                stats.prereq_skips += 1
        else:
            for match in rule.pattern.finditer(source):
                decisions = guard_decisions(rule, source, match)
                for decision in decisions:
                    trace.event(
                        "guard-decision",
                        decision.description,
                        rule=rule.rule_id,
                        scope=decision.scope,
                        vetoed=decision.vetoed,
                        start=match.start(),
                        end=match.end(),
                    )
                if any(decision.vetoed for decision in decisions):
                    vetoes += 1
                    if stats is not None:
                        stats.guard_vetoes += 1
                    continue
                provenance = provenance_from_match(rule, source, match, decisions)
                rule_findings.append(_finding_for(rule, match).with_provenance(provenance))
            if rule_findings:
                outcome = "matched"
            if stats is not None:
                stats.matches += len(rule_findings)
        trace.end(sid, outcome=outcome, matches=len(rule_findings), vetoes=vetoes)
        if stats is not None:
            elapsed = clock() - start
            stats.time_s += elapsed
            metrics.observe("rule_seconds/" + rule.rule_id, elapsed)
        findings.extend(rule_findings)
    return findings


def _dedupe_same_cwe_overlaps(findings: List[Finding]) -> List[Finding]:
    """Drop same-CWE findings overlapping an already-kept span.

    Findings arrive sorted by ``(start, end, rule_id)``, so per CWE the
    kept spans are pairwise disjoint with non-decreasing starts — and a
    candidate can therefore only overlap the *most recent* active spans.
    Tracking a per-CWE active list (pruned as starts advance) makes the
    pass linear instead of the old all-kept-findings scan, which went
    quadratic on pattern-dense files.
    """
    kept: List[Finding] = []
    active: dict = {}
    for finding in findings:
        spans = active.get(finding.cwe_id)
        if spans is None:
            spans = active[finding.cwe_id] = []
        if spans:
            # Spans ending at or before this start can never overlap this
            # candidate nor any later one (starts are non-decreasing).
            spans[:] = [s for s in spans if s.end > finding.span.start]
        if any(s.overlaps(finding.span) for s in spans):
            continue
        spans.append(finding.span)
        kept.append(finding)
    return kept


def _clip(text: str, limit: int = 160) -> str:
    flattened = " ".join(text.split())
    if len(flattened) <= limit:
        return flattened
    return flattened[: limit - 3] + "..."
