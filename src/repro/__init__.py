"""Reproduction of *Securing AI Code Generation Through Automated
Pattern-Based Patching* (PatchitPy, DSN 2025).

The library implements the paper's pattern-based vulnerability detection
and patching engine for Python, the rule-mining pipeline that derives
rules from (vulnerable, safe) sample pairs, an IDE integration layer, and
the full evaluation substrate: a 203-prompt security corpus, three
simulated AI code generators, six baseline tools, and the metrics suite
needed to regenerate every table and figure of the paper.

This module is the library's **stable public API**: everything a caller
needs — the engine, the project scanner, the observability collector and
the data types that flow between them — is re-exported here under
``__all__``.  Import from ``repro``; the ``repro.core.*`` module layout
is an implementation detail that may move between releases.

The re-exports resolve lazily (PEP 562, see :mod:`repro._lazy`): a name's
defining module is imported on first access, so ``import repro`` — and
the CLI on top of it — loads only what the caller actually touches.
``repro.core``, ``repro.observability`` and ``repro.server`` are lazy
facades of the same kind.

Quickstart::

    from repro import PatchitPy, ProjectScanner, ScanMetrics

    engine = PatchitPy()
    findings = engine.detect(source_code)
    result = engine.patch(source_code)
    print(result.patched)

    metrics = ScanMetrics()                     # rule-level observability
    scanner = ProjectScanner(metrics=metrics)
    report = scanner.scan(project_root, jobs=4, processes=True)
    print(metrics.top_rules(5))
"""

from repro._lazy import lazy_exports as _lazy_exports

__version__ = "7.0.0"

# Name -> defining module, resolved on first access (see repro._lazy).
__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "AnalysisReport": "repro.types",
        "BackgroundFleet": "repro.server.fleet",
        "BackgroundServer": "repro.server.app",
        "CodeSample": "repro.types",
        "Confidence": "repro.types",
        "DEFAULT_SLOW_RULE_BUDGET_MS": "repro.observability.collector",
        "DetectionRule": "repro.core.rules.base",
        "FileResult": "repro.core.project",
        "Finding": "repro.types",
        "FleetConfig": "repro.server.fleet",
        "FleetRouter": "repro.server.fleet",
        "GeneratorName": "repro.types",
        "LanguageServer": "repro.ide.protocol",
        "LatencyHistogram": "repro.observability.histogram",
        "NULL_METRICS": "repro.observability.collector",
        "NULL_TRACE": "repro.observability.trace",
        "Patch": "repro.types",
        "PatchResult": "repro.core.engine",
        "PatchVerdict": "repro.core.verify",
        "PatchVerifier": "repro.core.verify",
        "ProjectReport": "repro.core.project",
        "ProjectScanner": "repro.core.project",
        "PatchTemplate": "repro.core.rules.base",
        "PatchitPy": "repro.core.engine",
        "PatchitPyServer": "repro.server.app",
        "Prompt": "repro.types",
        "PromptSource": "repro.types",
        "Provenance": "repro.observability.provenance",
        "ReviewFinding": "repro.core.review",
        "ReviewReport": "repro.core.review",
        "ReviewedFile": "repro.core.review",
        "RollingWindow": "repro.observability.histogram",
        "RuleHealth": "repro.observability.collector",
        "RuleSet": "repro.core.rules.base",
        "RuleStats": "repro.observability.collector",
        "ScanCache": "repro.core.cache",
        "ScanMetrics": "repro.observability.collector",
        "ServerClient": "repro.server.client",
        "ServerConfig": "repro.server.app",
        "ServerError": "repro.server.client",
        "ServerTransport": "repro.ide.protocol",
        "Severity": "repro.types",
        "Span": "repro.types",
        "TraceRecorder": "repro.observability.trace",
        "default_ruleset": "repro.core.rules.registry",
        "extended_ruleset": "repro.core.rules.registry",
        "render_explain": "repro.observability.provenance",
        "review": "repro.core.review",
        "scan_paths": "repro.core.project",
        # the submodules a bare ``import repro`` has always made reachable
        "core": "repro.core",
        "cwe": "repro.cwe",
        "exceptions": "repro.exceptions",
        "ide": "repro.ide",
        "observability": "repro.observability",
        "server": "repro.server",
        "types": "repro.types",
    },
)

__all__ = [
    "AnalysisReport",
    "BackgroundFleet",
    "BackgroundServer",
    "CodeSample",
    "Confidence",
    "DEFAULT_SLOW_RULE_BUDGET_MS",
    "DetectionRule",
    "FileResult",
    "Finding",
    "FleetConfig",
    "FleetRouter",
    "GeneratorName",
    "LanguageServer",
    "LatencyHistogram",
    "NULL_METRICS",
    "NULL_TRACE",
    "Patch",
    "PatchResult",
    "PatchVerdict",
    "PatchVerifier",
    "ProjectReport",
    "ProjectScanner",
    "PatchTemplate",
    "PatchitPy",
    "PatchitPyServer",
    "Prompt",
    "PromptSource",
    "Provenance",
    "ReviewFinding",
    "ReviewReport",
    "ReviewedFile",
    "RollingWindow",
    "RuleHealth",
    "RuleSet",
    "RuleStats",
    "ScanCache",
    "ScanMetrics",
    "ServerClient",
    "ServerConfig",
    "ServerError",
    "ServerTransport",
    "Severity",
    "Span",
    "TraceRecorder",
    "__version__",
    "default_ruleset",
    "extended_ruleset",
    "render_explain",
    "review",
    "scan_paths",
]
