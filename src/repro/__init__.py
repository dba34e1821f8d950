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

from repro.core import PatchitPy, PatchResult, default_ruleset
from repro.core.verify import PatchVerdict, PatchVerifier
from repro.core.cache import ScanCache
from repro.core.review import ReviewFinding, ReviewReport, ReviewedFile, review
from repro.core.project import FileResult, ProjectReport, ProjectScanner, scan_paths
from repro.ide import LanguageServer, ServerTransport
from repro.core.rules import DetectionRule, PatchTemplate, RuleSet, extended_ruleset
from repro.server import (
    BackgroundFleet,
    BackgroundServer,
    FleetConfig,
    FleetRouter,
    PatchitPyServer,
    ServerClient,
    ServerConfig,
    ServerError,
)
from repro.observability import (
    DEFAULT_SLOW_RULE_BUDGET_MS,
    LatencyHistogram,
    NULL_METRICS,
    NULL_TRACE,
    Provenance,
    RollingWindow,
    RuleHealth,
    RuleStats,
    ScanMetrics,
    TraceRecorder,
    render_explain,
)
from repro.types import (
    AnalysisReport,
    CodeSample,
    Confidence,
    Finding,
    GeneratorName,
    Patch,
    Prompt,
    PromptSource,
    Severity,
    Span,
)

__version__ = "2.2.0"

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
