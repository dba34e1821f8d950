"""PatchitPy core: pattern-based detection and automated patching.

This package implements the paper's primary contribution (§II): a rule
engine whose 85 detection rules are regular-expression patterns enriched
with guard conditions, each optionally paired with a patch template that
rewrites the vulnerable pattern into a safe alternative and contributes any
imports the safe code needs.
"""

from repro._lazy import lazy_exports as _lazy_exports

# Name -> defining module, resolved on first access (see repro._lazy).
# ``review`` is the submodule: the review function lives at
# ``repro.review`` and ``repro.core.review.review``.
__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "DetectionRule": "repro.core.rules.base",
        "ImportManager": "repro.core.imports",
        "PatchResult": "repro.core.engine",
        "PatchTemplate": "repro.core.rules.base",
        "PatchVerdict": "repro.core.verify",
        "PatchVerifier": "repro.core.verify",
        "PatchitPy": "repro.core.engine",
        "finding_key": "repro.core.verify",
        "ProjectReport": "repro.core.project",
        "ProjectScanner": "repro.core.project",
        "ReviewFinding": "repro.core.review",
        "ReviewReport": "repro.core.review",
        "ReviewedFile": "repro.core.review",
        "review_to_sarif": "repro.core.sarif",
        "dumps_review_sarif": "repro.core.sarif",
        "RuleSet": "repro.core.rules.base",
        "ScanCache": "repro.core.cache",
        "scan_paths": "repro.core.project",
        "apply_patches": "repro.core.patcher",
        "default_ruleset": "repro.core.rules.registry",
        "dumps_plain": "repro.core.sarif",
        "dumps_sarif": "repro.core.sarif",
        "match_rule": "repro.core.matching",
        "reference_run": "repro.core.matching",
        "run_rules": "repro.core.matching",
        "to_plain_json": "repro.core.sarif",
        "to_sarif": "repro.core.sarif",
        # submodules
        "cache": "repro.core.cache",
        "candidates": "repro.core.candidates",
        "engine": "repro.core.engine",
        "groupcompile": "repro.core.groupcompile",
        "imports": "repro.core.imports",
        "matching": "repro.core.matching",
        "patcher": "repro.core.patcher",
        "prefilter": "repro.core.prefilter",
        "project": "repro.core.project",
        "report": "repro.core.report",
        "review": "repro.core.review",
        "rules": "repro.core.rules",
        "sarif": "repro.core.sarif",
        "verify": "repro.core.verify",
    },
)

__all__ = [
    "DetectionRule",
    "ImportManager",
    "PatchResult",
    "PatchTemplate",
    "PatchVerdict",
    "PatchVerifier",
    "PatchitPy",
    "finding_key",
    "ProjectReport",
    "ProjectScanner",
    "ReviewFinding",
    "ReviewReport",
    "ReviewedFile",
    "review_to_sarif",
    "dumps_review_sarif",
    "RuleSet",
    "ScanCache",
    "scan_paths",
    "apply_patches",
    "default_ruleset",
    "dumps_plain",
    "dumps_sarif",
    "match_rule",
    "reference_run",
    "run_rules",
    "to_plain_json",
    "to_sarif",
]
