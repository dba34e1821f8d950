"""PatchitPy core: pattern-based detection and automated patching.

This package implements the paper's primary contribution (§II): a rule
engine whose 85 detection rules are regular-expression patterns enriched
with guard conditions, each optionally paired with a patch template that
rewrites the vulnerable pattern into a safe alternative and contributes any
imports the safe code needs.
"""

from repro.core.cache import ScanCache
from repro.core.engine import PatchitPy, PatchResult
from repro.core.imports import ImportManager
from repro.core.matching import match_rule, reference_run, run_rules
from repro.core.patcher import apply_patches
from repro.core.project import ProjectReport, ProjectScanner, scan_paths
from repro.core.review import ReviewFinding, ReviewReport, ReviewedFile, review
from repro.core.sarif import (
    dumps_plain,
    dumps_review_sarif,
    dumps_sarif,
    review_to_sarif,
    to_plain_json,
    to_sarif,
)
from repro.core.rules import DetectionRule, PatchTemplate, RuleSet, default_ruleset
from repro.core.verify import PatchVerdict, PatchVerifier, finding_key

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
    "review",
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
