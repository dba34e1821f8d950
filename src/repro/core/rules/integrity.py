"""A08:2021 Software and Data Integrity Failures rules — deserialization.

Rule ids use the ``PIT-A08-##`` scheme.  CWE-502 is the most frequent
weakness in the paper's generated corpus, so this category carries several
rule variants for the different deserialization APIs.
"""

from __future__ import annotations

from repro.core.rules.base import PatchTemplate, rule
from repro.core.rules.helpers import yaml_safe_load_fix
from repro.types import Confidence, Severity


def build_rules() -> list:
    """All A08 Software and Data Integrity Failures rules."""
    return [
        # ---------------- pickle family (CWE-502) ----------------
        rule(
            "PIT-A08-01",
            "CWE-502",
            "pickle.loads() deserializes untrusted bytes",
            r"pickle\.loads\(\s*(?P<arg>(?:[^()\s][^()]*)?(?:\([^()]*\)[^()]*)?)\)",
            severity=Severity.CRITICAL,
            not_on_line=(r"#\s*trusted",),
            patch=PatchTemplate(
                replacement=r"json.loads(\g<arg>)",
                imports=("import json",),
                description="Deserialize with JSON instead of pickle",
            ),
        ),
        rule(
            "PIT-A08-02",
            "CWE-502",
            "pickle.load() deserializes an untrusted stream",
            r"pickle\.load\(\s*(?P<arg>(?:[^()\s][^()]*)?(?:\([^()]*\)[^()]*)?)\)",
            severity=Severity.CRITICAL,
            not_on_line=(r"#\s*trusted",),
            patch=PatchTemplate(
                replacement=r"json.load(\g<arg>)",
                imports=("import json",),
                description="Deserialize with JSON instead of pickle",
            ),
        ),
        rule(
            "PIT-A08-03",
            "CWE-502",
            "cPickle/dill/_pickle deserialization of untrusted data",
            r"(?:cPickle|dill|_pickle)\.loads?\(",
            severity=Severity.CRITICAL,
        ),
        rule(
            "PIT-A08-04",
            "CWE-502",
            "marshal deserialization of untrusted data",
            r"marshal\.loads?\(",
            severity=Severity.HIGH,
        ),
        rule(
            "PIT-A08-05",
            "CWE-502",
            "jsonpickle.decode() reconstructs arbitrary objects",
            r"jsonpickle\.decode\(\s*(?P<arg>[^()]+)\)",
            severity=Severity.HIGH,
            patch=PatchTemplate(
                replacement=r"json.loads(\g<arg>)",
                imports=("import json",),
                description="Decode plain JSON instead of jsonpickle",
            ),
        ),
        # ---------------- YAML (CWE-502) ----------------
        rule(
            "PIT-A08-06",
            "CWE-502",
            "yaml.load() without a safe loader",
            r"yaml\.load\(\s*(?P<args>(?:[^()\s][^()]*)?(?:\([^()]*\)[^()]*)*)\)",
            severity=Severity.HIGH,
            not_if=(r"SafeLoader",),
            patch=PatchTemplate(
                builder=yaml_safe_load_fix,
                imports=("import yaml",),
                description="Use yaml.safe_load",
            ),
        ),
        rule(
            "PIT-A08-07",
            "CWE-502",
            "yaml.full_load()/unsafe_load() on untrusted input",
            r"yaml\.(?:full_load|unsafe_load)\(\s*(?P<args>[^()]*)\)",
            severity=Severity.HIGH,
            patch=PatchTemplate(
                builder=yaml_safe_load_fix,
                imports=("import yaml",),
                description="Use yaml.safe_load",
            ),
        ),
        # ---------------- shelve / model files (CWE-502) ----------------
        rule(
            "PIT-A08-08",
            "CWE-502",
            "shelve opens an untrusted database (pickle-backed)",
            r"shelve\.open\(\s*[^()]*request(?:[^()]|\([^()]*\))*\)",
            severity=Severity.HIGH,
            confidence=Confidence.MEDIUM,
        ),
        rule(
            "PIT-A08-09",
            "CWE-502",
            "Model file loaded with a pickle-based loader",
            r"(?:torch|joblib)\.load\(",
            severity=Severity.MEDIUM,
            confidence=Confidence.MEDIUM,
        ),
        # ---------------- Unverified code/content (CWE-494/829/426) ----------------
        rule(
            "PIT-A08-10",
            "CWE-494",
            "Downloaded content executed without an integrity check",
            r"exec\(\s*(?:requests\.get\([^()]*\)|urllib\.request\.urlopen\([^()]*\))\.(?:text|read\(\))",
            severity=Severity.CRITICAL,
        ),
        rule(
            "PIT-A08-11",
            "CWE-829",
            "Remote script piped into an interpreter/installer",
            r"os\.system\(\s*['\"][^'\"]*(?:curl|wget)[^'\"]*\|\s*(?:sh|bash|python)",
            severity=Severity.CRITICAL,
        ),
        rule(
            "PIT-A08-12",
            "CWE-426",
            "Module search path extended with a world-writable directory",
            r"sys\.path\.(?:append|insert)\(\s*(?:0\s*,\s*)?['\"](?:/tmp|\.|)['\"]\s*\)",
            severity=Severity.MEDIUM,
        ),
    ]
