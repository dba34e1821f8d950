"""A07:2021 Identification and Authentication Failures rules.

Rule ids use the ``PIT-A07-##`` scheme.
"""

from __future__ import annotations

from repro.core.rules.base import PatchTemplate, rule
from repro.core.rules.helpers import env_var_credential
from repro.types import Confidence, Severity


def build_rules() -> list:
    """All A07 Identification and Authentication Failures rules."""
    return [
        # ---------------- Hard-coded credentials (CWE-798) ----------------
        rule(
            "PIT-A07-01",
            "CWE-798",
            "Hard-coded credential assigned to a variable",
            r"(?P<name>\b\w*(?:password|passwd|pwd|api_key|apikey|auth_token|access_token)\w*)\s*=\s*(?P<q>['\"])(?P<val>[^'\"]{3,})(?P=q)",
            severity=Severity.HIGH,
            not_on_line=(
                r"os\.environ|getenv|getpass|input\(|request\.|\.get\(|format|\{\}|%s",
            ),
            not_if=(r"=\s*['\"](?:\s*|x+|\*+|<[^>]+>)['\"]",),
            patch=PatchTemplate(
                builder=env_var_credential,
                description="Load the credential from the environment",
            ),
        ),
        rule(
            "PIT-A07-02",
            "CWE-798",
            "Flask secret key hard-coded",
            r"(?P<target>(?:app\.)?secret_key)\s*=\s*(?P<q>['\"])[^'\"]+(?P=q)",
            severity=Severity.HIGH,
            not_on_line=(r"os\.environ|getenv|urandom|token_hex",),
            patch=PatchTemplate(
                replacement=r'\g<target> = os.environ.get("FLASK_SECRET_KEY", os.urandom(32).hex())',
                imports=("import os",),
                description="Load the secret key from the environment",
            ),
        ),
        rule(
            "PIT-A07-03",
            "CWE-798",
            "Password compared against a hard-coded literal",
            r"(?P<var>\b\w*(?:password|passwd|pwd)\w*)\s*==\s*(?P<q>['\"])[^'\"]+(?P=q)",
            severity=Severity.HIGH,
            patch=PatchTemplate(
                replacement=r'hmac.compare_digest(\g<var>, os.environ.get("APP_PASSWORD", ""))',
                imports=("import hmac", "import os"),
                description="Compare in constant time against env secret",
            ),
        ),
        # ---------------- Timing-unsafe comparison (CWE-287) ----------------
        rule(
            "PIT-A07-04",
            "CWE-287",
            "Digest compared with == (timing side channel)",
            r"(?P<a>[\w.\[\]'\"()]{0,60}(?:hexdigest|digest)\(\))\s*==\s*(?P<b>[\w.\[\]'\"()]+)",
            severity=Severity.MEDIUM,
            not_on_line=(r"compare_digest",),
            patch=PatchTemplate(
                replacement=r"hmac.compare_digest(\g<a>, \g<b>)",
                imports=("import hmac",),
                description="Use a constant-time digest comparison",
            ),
        ),
        # ---------------- Password policy (CWE-521/620) ----------------
        rule(
            "PIT-A07-05",
            "CWE-521",
            "Password policy accepts very short passwords",
            r"len\(\s*(?P<var>\w*(?:password|passwd|pwd)\w*)\s*\)\s*>=?\s*[1-7]\b",
            severity=Severity.MEDIUM,
            patch=PatchTemplate(
                replacement=r"len(\g<var>) >= 12",
                description="Require at least 12 characters",
            ),
        ),
        rule(
            "PIT-A07-06",
            "CWE-620",
            "Password changed without verifying the current password",
            r"def\s+(?:change|update|reset)_password\([^)]*\)\s*:",
            severity=Severity.MEDIUM,
            confidence=Confidence.LOW,
            not_in_file=(r"(?:old|current)_password",),
        ),
        # ---------------- Transport of credentials (CWE-598) ----------------
        rule(
            "PIT-A07-07",
            "CWE-598",
            "Credentials carried in a GET query string",
            r"requests\.get\([^()]*(?:params\s*=\s*\{[^{}]*(?:password|token|secret)|[?&](?:password|token|secret)=)",
            severity=Severity.MEDIUM,
        ),
        # ---------------- Missing / brute-forceable auth (CWE-306/307) ----------------
        rule(
            "PIT-A07-08",
            "CWE-306",
            "Sensitive route exposed without an authentication decorator",
            r"@app\.route\(\s*['\"][^'\"]*(?:admin|delete|settings|config|manage)[^'\"]*['\"][^)]*\)\s*\n\s*def\s+\w+",
            severity=Severity.HIGH,
            confidence=Confidence.MEDIUM,
            not_in_file=(r"login_required|check_auth|authenticate\(",),
            patch=PatchTemplate(
                builder=_insert_login_required,
                imports=("from flask_login import login_required",),
                description="Guard the route with @login_required",
            ),
        ),
        rule(
            "PIT-A07-09",
            "CWE-307",
            "Login handler lacks rate limiting",
            r"def\s+login\([^)]*\)\s*:",
            severity=Severity.LOW,
            confidence=Confidence.LOW,
            not_in_file=(r"limiter|rate_limit|attempts|lockout",),
        ),
    ]


def _insert_login_required(match):
    """Insert a @login_required decorator between the route and the def,
    at the def's own indentation."""
    text = match.group(0)
    head, _, def_line = text.rpartition("\n")
    indent = def_line[: len(def_line) - len(def_line.lstrip())]
    return f"{head}\n{indent}@login_required\n{def_line}", ()
