"""A01:2021 Broken Access Control rules — traversal, uploads, permissions.

Rule ids use the ``PIT-A01-##`` scheme.
"""

from __future__ import annotations

from repro.core.rules.base import PatchTemplate, literal_body, rule
from repro.core.rules.helpers import add_call_kwargs
from repro.types import Confidence, Severity

_REQUEST_SOURCE = r"request\.(?:args|form|values|files|headers|cookies|json)"


def build_rules() -> list:
    """All A01 Broken Access Control rules, in catalog order."""
    return [
        # ---------------- Path traversal (CWE-022/023) ----------------
        rule(
            "PIT-A01-01",
            "CWE-022",
            "File opened from a path interpolating request data",
            r"open\(\s*f(?P<q>['\"])"
            + literal_body(r"\{[^{}]+\}", pre="pre", expr="expr", post="post")
            + r"(?P=q)",
            severity=Severity.HIGH,
            not_if=(r"basename\(", r"secure_filename\("),
            patch=PatchTemplate(
                replacement=r"open(f\g<q>\g<pre>{os.path.basename(\g<expr>)}\g<post>\g<q>",
                imports=("import os",),
                description="Strip directory components from the user path",
            ),
        ),
        rule(
            "PIT-A01-02",
            "CWE-022",
            "File opened from a concatenated user-controlled path",
            r"open\(\s*(?P<base>['\"][^'\"]*['\"])\s*\+\s*(?P<expr>[A-Za-z_][\w.\[\]]*(?:\([^()]*\))?)",
            severity=Severity.HIGH,
            not_if=(r"basename\(", r"secure_filename\("),
            patch=PatchTemplate(
                replacement=r"open(\g<base> + os.path.basename(\g<expr>)",
                imports=("import os",),
                description="Strip directory components from the user path",
            ),
        ),
        rule(
            "PIT-A01-03",
            "CWE-023",
            "os.path.join() mixes a base directory with raw request input",
            r"os\.path\.join\(\s*[^(),]+,\s*(?P<expr>" + _REQUEST_SOURCE + r"(?:\.get)?\([^()]*\))\s*\)",
            severity=Severity.HIGH,
            not_if=(r"basename\(", r"secure_filename\("),
            patch=PatchTemplate(
                builder=_basename_wrap_join,
                imports=("import os",),
                description="Strip directory components from the user path",
            ),
        ),
        rule(
            "PIT-A01-04",
            "CWE-022",
            "send_file() serves a user-controlled path",
            r"send_file\(\s*(?P<expr>[^()]*" + _REQUEST_SOURCE + r"[^()]*(?:\([^()]*\))?[^()]*)\)",
            severity=Severity.HIGH,
            not_if=(r"basename\(", r"secure_filename\(", r"safe_join\("),
            patch=PatchTemplate(
                replacement=r"send_file(os.path.basename(\g<expr>))",
                imports=("import os",),
                description="Serve only basename-restricted files",
            ),
        ),
        # ---------------- Archive extraction (CWE-022) ----------------
        rule(
            "PIT-A01-05",
            "CWE-022",
            "tar archive extracted without a member filter",
            r"\b\w+\.extractall\(\s*[^()]*\)",
            severity=Severity.HIGH,
            confidence=Confidence.MEDIUM,
            not_if=(r"filter\s*=", r"members\s*="),
            not_in_file=(r"import\s+zipfile",),
            patch=PatchTemplate(
                builder=add_call_kwargs(("filter", '"data"')),
                description="Extract with the 'data' safety filter",
            ),
        ),
        rule(
            "PIT-A01-06",
            "CWE-022",
            "zip archive extracted without validating member names",
            r"\b\w+\.extractall\(\s*[^()]*\)",
            severity=Severity.HIGH,
            confidence=Confidence.MEDIUM,
            not_if=(r"filter\s*=", r"members\s*=", r"path\s*=\s*safe",),
            not_in_file=(r"import\s+tarfile",),
        ),
        # ---------------- Uploads (CWE-434) ----------------
        rule(
            "PIT-A01-07",
            "CWE-434",
            "Uploaded file saved under its client-supplied filename",
            r"\.save\((?P<pre>.*?)(?P<fname>(?:\w+\.filename|request\.files\[[^\]]+\]\.filename))(?P<post>[^)\n]*)\)",
            severity=Severity.HIGH,
            not_if=(r"secure_filename\(",),
            patch=PatchTemplate(
                replacement=r".save(\g<pre>secure_filename(\g<fname>)\g<post>)",
                imports=("from werkzeug.utils import secure_filename",),
                description="Sanitize the filename before saving",
            ),
        ),
        rule(
            "PIT-A01-08",
            "CWE-434",
            "Upload handler lacks an extension allowlist",
            r"request\.files\[[^\]]+\]\s*(?:\n|.)*?\.save\(",
            severity=Severity.MEDIUM,
            confidence=Confidence.LOW,
            not_in_file=(r"ALLOWED_EXTENSIONS|allowed_file|\.endswith\(",),
        ),
        # ---------------- Redirects (CWE-601) ----------------
        rule(
            "PIT-A01-09",
            "CWE-601",
            "redirect() follows a user-supplied URL",
            r"redirect\(\s*(?P<expr>" + _REQUEST_SOURCE + r"(?:\.get)?\([^()]*\))\s*\)",
            severity=Severity.MEDIUM,
            patch=PatchTemplate(
                replacement=(
                    r"redirect(\g<expr> if not urlparse(\g<expr>).netloc else '/')"
                ),
                imports=("from urllib.parse import urlparse",),
                description="Allow only same-site redirect targets",
            ),
        ),
        # ---------------- Permissions & temp files (CWE-732/276/377) ----------------
        rule(
            "PIT-A01-10",
            "CWE-732",
            "File permissions opened up to group/world",
            r"os\.chmod\(\s*(?P<path>[^,()]+),\s*(?:0o?7[0-7][0-7]|0o?[0-7]7[0-7]|0o?[0-7][0-7]7|0o666|stat\.S_IRWXU\s*\|\s*stat\.S_IRWXG\s*\|\s*stat\.S_IRWXO)\s*\)",
            severity=Severity.HIGH,
            patch=PatchTemplate(
                replacement=r"os.chmod(\g<path>, 0o600)",
                description="Restrict the file to its owner",
            ),
        ),
        rule(
            "PIT-A01-11",
            "CWE-276",
            "Process umask cleared to 0",
            r"os\.umask\(\s*0o?0?\s*\)",
            severity=Severity.MEDIUM,
            patch=PatchTemplate(
                replacement="os.umask(0o077)",
                description="Default new files to owner-only permissions",
            ),
        ),
        rule(
            "PIT-A01-12",
            "CWE-377",
            "Insecure temporary file created with tempfile.mktemp()",
            r"tempfile\.mktemp\(",
            severity=Severity.MEDIUM,
            patch=PatchTemplate(
                replacement="tempfile.mkstemp(",
                imports=("import tempfile",),
                description="Create the temporary file atomically",
            ),
        ),
        rule(
            "PIT-A01-13",
            "CWE-379",
            "Temporary file hand-rolled inside /tmp",
            r"open\(\s*f?['\"]/tmp/[^'\"]*['\"]",
            severity=Severity.MEDIUM,
            confidence=Confidence.MEDIUM,
        ),
        # ---------------- Authorization gaps (CWE-285/862/915) ----------------
        rule(
            "PIT-A01-14",
            "CWE-285",
            "Authorization enforced with an assert statement",
            r"assert\s+\w+\.(?:is_admin|is_authenticated|has_permission)",
            severity=Severity.MEDIUM,
        ),
        rule(
            "PIT-A01-15",
            "CWE-915",
            "Mass assignment of request fields onto an object",
            r"for\s+\w+\s*,\s*\w+\s+in\s+request\.(?:form|json|args)\.items\(\)\s*:\s*\n\s+setattr\(",
            severity=Severity.MEDIUM,
        ),
    ]


def _basename_wrap_join(match):
    """Wrap the request-derived join component in os.path.basename()."""
    text = match.group(0)
    expr = match.group("expr")
    return text.replace(expr, f"os.path.basename({expr})", 1), ()
