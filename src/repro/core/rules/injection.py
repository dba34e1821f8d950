"""A03:2021 Injection rules — SQL, command, XSS, LDAP, XPath, log, CSV.

Rule ids use the ``PIT-A03-##`` scheme.  Patterns match raw source text so
that a triggered rule's span can be patched in place; guards veto matches
that already carry the mitigation (e.g. ``escape(...)`` around an
interpolated field).
"""

from __future__ import annotations

from repro.core.rules.base import PatchTemplate, literal_body, rule
from repro.core.rules.helpers import (
    logging_fstring_to_lazy,
    parameterize_sql_concat,
    parameterize_sql_format,
    parameterize_sql_fstring,
    parameterize_sql_percent,
    shell_false_fix,
    wrap_fstring_fields,
    xpath_parameterize,
)
from repro.types import Confidence, Severity

# The database handle spelling varies across generated code.
_EXEC = r"(?P<call>\b[A-Za-z_][\w.]*\.execute(?:many|script)?)"
_REQUEST_SOURCE = r"request\.(?:args|form|values|cookies|headers|json|data|files)"
# String-literal markers (see ``literal_body``): an f-string field, and
# one that does not already start with escape().
_FIELD = r"\{[^{}]+\}"
_UNESCAPED_FIELD = r"\{(?!\s*escape\()[^{}]+\}"


def build_rules() -> list:
    """All A03 Injection rules, in catalog order."""
    rules = [
        # ---------------- SQL injection (CWE-089) ----------------
        rule(
            "PIT-A03-01",
            "CWE-089",
            "SQL query built with an f-string is passed to execute()",
            _EXEC + r"\(\s*f(?P<q>['\"])(?P<sql>" + literal_body(_FIELD) + r")(?P=q)\s*\)",
            severity=Severity.HIGH,
            patch=PatchTemplate(
                builder=parameterize_sql_fstring,
                description="Parameterize the query with '?' placeholders",
            ),
        ),
        rule(
            "PIT-A03-02",
            "CWE-089",
            "SQL query built with %-interpolation is passed to execute()",
            _EXEC
            + r"\(\s*(?P<q>['\"])(?P<sql>"
            + literal_body(r"%[sdif]")
            + r")(?P=q)\s*%\s*(?P<operand>\([^()]*\)|[A-Za-z_][\w.\[\]'\"()]*)\s*\)",
            severity=Severity.HIGH,
            patch=PatchTemplate(
                builder=parameterize_sql_percent,
                description="Parameterize the query with '?' placeholders",
            ),
        ),
        rule(
            "PIT-A03-03",
            "CWE-089",
            "SQL query built with str.format() is passed to execute()",
            _EXEC
            + r"\(\s*(?P<q>['\"])(?P<sql>"
            + literal_body(r"\{[^{}]*\}")
            + r")(?P=q)\s*\.format\(\s*(?P<args>[^()]*)\)\s*\)",
            severity=Severity.HIGH,
            patch=PatchTemplate(
                builder=parameterize_sql_format,
                description="Parameterize the query with '?' placeholders",
            ),
        ),
        rule(
            "PIT-A03-04",
            "CWE-089",
            "SQL query concatenated with a variable is passed to execute()",
            _EXEC
            + r"\(\s*(?P<q>['\"])(?P<sql>(?:(?!(?P=q)).)+)(?P=q)\s*\+\s*(?P<expr>[A-Za-z_][\w.\[\]]*(?:\([^()]*\))?)\s*(?:\+\s*(?P<qq>['\"])(?P<suffix>(?:(?!(?P=qq)).)*)(?P=qq)\s*)?\)",
            severity=Severity.HIGH,
            patch=PatchTemplate(
                builder=parameterize_sql_concat,
                description="Parameterize the query with '?' placeholders",
            ),
        ),
        rule(
            "PIT-A03-05",
            "CWE-089",
            "SQLAlchemy text()/raw SQL composed with f-string interpolation",
            r"\btext\(\s*f(?P<q>['\"])" + literal_body(_FIELD) + r"(?P=q)\s*\)",
            severity=Severity.HIGH,
            confidence=Confidence.MEDIUM,
        ),
        rule(
            "PIT-A03-06",
            "CWE-564",
            "ORM filter/where built from string concatenation",
            r"\.(?:filter|where)\(\s*(?:f['\"][^'\"]*\{|['\"][^'\"]*['\"]\s*\+)",
            severity=Severity.MEDIUM,
            confidence=Confidence.MEDIUM,
        ),
        # ---------------- OS command injection (CWE-078) ----------------
        rule(
            "PIT-A03-07",
            "CWE-078",
            "os.system() executes a shell command built from data",
            r"os\.system\(\s*(?P<cmd>f['\"](?:[^'\"\\]|\\.)*['\"]|[A-Za-z_][\w.\[\]]*|['\"][^'\"]*['\"]\s*\+[^)]+)\s*\)",
            severity=Severity.CRITICAL,
            patch=PatchTemplate(
                replacement=r"subprocess.run(shlex.split(\g<cmd>), check=False)",
                imports=("import subprocess", "import shlex"),
                description="Run the command without a shell via subprocess",
            ),
        ),
        rule(
            "PIT-A03-08",
            "CWE-078",
            "subprocess invoked with shell=True",
            r"subprocess\.(?:run|call|check_output|check_call|Popen)\([^()]*(?:\([^()]*\)[^()]*)*shell\s*=\s*True[^()]*\)",
            severity=Severity.CRITICAL,
            patch=PatchTemplate(
                builder=shell_false_fix,
                imports=("import subprocess",),
                description="Split the command into argv and disable the shell",
            ),
        ),
        rule(
            "PIT-A03-09",
            "CWE-078",
            "os.popen() pipes a command through the shell",
            r"os\.popen\(\s*(?P<cmd>[^()\s][^()]*|\s)\)",
            severity=Severity.HIGH,
            patch=PatchTemplate(
                replacement=(
                    r"subprocess.run(shlex.split(\g<cmd>), capture_output=True, "
                    r"text=True, check=False).stdout"
                ),
                imports=("import subprocess", "import shlex"),
                description="Capture output via subprocess without a shell",
            ),
        ),
        rule(
            "PIT-A03-10",
            "CWE-078",
            "os.exec*/os.spawn* launched with non-constant arguments",
            r"os\.(?:execl|execle|execlp|execv|execve|execvp|spawnl|spawnv)\([^)]*\)",
            severity=Severity.HIGH,
            confidence=Confidence.MEDIUM,
        ),
        # ---------------- Code injection (CWE-094/095) ----------------
        rule(
            "PIT-A03-11",
            "CWE-095",
            "eval() on a dynamic expression",
            r"(?<![\w.])eval\(\s*(?P<expr>(?:[^()\s][^()]*)?(?:\([^()]*\)[^()]*)*)\)",
            severity=Severity.CRITICAL,
            not_on_line=(r"literal_eval",),
            patch=PatchTemplate(
                replacement=r"ast.literal_eval(\g<expr>)",
                imports=("import ast",),
                description="Evaluate literals only via ast.literal_eval",
            ),
        ),
        rule(
            "PIT-A03-12",
            "CWE-094",
            "exec() on dynamically constructed code",
            r"(?<![\w.])exec\(\s*[^)]*\)",
            severity=Severity.CRITICAL,
        ),
        # ---------------- Cross-site scripting (CWE-079/080) ----------------
        rule(
            "PIT-A03-13",
            "CWE-079",
            "User-controlled value interpolated into an HTML response f-string",
            r"return\s+f(?P<q>['\"])" + literal_body(_UNESCAPED_FIELD) + r"(?P=q)",
            severity=Severity.HIGH,
            require_in_file=(r"flask|django|app\.route|request\.",),
            not_if=(r"\{\s*escape\(",),
            message="Escape user input before rendering it in HTML",
            patch=PatchTemplate(
                builder=wrap_fstring_fields("escape"),
                imports=("from flask import escape",),
                description="Escape interpolated values with flask.escape",
            ),
        ),
        rule(
            "PIT-A03-14",
            "CWE-079",
            "User-controlled value interpolated into make_response()",
            r"make_response\(\s*f(?P<q>['\"])" + literal_body(_UNESCAPED_FIELD) + r"(?P=q)\s*\)",
            severity=Severity.HIGH,
            not_if=(r"\{\s*escape\(",),
            patch=PatchTemplate(
                builder=wrap_fstring_fields("escape"),
                imports=("from flask import escape",),
                description="Escape interpolated values with flask.escape",
            ),
        ),
        rule(
            "PIT-A03-15",
            "CWE-080",
            "HTML response concatenates request input directly",
            r"return\s+(?P<pre>['\"][^'\"\n]*['\"])\s*\+\s*(?P<expr>" + _REQUEST_SOURCE + r"(?:\.get)?\([^()]*\))",
            severity=Severity.HIGH,
            patch=PatchTemplate(
                replacement=r"return \g<pre> + escape(\g<expr>)",
                imports=("from flask import escape",),
                description="Escape the concatenated request value",
            ),
        ),
        rule(
            "PIT-A03-16",
            "CWE-079",
            "render_template_string() on dynamic template content",
            r"render_template_string\(\s*(?:f['\"]|[A-Za-z_][\w.]*\s*[,)])",
            severity=Severity.HIGH,
            confidence=Confidence.MEDIUM,
        ),
        rule(
            "PIT-A03-17",
            "CWE-079",
            "Markup()/mark_safe() wraps unsanitized data",
            r"(?:\bMarkup|\bmark_safe)\(\s*(?:f['\"]|[A-Za-z_][\w.]*\s*\))",
            severity=Severity.MEDIUM,
            confidence=Confidence.MEDIUM,
        ),
        # ---------------- LDAP / XPath / XML (CWE-090/643/091) ----------------
        rule(
            "PIT-A03-18",
            "CWE-090",
            "LDAP search filter interpolates user data",
            r"(?P<call>\b[\w.]*\.search(?:_s|_ext_s)?)\(\s*(?P<pre>(?:[^)\s][^)]*?)??)"
            + r"f(?P<q>['\"])(?P<body>" + literal_body(_FIELD) + r")(?P=q)",
            severity=Severity.HIGH,
            not_if=(r"escape_filter_chars",),
            patch=PatchTemplate(
                builder=wrap_fstring_fields(
                    "escape_filter_chars",
                ),
                imports=("from ldap.filter import escape_filter_chars",),
                description="Escape LDAP filter special characters",
            ),
        ),
        rule(
            "PIT-A03-19",
            "CWE-643",
            "XPath query interpolates user data",
            r"(?P<call>\b[\w.]*\.xpath)\(\s*f(?P<q>['\"])(?P<body>"
            + literal_body(_FIELD)
            + r")(?P=q)\s*\)",
            severity=Severity.HIGH,
            patch=PatchTemplate(
                builder=xpath_parameterize,
                description="Use XPath variables instead of interpolation",
            ),
        ),
        rule(
            "PIT-A03-20",
            "CWE-091",
            "XML document assembled by string interpolation of user data",
            r"(?:<\?xml|<[A-Za-z][\w-]*>).*\{[^{}]+\}|f['\"]<[A-Za-z][\w-]*>\{[^{}]+\}",
            severity=Severity.MEDIUM,
            confidence=Confidence.LOW,
        ),
        # ---------------- Log forging / CSV / input validation ----------------
        rule(
            "PIT-A03-21",
            "CWE-117",
            "User-controlled value interpolated into a log message",
            r"(?P<call>\b(?:logging|logger|log)\.(?:info|warning|error|debug|critical))"
            + r"\(\s*f(?P<q>['\"])(?P<body>" + literal_body(_FIELD) + r")(?P=q)\s*\)",
            severity=Severity.MEDIUM,
            not_in_file=(),
            patch=PatchTemplate(
                builder=logging_fstring_to_lazy,
                description="Log lazily with CR/LF stripped from arguments",
            ),
        ),
        rule(
            "PIT-A03-22",
            "CWE-1236",
            "CSV row written from request data without formula neutralization",
            r"\.writerow\(\s*\[?[^)\]]*" + _REQUEST_SOURCE + r"[^)\]]*\]?\s*\)",
            severity=Severity.MEDIUM,
            confidence=Confidence.MEDIUM,
        ),
        rule(
            "PIT-A03-23",
            "CWE-020",
            "Numeric conversion of request input without validation handling",
            r"(?:int|float)\(\s*" + _REQUEST_SOURCE + r"(?:\.get)?\([^()]*\)\s*\)",
            severity=Severity.LOW,
            confidence=Confidence.MEDIUM,
        ),
    ]
    return rules
