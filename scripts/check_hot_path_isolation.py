#!/usr/bin/env python3
"""Lint: the disabled scan path must not touch the tracing machinery.

The observability contract (PR 2, extended by the tracing PR) says a scan
with tracing disabled executes exactly the pre-tracing code.  Three
grep-level properties keep that honest, and this script asserts all of
them:

1. ``repro/core/matching.py`` has no *module-level* import of
   ``repro.observability.trace`` or ``repro.observability.provenance`` —
   the traced path imports them function-locally, so the disabled path
   never pays the import (and never can, even by accident, reference a
   tracing symbol at module scope).
2. The bodies of ``_match_candidate`` (the per-rule body) and
   ``_run_each`` (the selection loop that runs it) — the hot loops every
   disabled scan runs per rule per file — contain no ``trace``,
   ``provenance``, ``span_id`` or ``metrics`` token: zero
   instrumentation, zero bookkeeping.
3. ``repro/core/candidates.py`` (the candidate index every untraced scan
   now consults) imports nothing from ``repro.observability`` at all —
   at module level or otherwise — so tracing symbols cannot leak into
   the hot path through it.
4. Neither ``matching.py`` nor ``candidates.py`` imports
   ``repro.core.verify`` — the Verifier stage runs strictly *after*
   patch rendering (extra re-scans, ``compile()`` calls, binding
   regexes) and must stay out of the per-rule detect loop; and
   ``verify.py`` itself imports nothing from ``repro.observability``,
   so verification cannot smuggle instrumentation back in either.
5. Neither ``matching.py`` nor ``candidates.py`` imports
   ``repro.core.review`` — review mode (diff parsing, git subprocesses,
   baseline classification) is an orchestration layer *above* the
   engine; a plain scan must never pay for it, not even an import.
6. ``repro/core/groupcompile.py`` (grouped-alternation dispatch, the
   tier the untraced scan runs first) imports nothing from ``repro``
   at all — stdlib only, like histogram.py: it sits inside the match
   loop and must never drag observability or any other repro machinery
   onto the hot path.
7. The latency-histogram layer (PR 8) stays decoupled in both
   directions: ``repro/observability/histogram.py`` imports nothing
   from ``repro`` at all (stdlib only, so it can never drag engine code
   into a metrics consumer), and ``repro/observability/collector.py``
   has no *module-level* import of it — ``matching.py`` imports the
   collector at module level, so a module-level histogram import there
   would put histogram.py on the untraced hot path.  The hot-loop token
   check also covers ``histogram``/``observe``.
8. Nothing imports more than it runs: the four package facades
   (``repro``, ``repro.core``, ``repro.observability``,
   ``repro.server``) import no repro module at import time except the
   lazy-export helper ``repro._lazy``, which itself imports nothing from
   ``repro``; and ``repro/cli.py`` imports neither a facade nor
   ``repro.server``, ``repro.ide``, ``repro.core.review`` or
   ``repro.observability.exporters`` at import time.  That is what keeps
   items 5 and 7 true for the CLI: a plain ``scan`` never loads review
   mode, and an untraced one never loads histogram.py.  Unlike the grep
   checks above, this one reads the syntax tree, so imports inside
   top-level ``if``/``try`` blocks and relative imports count too.

Exit code 0 when clean, 1 with a report when violated.  Run from the
repository root (CI does); takes an optional path to the repo root.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Iterable, Iterator, Tuple

FORBIDDEN_MODULE_IMPORTS = (
    "repro.observability.trace",
    "repro.observability.provenance",
)

HOT_LOOP_TOKENS = ("trace", "provenance", "span_id", "metrics", "histogram", "observe")

HOT_LOOP_FUNCTIONS = ("_match_candidate", "_run_each")

FACADES = ("repro", "repro.core", "repro.observability", "repro.server")

LAZY_HELPER = "repro._lazy"

CLI_DEFERRED = (
    "repro.server",
    "repro.ide",
    "repro.core.review",
    "repro.observability.exporters",
)


def _import_time_imports(path: Path, package: str) -> Iterator[Tuple[int, str]]:
    """``(line, module)`` for every import that runs when ``path`` is
    imported: module level, top-level ``if``/``try``/``with`` and class
    bodies included; function bodies and ``if TYPE_CHECKING:`` excluded.
    Relative imports are resolved against ``package``."""

    def visit(statements: Iterable[ast.AST]) -> Iterator[Tuple[int, str]]:
        for node in statements:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.dump(node.test):
                yield from visit(node.orelse)
                continue
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield node.lineno, alias.name
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if node.level:
                    parts = package.split(".")[: len(package.split(".")) - node.level + 1]
                    module = ".".join(parts + ([module] if module else []))
                yield node.lineno, module
            for name in ("body", "orelse", "finalbody", "handlers"):
                yield from visit(getattr(node, name, ()))

    yield from visit(ast.parse(path.read_text()).body)


def _within(module: str, prefixes: Iterable[str]) -> bool:
    return any(module == p or module.startswith(p + ".") for p in prefixes)


def _function_body(source: str, name: str) -> str:
    """The *code* of top-level function ``name`` — docstring and comments
    stripped, so prose mentioning a forbidden token does not trip the lint."""
    lines = source.splitlines()
    body: list[str] = []
    inside = False
    in_signature = False
    for line in lines:
        if line.startswith(f"def {name}("):
            inside = True
            # A multi-line signature continues until the ":" that closes
            # it; parameter names there are interface, not loop code.
            in_signature = not line.rstrip().endswith(":")
            continue
        if inside:
            if in_signature:
                in_signature = not line.rstrip().endswith(":")
                continue
            if line and not line.startswith((" ", "\t", ")")):
                break
            body.append(line.split("#", 1)[0])
    if not body:
        raise SystemExit(f"lint error: function {name} not found in matching.py")
    code = "\n".join(body)
    # drop the docstring (first triple-quoted literal, if any)
    return re.sub(r'^\s*(?:"""|\'\'\')(?s:.*?)(?:"""|\'\'\')', "", code, count=1)


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(".")
    matching = root / "src" / "repro" / "core" / "matching.py"
    source = matching.read_text()
    problems: list[str] = []

    # 1. No module-level tracing imports.  Function-local imports are
    # indented; module-level ones start at column zero.
    for number, line in enumerate(source.splitlines(), start=1):
        if not line.startswith(("import ", "from ")):
            continue
        for module in FORBIDDEN_MODULE_IMPORTS:
            if module in line:
                problems.append(
                    f"{matching}:{number}: module-level import of {module} "
                    "(must be local to the traced path)"
                )

    # 2. The hot loops stay uninstrumented.
    for function in HOT_LOOP_FUNCTIONS:
        hot = _function_body(source, function)
        for token in HOT_LOOP_TOKENS:
            if re.search(rf"\b{token}\b", hot):
                problems.append(
                    f"{matching}: {function} mentions '{token}' — the "
                    "disabled hot loop must carry no instrumentation"
                )

    # 3. The candidate index must not pull in observability at all —
    # comments/docstrings excepted, import statements anywhere included.
    candidates = root / "src" / "repro" / "core" / "candidates.py"
    candidates_source = candidates.read_text()
    for number, line in enumerate(candidates_source.splitlines(), start=1):
        code = line.split("#", 1)[0]
        if "repro.observability" in code and ("import" in code or "from" in code):
            problems.append(
                f"{candidates}:{number}: imports from repro.observability — "
                "the candidate index is on the untraced hot path"
            )

    # 4. The Verifier stays off the hot detect path, both directions:
    # matching.py/candidates.py never import repro.core.verify, and
    # verify.py never imports repro.observability.
    for path, text in ((matching, source), (candidates, candidates_source)):
        for number, line in enumerate(text.splitlines(), start=1):
            code = line.split("#", 1)[0]
            if "repro.core.verify" in code and ("import" in code or "from" in code):
                problems.append(
                    f"{path}:{number}: imports repro.core.verify — the "
                    "Verifier stage must stay out of the hot detect loop"
                )
            # 5. Review mode orchestrates the engine from above; the
            # per-rule scan path must never reach up into it.
            if "repro.core.review" in code and ("import" in code or "from" in code):
                problems.append(
                    f"{path}:{number}: imports repro.core.review — review "
                    "mode is an orchestration layer and must stay off the "
                    "hot detect path"
                )
    verify = root / "src" / "repro" / "core" / "verify.py"
    # the module docstring documents this very rule; don't trip on prose
    verify_source = re.sub(
        r'^(?:"""|\'\'\')(?s:.*?)(?:"""|\'\'\')', "", verify.read_text(), count=1
    )
    for number, line in enumerate(verify_source.splitlines(), start=1):
        code = line.split("#", 1)[0]
        if "repro.observability" in code and ("import" in code or "from" in code):
            problems.append(
                f"{verify}: imports from repro.observability — "
                "the Verifier must not carry instrumentation of its own"
            )

    # 6. Grouped dispatch runs inside the match loop; stdlib-only, so
    # it can never pull instrumentation (or anything else) onto the
    # untraced hot path.
    groupcompile = root / "src" / "repro" / "core" / "groupcompile.py"
    groupcompile_source = re.sub(
        r'^(?:"""|\'\'\')(?s:.*?)(?:"""|\'\'\')', "", groupcompile.read_text(), count=1
    )
    for number, line in enumerate(groupcompile_source.splitlines(), start=1):
        code = line.split("#", 1)[0]
        if ("import" in code or "from" in code) and re.search(r"\brepro\b", code):
            problems.append(
                f"{groupcompile}:{number}: imports from repro — grouped "
                "dispatch must stay stdlib-only"
            )

    # 7. The histogram layer is stdlib-only, and the collector defers
    # its import to the functions that need it — matching.py imports
    # the collector at module level, so a module-level histogram import
    # in collector.py would land on every untraced scan's import path.
    histogram = root / "src" / "repro" / "observability" / "histogram.py"
    histogram_source = re.sub(
        r'^(?:"""|\'\'\')(?s:.*?)(?:"""|\'\'\')', "", histogram.read_text(), count=1
    )
    for number, line in enumerate(histogram_source.splitlines(), start=1):
        code = line.split("#", 1)[0]
        if ("import" in code or "from" in code) and re.search(r"\brepro\b", code):
            problems.append(
                f"{histogram}:{number}: imports from repro — the histogram "
                "primitives must stay stdlib-only"
            )
    collector = root / "src" / "repro" / "observability" / "collector.py"
    for number, line in enumerate(collector.read_text().splitlines(), start=1):
        if not line.startswith(("import ", "from ")):
            continue  # indented = function-local (or TYPE_CHECKING) = fine
        if "repro.observability.histogram" in line:
            problems.append(
                f"{collector}:{number}: module-level import of "
                "repro.observability.histogram — matching.py imports the "
                "collector, so this lands on the untraced hot path"
            )

    # 8. The facades resolve lazily and the CLI imports defining modules
    # only, so a cold scan loads neither review mode nor the exporters,
    # the histogram, the server or the IDE layer.
    src = root / "src"
    for package in FACADES:
        facade = src.joinpath(*package.split(".")) / "__init__.py"
        for number, module in _import_time_imports(facade, package):
            if _within(module, ("repro",)) and module != LAZY_HELPER:
                problems.append(
                    f"{facade}:{number}: import-time import of {module} — a "
                    f"package facade resolves its names lazily ({LAZY_HELPER})"
                )
    lazy = src / "repro" / "_lazy.py"
    for number, module in _import_time_imports(lazy, "repro"):
        if _within(module, ("repro",)):
            problems.append(
                f"{lazy}:{number}: imports {module} — every facade imports "
                "the lazy-export helper, so it must stay stdlib-only"
            )
    cli = src / "repro" / "cli.py"
    for number, module in _import_time_imports(cli, "repro"):
        if module in FACADES or _within(module, CLI_DEFERRED):
            problems.append(
                f"{cli}:{number}: import-time import of {module} — the CLI "
                "imports defining modules only, and defers this one to the "
                "subcommand or flag that runs it"
            )

    if problems:
        print("hot-path isolation violated:")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print("hot-path isolation ok: matching.py imports no tracing modules at "
          "module level; _match_candidate/_run_each are "
          "instrumentation-free; candidates.py imports no observability; "
          "verify.py and review.py stay off the hot detect path; "
          "groupcompile.py and histogram.py are stdlib-only and "
          "collector.py defers its import; the package facades are lazy "
          "and cli.py defers review, exporters, server and IDE imports")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
