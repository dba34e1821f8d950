#!/usr/bin/env python3
"""Lint: every function, class and method in ``src/`` is referenced.

A definition whose name occurs as a word nowhere in ``src/``, ``tests/``,
``scripts/``, ``benchmarks/``, ``perfbench/`` or ``examples/`` except at
its own definitions is dead code: no user path reaches it.  Dunders and
``visit_*`` methods are exempt, because Python and ``ast.NodeVisitor``
call them by name.  A mention in a docstring or a string counts as a
reference, so a name looked up with ``getattr`` is not reported.

Usage: ``python scripts/check_dead_code.py [REPO_ROOT]``.  Exits 1 and
names file, line and definition for each dead one; exits 0 otherwise.
"""

from __future__ import annotations

import ast
import re
import sys
from collections import Counter
from pathlib import Path

TREES = ("src", "tests", "scripts", "benchmarks", "perfbench", "examples")
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def dead_definitions(root: Path) -> list:
    """``(path, line, name)`` of every unreferenced definition under ``root/src``."""
    words: Counter = Counter()
    for tree in TREES:
        for path in sorted((root / tree).rglob("*.py")):
            words.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    defined = []
    for path in sorted((root / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, _DEFINITIONS):
                defined.append((path.relative_to(root), node.lineno, node.name))
    definitions = Counter(name for _path, _line, name in defined)
    return sorted(
        (path, line, name)
        for path, line, name in defined
        if words[name] <= definitions[name]
        and not (name.startswith("__") and name.endswith("__"))
        and not name.startswith("visit_")
    )


def main(argv: list) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    dead = dead_definitions(root)
    for path, line, name in dead:
        print(f"{path}:{line}: {name} is referenced nowhere")
    if dead:
        print(f"FAIL: {len(dead)} unreferenced definition(s)")
        return 1
    print("OK: every definition in src/ is referenced")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
