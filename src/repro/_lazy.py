"""PEP 562 lazy exports for the package facades.

``repro``, ``repro.core``, ``repro.observability`` and ``repro.server``
re-export names defined in their submodules.  Importing those submodules
eagerly would make every ``import repro.<anything>`` pay for the whole
library — the daemon and asyncio, the IDE layer, review mode, the metric
exporters — so each facade holds one name → defining-module table instead
and installs the ``__getattr__``/``__dir__`` pair built here.

The first access of a name imports its defining module and caches the
value in the facade's globals, so every later access is an ordinary
module-dict hit that never reaches ``__getattr__`` again.  A table entry
whose module is ``<package>.<name>`` names a submodule: the value is the
module itself.  A name missing from the table raises ``AttributeError``;
an import error inside a real submodule propagates unchanged.

Stdlib-only by lint (``scripts/check_hot_path_isolation.py``): every
facade imports this module, so it must not import anything from repro.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Tuple


def lazy_exports(
    package: str, table: Dict[str, str]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The ``(__getattr__, __dir__)`` pair resolving ``package``'s table."""
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        try:
            module_name = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        module = importlib.import_module(module_name)
        value = module if module_name == f"{package}.{name}" else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(table))

    return __getattr__, __dir__
