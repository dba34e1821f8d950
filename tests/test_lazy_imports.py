"""What each CLI subcommand imports, and the lazy package facades.

Every check runs in a fresh interpreter with ``PYTHONPATH=src``: import
state is per process, and this test process has long since imported
everything.  The import-set baseline is ``sys.modules`` just before
``import repro.cli``, so whatever ``site`` hooks load does not count.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

FACADES = ("repro", "repro.core", "repro.observability", "repro.server")

#: Submodules that a bare ``import repro`` exposed as attributes in 2.x.
SUBMODULES = {
    "repro": ("core", "cwe", "exceptions", "ide", "observability", "server", "types"),
    "repro.core": (
        "cache", "candidates", "engine", "groupcompile", "imports", "matching",
        "patcher", "prefilter", "project", "report", "rules", "sarif", "verify",
    ),
    "repro.observability": ("collector", "exporters", "histogram", "provenance", "trace"),
    "repro.server": ("app", "client", "fleet", "http11", "pipeline", "router", "statusz"),
}

#: Loaded neither by ``import repro.cli`` nor by a ``scan``.
SCAN_NEVER_LOADS = (
    "asyncio",
    "repro.server",
    "repro.ide",
    "repro.core.review",
    "repro.observability.exporters",
    "repro.observability.histogram",
)

#: Not loaded by a ``review``.
REVIEW_NEVER_LOADS = ("asyncio", "repro.server", "repro.ide")

CLI_PROBE = """
import json, sys
baseline = set(sys.modules)
import repro.cli
imported = set(sys.modules) - baseline
code = repro.cli.main(sys.argv[1:])
ran = set(sys.modules) - baseline
print(json.dumps({"code": code, "import": sorted(imported), "run": sorted(ran)}))
"""

VULN = "import pickle\n\ndata = pickle.loads(blob)\n"


def run_fresh(code: str, *args: str, cwd=None) -> dict:
    """Run ``code`` in a fresh interpreter; its last stdout line is JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH")) if part
    )
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def git(root: Path, *args: str) -> None:
    subprocess.run(["git", "-C", str(root), *args], check=True, capture_output=True)


class TestSubcommandImports:
    def test_scan_loads_no_other_subcommand(self, tmp_path):
        (tmp_path / "vuln.py").write_text(VULN)
        (tmp_path / "clean.py").write_text("x = 1\n")
        probe = run_fresh(CLI_PROBE, "scan", str(tmp_path))
        assert probe["code"] == 1
        for phase in ("import", "run"):
            loaded = [name for name in SCAN_NEVER_LOADS if name in probe[phase]]
            assert loaded == [], f"{phase}: {loaded}"
        assert "repro.core.project" in probe["run"]

    def test_review_loads_no_server_or_ide(self, tmp_path):
        git(tmp_path, "init", "-q")
        git(tmp_path, "config", "user.email", "t@example.com")
        git(tmp_path, "config", "user.name", "t")
        (tmp_path / "app.py").write_text("x = 1\n")
        git(tmp_path, "add", "-A")
        git(tmp_path, "commit", "-qm", "base")
        (tmp_path / "app.py").write_text(VULN)
        git(tmp_path, "commit", "-qam", "vuln")
        probe = run_fresh(
            CLI_PROBE, "review", "HEAD~1..HEAD", "--format", "json", cwd=tmp_path
        )
        assert probe["code"] == 1
        loaded = [name for name in REVIEW_NEVER_LOADS if name in probe["run"]]
        assert loaded == []
        assert "repro.core.review" in probe["run"]


class TestFacades:
    def test_every_public_name_resolves_both_ways(self):
        problems = run_fresh(
            """
            import importlib, json
            problems = []
            for facade in %r:
                module = importlib.import_module(facade)
                listed = dir(module)
                for name in module.__all__:
                    if name not in listed:
                        problems.append(f"{facade}: dir() lacks {name}")
                    scope = {}
                    exec(f"from {facade} import {name} as value", scope)
                    if getattr(module, name) is not scope["value"]:
                        problems.append(f"{facade}.{name}: attribute != from-import")
                try:
                    module.no_such_name
                except AttributeError:
                    pass
                else:
                    problems.append(f"{facade}: unknown name resolved")
            print(json.dumps(problems))
            """
            % (FACADES,)
        )
        assert problems == []

    def test_star_import_binds_exactly_all(self):
        names = run_fresh(
            """
            import json
            scope = {}
            exec("from repro import *", scope)
            print(json.dumps(sorted(set(scope) - {"__builtins__"})))
            """
        )
        import repro

        assert names == sorted(repro.__all__)

    def test_submodules_resolve_after_bare_import(self):
        kinds = run_fresh(
            """
            import json, types
            import repro
            kinds = {}
            for facade, names in %r.items():
                package = repro
                for part in facade.split(".")[1:]:
                    package = getattr(package, part)
                for name in names:
                    kinds[f"{facade}.{name}"] = isinstance(
                        getattr(package, name), types.ModuleType
                    )
            kinds["repro.server.ServerConfig"] = repro.server.ServerConfig.__name__
            print(json.dumps(kinds))
            """
            % (SUBMODULES,)
        )
        assert kinds.pop("repro.server.ServerConfig") == "ServerConfig"
        assert kinds and all(kinds.values()), kinds

    def test_an_import_error_inside_a_submodule_propagates(self):
        outcome = run_fresh(
            """
            import json, sys
            sys.modules["repro.server.client"] = None  # a broken submodule
            import repro.server
            try:
                hasattr(repro.server, "ServerClient")
            except ImportError as error:
                outcome = type(error).__name__
            else:
                outcome = "swallowed"
            print(json.dumps(outcome))
            """
        )
        assert outcome == "ModuleNotFoundError"

    def test_core_review_is_the_module_in_either_import_order(self):
        for first in (
            "import repro.core.review",
            "from repro.core import review",
            "from repro import review",
        ):
            kinds = run_fresh(
                f"""
                import json, types
                {first}
                import repro.core.review as submodule
                from repro.core import review as from_core
                from repro import review as from_facade
                print(json.dumps([
                    isinstance(submodule, types.ModuleType),
                    from_core is submodule,
                    from_facade is submodule.review,
                    callable(from_facade),
                ]))
                """
            )
            assert kinds == [True, True, True, True], first
