#!/usr/bin/env python
"""Generate ``docs/cli.md`` from the argparse parsers — never by hand.

The CLI reference drifts the moment anyone edits ``build_parser()`` and
forgets the docs.  This script makes the parser tree the single source
of truth: it introspects the ``patchitpy`` and ``patchitpy serve``
parsers (their ``_actions`` lists — not ``format_usage()``, whose
line-wrapping depends on the terminal width and would make the check
flaky across environments) and renders a stable markdown document.

Usage::

    python scripts/gen_cli_docs.py           # rewrite docs/cli.md
    python scripts/gen_cli_docs.py --check   # exit 1 if docs/cli.md is stale

CI runs ``--check``; a failing check means "re-run the generator and
commit the result".
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cli import build_parser  # noqa: E402
from repro.server.daemon import build_serve_parser  # noqa: E402
from repro.server.fleet import build_fleet_parser  # noqa: E402

OUTPUT = REPO_ROOT / "docs" / "cli.md"

HEADER = """\
# CLI reference

<!-- GENERATED FILE — do not edit by hand.
     Regenerate with: python scripts/gen_cli_docs.py
     CI enforces freshness via: python scripts/gen_cli_docs.py --check -->

The `patchitpy` executable is subcommand-first: `scan` detects, `patch`
detects-patches-verifies, `review` scans only what a change touched
(see [docs/review.md](review.md)), `serve` starts the persistent scan
server (see [docs/server.md](server.md) for operations), and `fleet`
starts a sharded multi-worker deployment behind one front door (see
[docs/fleet.md](fleet.md)).  Every invocation names its subcommand:
the pre-1.6 flat-flag spelling (`patchitpy file.py [--patch]`) was
removed in 3.0.
"""


def _flag_cell(action: argparse.Action) -> str:
    if not action.option_strings:  # positional
        return f"`{action.dest}`"
    names = ", ".join(f"`{opt}`" for opt in action.option_strings)
    if action.metavar:
        names += f" `{action.metavar}`"
    elif action.nargs != 0 and not isinstance(
        action, (argparse._StoreTrueAction, argparse._StoreFalseAction)
    ):
        names += f" `{action.dest.upper()}`"
    return names


def _default_cell(action: argparse.Action) -> str:
    if not action.option_strings:
        return "required"
    if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
        return "off"
    if action.default is None:
        return "—"
    if isinstance(action.default, float) and action.default == int(action.default):
        return f"`{int(action.default)}`"
    return f"`{action.default}`"


def _help_cell(action: argparse.Action) -> str:
    text = (action.help or "").replace("|", "\\|")
    return " ".join(text.split())


def render_parser(parser: argparse.ArgumentParser, title: str) -> str:
    lines = [f"## `{parser.prog}`", ""]
    if parser.description:
        lines.append(" ".join(parser.description.split()))
        lines.append("")
    subcommand_actions = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    for action in subcommand_actions:
        lines.append("| Subcommand | Description |")
        lines.append("|---|---|")
        for choice in action._choices_actions:
            lines.append(
                f"| `{parser.prog} {choice.dest}` | {_help_cell(choice)} |"
            )
        lines.append("")
    positionals = [
        a
        for a in parser._actions
        if not a.option_strings
        and not isinstance(a, (argparse._HelpAction, argparse._SubParsersAction))
    ]
    options = [
        a
        for a in parser._actions
        if a.option_strings and not isinstance(a, argparse._HelpAction)
    ]
    if positionals:
        lines.append("| Argument | Description |")
        lines.append("|---|---|")
        for action in positionals:
            lines.append(f"| {_flag_cell(action)} | {_help_cell(action)} |")
        lines.append("")
    if options:
        lines.append("| Option | Default | Description |")
        lines.append("|---|---|---|")
        for action in options:
            lines.append(
                f"| {_flag_cell(action)} | {_default_cell(action)} "
                f"| {_help_cell(action)} |"
            )
        lines.append("")
    if parser.epilog:
        lines.append("> " + " ".join(parser.epilog.split()))
        lines.append("")
    return "\n".join(lines)


def _subparsers(parser: argparse.ArgumentParser):
    """The subcommand name → parser mapping of a subcommand-first parser."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def generate() -> str:
    top = build_parser()
    sections = [HEADER, render_parser(top, "patchitpy")]
    for name, sub in _subparsers(top).items():
        if name in ("serve", "fleet"):
            # these stubs only exist for discoverability; the daemon and
            # the fleet own the real parsers
            continue
        sections.append(render_parser(sub, f"patchitpy {name}"))
    sections.append(render_parser(build_serve_parser(), "patchitpy serve"))
    sections.append(render_parser(build_fleet_parser(), "patchitpy fleet"))
    return "\n".join(sections).rstrip() + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify docs/cli.md matches the parsers instead of rewriting it",
    )
    args = parser.parse_args(argv)
    expected = generate()
    if args.check:
        current = OUTPUT.read_text() if OUTPUT.exists() else ""
        if current != expected:
            print(
                f"{OUTPUT.relative_to(REPO_ROOT)} is stale — regenerate with "
                "'python scripts/gen_cli_docs.py'",
                file=sys.stderr,
            )
            return 1
        print(f"{OUTPUT.relative_to(REPO_ROOT)} is up to date")
        return 0
    OUTPUT.write_text(expected)
    print(f"wrote {OUTPUT.relative_to(REPO_ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
