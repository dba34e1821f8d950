"""Command-line interface: ``patchitpy`` — subcommand-first since 1.6.

The CLI is structured as true subcommands, one per workload::

    patchitpy scan PATH       detect findings in a file or project tree
    patchitpy patch PATH      detect, patch, and verify
    patchitpy review [REVS]   diff-aware review: scan the commit, not the repo
    patchitpy serve           the persistent scan server (repro.server.daemon)
    patchitpy fleet           a sharded scan fleet behind one front door
                              (repro.server.fleet)

``scan`` and ``patch`` mirror the workflow the VS Code extension drives
(§II-B): analyze a file (or a selected line range), report findings, and
optionally apply patches in place or to stdout.  ``review`` takes a
unified diff (stdin/file) or git revisions, scans only the touched
files, and reports only what the change *introduced* (see
:mod:`repro.core.review`).

Each subcommand imports only what it runs: module-level imports name
their defining modules (never a package facade), and review mode, the
SARIF/HTML writers, the metric exporters, the daemon and the fleet are
imported where they are dispatched.

Exit-code contract (documented in ``--help`` and enforced by tests):

- ``0`` — analysis ran and found nothing (for ``review``: the change
  introduced nothing);
- ``1`` — analysis ran and reported findings (``review``: introduced
  findings);
- ``2`` — the tool could not run (bad arguments, unreadable input);
- ``3`` — patching ran but some patches failed verification and were
  reverted (``patch`` / ``review --patch``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.core.engine import PatchitPy
from repro.core.report import format_finding
from repro.core.rules import extended_ruleset
from repro.observability.collector import DEFAULT_SLOW_RULE_BUDGET_MS, ScanMetrics
from repro.observability.provenance import render_explain
from repro.observability.trace import TraceRecorder

EXIT_CODE_CONTRACT = (
    "exit codes: 0 = no findings, 1 = findings reported, 2 = error "
    "(bad arguments or unreadable input), 3 = unverified patches reverted "
    "(patch mode)"
)


# ------------------------------------------------------------ shared flags


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--extended",
        action="store_true",
        help="use the extended rule catalog instead of the paper's 85 rules",
    )


def _add_observability_flags(
    parser: argparse.ArgumentParser, with_budget: bool = True
) -> None:
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print scan statistics: per-rule timing/match/prefilter-skip "
        "counts, cache hit rate, and the slowest rules",
    )
    parser.add_argument(
        "--metrics",
        metavar="FILE",
        help="export the metrics snapshot to FILE (Prometheus text format "
        "for .prom/.txt suffixes, JSON otherwise)",
    )
    parser.add_argument(
        "--top-rules",
        type=int,
        default=10,
        metavar="N",
        help="with --stats, size of the top-rules-by-time section (default 10)",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help="write a structured JSONL scan trace to FILE (one span event "
        "per line: scan, file, rule, guard-decision, patch-render, "
        "cache-lookup)",
    )
    if with_budget:
        parser.add_argument(
            "--slow-rule-budget-ms",
            type=float,
            default=DEFAULT_SLOW_RULE_BUDGET_MS,
            metavar="MS",
            help="directory mode with --stats/--metrics: flag rules spending "
            "more than MS milliseconds on a single file in the rule-health "
            f"section (default {DEFAULT_SLOW_RULE_BUDGET_MS:g}; 0 disables)",
        )


def _add_analysis_flags(parser: argparse.ArgumentParser) -> None:
    """Flags shared by the ``scan`` and ``patch`` subcommands."""
    parser.add_argument(
        "path", type=Path, help="Python file or project directory to analyze"
    )
    parser.add_argument(
        "--lines",
        metavar="START:END",
        help="restrict analysis to a 1-based inclusive line range (selection mode)",
    )
    parser.add_argument(
        "--html",
        metavar="FILE",
        help="directory mode: also write a standalone HTML report to FILE",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (text findings, plain JSON, or SARIF 2.1.0)",
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        metavar="N",
        help="directory mode: analyze files on N worker processes (default 1)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="directory mode: disable the persistent scan result cache",
    )
    parser.add_argument(
        "--clear-cache",
        action="store_true",
        help="directory mode: delete the persistent cache before scanning",
    )
    parser.add_argument(
        "--explain",
        action="store_true",
        help="print each finding's provenance: prefilter, prerequisite and "
        "guard verdicts plus the rendered patch",
    )
    _add_engine_flags(parser)
    _add_observability_flags(parser)


# ------------------------------------------------------------- the parser


def build_parser() -> argparse.ArgumentParser:
    """Construct the subcommand-first patchitpy argument parser.

    ``serve`` and ``fleet`` are listed for discoverability but dispatched
    to :func:`repro.server.daemon.main` / :func:`repro.server.fleet.main`
    before this parser runs (each owns its own parser,
    ``build_serve_parser`` / ``build_fleet_parser``).
    """
    parser = argparse.ArgumentParser(
        prog="patchitpy",
        description="Pattern-based vulnerability detection and patching for Python.",
        epilog=EXIT_CODE_CONTRACT,
    )
    subparsers = parser.add_subparsers(
        dest="command",
        metavar="{scan,patch,review,serve,fleet}",
        title="subcommands",
        required=True,
    )

    scan = subparsers.add_parser(
        "scan",
        help="detect vulnerable patterns in a file or project tree",
        description="Detect vulnerable patterns in a Python file or project "
        "directory and report the findings.",
        epilog=EXIT_CODE_CONTRACT,
    )
    _add_analysis_flags(scan)
    scan.set_defaults(patch=False, in_place=False)

    patch = subparsers.add_parser(
        "patch",
        help="detect, patch, and verify a file or project tree",
        description="Detect vulnerable patterns, apply safe patches (printed "
        "to stdout, or rewritten in place with --in-place), and verify every "
        "patch before it ships.",
        epilog=EXIT_CODE_CONTRACT,
    )
    _add_analysis_flags(patch)
    patch.add_argument(
        "--in-place",
        action="store_true",
        help="rewrite the file(s) instead of printing the patched text "
        "(rejected when combined with --lines)",
    )
    patch.set_defaults(patch=True)

    review_cmd = subparsers.add_parser(
        "review",
        help="diff-aware review: scan the commit, not the repo",
        description="Scan only what a change touched and report only the "
        "findings it *introduced*: findings whose content-hash identity "
        "already existed at the base revision are suppressed as "
        "pre-existing, and baseline findings the change removed are "
        "counted as fixed.  Takes git revisions ('BASE..HEAD', or 'BASE' "
        "to review the worktree against it) or a unified diff "
        "(--diff FILE, '-' for stdin).",
        epilog="exit codes: 0 = nothing introduced, 1 = introduced findings "
        "reported, 2 = error, 3 = unverified patches reverted (--patch)",
    )
    review_cmd.add_argument(
        "revisions",
        nargs="?",
        metavar="REVS",
        help="git revisions to review: 'BASE..HEAD' compares two commits, "
        "a single 'BASE' reviews the worktree against it "
        "(e.g. HEAD~1..HEAD, or HEAD for uncommitted changes)",
    )
    review_cmd.add_argument(
        "--diff",
        metavar="FILE",
        help="read a unified diff against the worktree from FILE "
        "('-' reads stdin); no git required",
    )
    review_cmd.add_argument(
        "--root",
        type=Path,
        default=Path("."),
        metavar="DIR",
        help="repository root the diff/revisions apply to (default: .)",
    )
    review_cmd.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format; sarif output carries baselineState and is "
        "PR-annotation-ready",
    )
    review_cmd.add_argument(
        "--include-preexisting",
        action="store_true",
        help="also report pre-existing and fixed findings "
        "(suppressed by default: the change did not cause them)",
    )
    review_cmd.add_argument(
        "--patch",
        action="store_true",
        help="patch (and verify) only the introduced findings and print "
        "each patched file to stdout",
    )
    review_cmd.add_argument(
        "--in-place",
        action="store_true",
        help="with --patch, rewrite the touched files instead of printing "
        "(only when the review's head side is the worktree)",
    )
    review_cmd.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent scan result cache (a warm cache is "
        "what makes reviews millisecond-fast)",
    )
    _add_engine_flags(review_cmd)
    _add_observability_flags(review_cmd, with_budget=False)

    subparsers.add_parser(
        "serve",
        help="start the persistent scan server (patchitpy serve --help)",
        add_help=False,
    )
    subparsers.add_parser(
        "fleet",
        help="start a sharded scan fleet behind one front door "
        "(patchitpy fleet --help)",
        add_help=False,
    )
    return parser


def _validate(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Reject silently-ignored flag combinations (exit code 2)."""
    if args.in_place and args.lines:
        parser.error("--in-place cannot be combined with --lines "
                     "(a partial rewrite would corrupt the file)")


def _select_lines(source: str, spec: str) -> str:
    start_text, _, end_text = spec.partition(":")
    try:
        start = int(start_text)
        end = int(end_text) if end_text else start
    except ValueError:
        raise SystemExit(f"invalid --lines value: {spec!r}")
    lines = source.splitlines(keepends=True)
    if not (1 <= start <= end <= len(lines)):
        raise SystemExit(f"--lines {spec} out of range (file has {len(lines)} lines)")
    return "".join(lines[start - 1 : end])


def _wants_metrics(args: argparse.Namespace) -> bool:
    return bool(args.stats or args.metrics)


def _emit_metrics(args: argparse.Namespace, metrics: Optional[ScanMetrics]) -> None:
    """Print the --stats summary and/or write the --metrics export."""
    if metrics is None:
        return
    from repro.observability.exporters import dumps_json, format_stats, to_prometheus

    if args.stats:
        print(format_stats(metrics, top=max(1, args.top_rules)))
    if args.metrics:
        target = Path(args.metrics)
        if target.suffix in (".prom", ".txt"):
            payload = to_prometheus(metrics)
        else:
            payload = dumps_json(metrics)
        target.write_text(payload if payload.endswith("\n") else payload + "\n")
        print(f"metrics written to {target}")


def _emit_trace(args: argparse.Namespace, tracer: Optional[TraceRecorder]) -> None:
    """Write the --trace JSONL file when tracing was requested."""
    if tracer is None or not args.trace:
        return
    target = tracer.write_jsonl(Path(args.trace))
    print(f"trace written to {target} ({len(tracer.events)} event(s))")


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] == "serve":
        from repro.server.daemon import main as serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "fleet":
        from repro.server.fleet import main as fleet_main

        return fleet_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "review":
        return _run_review(parser, args)
    _validate(parser, args)

    if args.path.is_dir():
        return _scan_directory(args)

    try:
        source = args.path.read_text()
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    analyzed = _select_lines(source, args.lines) if args.lines else source
    collector = ScanMetrics() if _wants_metrics(args) else None
    tracer = TraceRecorder() if args.trace else None
    engine = PatchitPy(
        rules=extended_ruleset() if args.extended else None,
        metrics=collector,
    )
    if tracer is not None:
        findings = engine.detect(analyzed, trace=tracer)
    else:
        findings = engine.detect(analyzed)
    if args.explain or args.format != "text":
        # Findings from the untraced fast path carry no provenance;
        # reconstruct it so --explain and the JSON/SARIF exports are
        # complete either way.
        findings = engine._ensure_provenance(analyzed, findings)

    if args.format != "text":
        from repro.core.sarif import dumps_plain, dumps_sarif
        from repro.types import AnalysisReport

        report = AnalysisReport(tool="patchitpy", source=analyzed, findings=findings)
        # In patch mode the export carries the verifier's rulings too
        # (patch_verdicts / invocation patchVerdicts), and a reverted
        # patch still drives exit code 3.
        result = (
            engine.patch(analyzed, findings, trace=tracer)
            if args.patch and findings
            else None
        )
        if result is not None:
            report.verdicts = result.verdicts
        if args.format == "sarif":
            print(dumps_sarif(report, artifact_uri=str(args.path), metrics=collector))
        else:
            print(dumps_plain(report, artifact_uri=str(args.path)))
        _emit_metrics(args, collector)
        _emit_trace(args, tracer)
        if result is not None:
            return _report_verdicts(result.verdicts)
        return 1 if findings else 0

    if not findings:
        print("no vulnerable patterns detected")
        _emit_metrics(args, collector)
        _emit_trace(args, tracer)
        return 0

    # Patch before printing findings: the verifier's verdict is recorded
    # into each finding's provenance, so --explain can show it.
    result = engine.patch(analyzed, findings, trace=tracer) if args.patch else None

    for finding in findings:
        print(format_finding(finding, analyzed))
        if args.explain:
            print(render_explain(finding))

    exit_code = 1
    if result is not None:
        if args.in_place:
            args.path.write_text(result.patched)
            print(f"patched {len(result.applied)} finding(s) in {args.path}")
        else:
            print("--- patched ---")
            print(result.patched, end="")
        if result.unpatchable:
            print(
                f"note: {len(result.unpatchable)} finding(s) have no automated patch",
                file=sys.stderr,
            )
        exit_code = _report_verdicts(result.verdicts)
    _emit_metrics(args, collector)
    _emit_trace(args, tracer)
    return exit_code


def _report_verdicts(verdicts: list) -> int:
    """Print the verifier's rulings; exit 3 when any patch was rejected."""
    unverified = [v for v in verdicts if not v.ok]
    if verdicts:
        verified = len(verdicts) - len(unverified)
        print(
            f"verification: {verified}/{len(verdicts)} patch(es) verified",
            file=sys.stderr,
        )
    for verdict in unverified:
        action = "reverted" if verdict.reverted else "rejected"
        print(
            f"  [{verdict.status}] {verdict.rule_id} {action}: {verdict.detail}",
            file=sys.stderr,
        )
    return 3 if unverified else 1


def _scan_directory(args: argparse.Namespace) -> int:
    """Project mode: scan (and optionally patch) a whole tree.

    Uses the persistent result cache by default (``--no-cache`` opts out;
    ``--clear-cache`` wipes it first) and fans the analysis out over
    ``--jobs`` worker processes.  ``--stats``/``--metrics`` enable the
    observability collector for the scan.
    """
    from repro.core.cache import ScanCache
    from repro.core.project import ProjectScanner

    if args.clear_cache:
        ScanCache.clear(args.path)
    use_cache = not args.no_cache
    jobs = max(1, args.jobs)
    collector = ScanMetrics() if _wants_metrics(args) else None
    tracer = TraceRecorder() if args.trace else None
    budget = args.slow_rule_budget_ms if args.slow_rule_budget_ms > 0 else None
    engine = PatchitPy(rules=extended_ruleset() if args.extended else None)
    scanner = ProjectScanner(
        engine=engine, metrics=collector, trace=tracer, slow_rule_budget_ms=budget
    )
    unverified = 0
    if args.patch and args.in_place:
        report = scanner.patch_tree(args.path, use_cache=use_cache)
        print(report.summary())
        patched = [f for f in report.files if f.patched]
        print(f"patched {len(patched)} file(s) in place (.orig backups written)")
        unverified = report.unverified_patches
        for result in report.files:
            for verdict in result.verdicts:
                if not verdict.ok:
                    print(
                        f"  {result.path}: [{verdict.status}] {verdict.rule_id} "
                        f"reverted: {verdict.detail}",
                        file=sys.stderr,
                    )
    else:
        report = scanner.scan(
            args.path, jobs=jobs, processes=jobs > 1, use_cache=use_cache
        )
        print(report.summary())
        for result in report.vulnerable_files:
            print(f"\n{result.path}:")
            try:
                source = result.path.read_text()
            except (OSError, UnicodeDecodeError):
                # the file vanished or changed since the scan; report the
                # findings without line positions rather than crashing
                for finding in result.findings:
                    print(f"  [{finding.cwe_id} {finding.rule_id}] {finding.message}")
                continue
            for finding in result.findings:
                print("  " + format_finding(finding, source))
                if args.explain:
                    # cache hits persisted their provenance; anything
                    # without one is reconstructed from the source
                    print(engine.explain(source, finding))
    if args.html:
        from repro.core.htmlreport import write_html_report

        write_html_report(report, args.html)
        print(f"HTML report written to {args.html}")
    _emit_metrics(args, report.metrics if report.metrics is not None else collector)
    _emit_trace(args, tracer)
    if unverified:
        return 3
    return 1 if report.vulnerable_files else 0


# ------------------------------------------------------------ review mode


def _run_review(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """The ``patchitpy review`` subcommand (see :mod:`repro.core.review`)."""
    from repro.core.review import ReviewError, patch_introduced, review

    if args.diff and args.revisions:
        parser.error("pass either git revisions or --diff, not both")
    if not args.diff and not args.revisions:
        parser.error("review needs git revisions ('BASE..HEAD' or 'BASE') "
                     "or a unified diff (--diff FILE, '-' for stdin)")
    if args.in_place and not args.patch:
        parser.error("--in-place requires --patch")

    diff_text: Optional[str] = None
    base = head = None
    if args.diff:
        if args.diff == "-":
            diff_text = sys.stdin.read()
        else:
            try:
                diff_text = Path(args.diff).read_text()
            except OSError as error:
                print(f"error: {error}", file=sys.stderr)
                return 2
    else:
        base, sep, head = args.revisions.partition("..")
        head = head or None if sep else None
        if not base:
            parser.error(f"invalid revisions spec: {args.revisions!r}")
    if args.in_place and head is not None:
        parser.error("--in-place needs the review's head side to be the "
                     "worktree (a single 'BASE' revision or --diff)")

    collector = ScanMetrics() if _wants_metrics(args) else None
    tracer = TraceRecorder() if args.trace else None
    engine = PatchitPy(rules=extended_ruleset() if args.extended else None)
    try:
        report = review(
            args.root,
            base=base,
            head=head,
            diff_text=diff_text,
            engine=engine,
            use_cache=not args.no_cache,
            metrics=collector,
            trace=tracer,
        )
    except ReviewError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.format == "sarif":
        from repro.core.sarif import dumps_review_sarif

        print(
            dumps_review_sarif(
                report,
                include_preexisting=args.include_preexisting,
                metrics=collector,
            )
        )
    elif args.format == "json":
        import json

        payload = report.to_dict()
        if not args.include_preexisting:
            payload["findings"] = [
                item
                for item in payload["findings"]
                if item["status"] != "pre-existing"
            ]
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        _print_review_text(report, include_preexisting=args.include_preexisting)

    exit_code = 1 if report.introduced else 0
    if args.patch and report.introduced:
        try:
            results = patch_introduced(report, engine)
        except ReviewError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        verdicts: list = []
        for path, result in sorted(results.items()):
            verdicts.extend(result.verdicts)
            if args.in_place:
                target = Path(report.root) / path
                target.write_text(result.patched)
                print(f"patched {len(result.applied)} finding(s) in {target}")
            else:
                print(f"--- patched: {path} ---")
                print(result.patched, end="")
        exit_code = _report_verdicts(verdicts)
    _emit_metrics(args, collector)
    _emit_trace(args, tracer)
    return exit_code


def _print_review_text(report, include_preexisting: bool = False) -> None:
    """Human-readable review rendering for the terminal."""
    print(report.summary())
    for item in report.introduced:
        print(
            f"  + {item.path}:{item.line} [{item.finding.cwe_id} "
            f"{item.finding.rule_id}] {item.finding.message}"
        )
    if include_preexisting:
        for item in report.pre_existing:
            print(
                f"  = {item.path}:{item.line} [{item.finding.cwe_id} "
                f"{item.finding.rule_id}] {item.finding.message} (pre-existing)"
            )
        for item in report.fixed:
            print(
                f"  - {item.path}:{item.line} [{item.finding.cwe_id} "
                f"{item.finding.rule_id}] {item.finding.message} (fixed)"
            )
    for reviewed in report.files:
        if reviewed.error:
            print(f"  ! {reviewed.path}: {reviewed.error}", file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
