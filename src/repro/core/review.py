"""Diff-aware review: scan the commit, not the repo.

The highest-traffic workload for a production scanner is pre-commit /
PR-time review, where the latency budget is sub-second and only what the
*change* introduced matters — most findings in a mature tree are
pre-existing, and a review bot that repeats them on every commit is
noise.  This module composes two existing primitives into that mode:

- **content-hash finding identity** (:func:`repro.core.verify.finding_key`,
  PR 6) — a finding keeps its identity when code inserted above it shifts
  its offsets, so baseline suppression survives unrelated edits;
- **the SHA-256 scan cache** (:class:`repro.core.cache.ScanCache`, PR 1)
  — both sides of a review are served per content digest, so a repo whose
  baseline scan is warm reviews in milliseconds.

A review takes a unified diff (stdin/file, reverse-applied to the
worktree to reconstruct the baseline) or two git revisions, computes the
touched line ranges per file, scans only the touched files — baseline
and head side — and classifies every finding:

``introduced``
    Present at the head, absent from the baseline (by finding identity).
    These are the findings a review reports.
``pre-existing``
    The same ``finding_key`` already existed at the base revision.
    Suppressed by default: the change did not cause them.
``fixed``
    A baseline finding whose identity is gone at the head.

The result is a :class:`ReviewReport` carrying per-hunk attribution; it
renders to PR-annotation-ready SARIF via
:func:`repro.core.sarif.review_to_sarif` (results pinned to new-side
line numbers, ``baselineState`` set) and serializes through
``to_dict``/``from_dict`` so it survives the server JSON boundary.

This module is review *orchestration* — like :mod:`repro.core.project`
it may import the observability layer, but it must never be imported by
the hot detect path (``matching.py`` / ``candidates.py``);
``scripts/check_hot_path_isolation.py`` enforces that.
"""

from __future__ import annotations

import re
import subprocess
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.cache import ScanCache, hash_source
from repro.core.engine import PatchitPy, PatchResult, detect_with
from repro.core.verify import finding_key
from repro.exceptions import ReproError
from repro.observability.collector import NULL_METRICS, ScanMetrics, clock
from repro.observability.trace import NULL_TRACE, TraceRecorder
from repro.types import Finding, LineIndex

__all__ = [
    "FileDiff",
    "Hunk",
    "ReviewError",
    "ReviewFinding",
    "ReviewReport",
    "ReviewedFile",
    "STATUS_FIXED",
    "STATUS_INTRODUCED",
    "STATUS_PRE_EXISTING",
    "REVIEW_STATUSES",
    "parse_unified_diff",
    "patch_introduced",
    "reverse_apply",
    "review",
]

STATUS_INTRODUCED = "introduced"
STATUS_PRE_EXISTING = "pre-existing"
STATUS_FIXED = "fixed"

#: The closed classification taxonomy of a review.
REVIEW_STATUSES = (STATUS_INTRODUCED, STATUS_PRE_EXISTING, STATUS_FIXED)

#: SARIF 2.1.0 ``baselineState`` value per review status.
SARIF_BASELINE_STATES = {
    STATUS_INTRODUCED: "new",
    STATUS_PRE_EXISTING: "unchanged",
    STATUS_FIXED: "absent",
}


class ReviewError(ReproError):
    """A review could not run (bad diff, unknown revision, no git repo)."""


# ------------------------------------------------------------ diff parsing


@dataclass
class Hunk:
    """One ``@@`` hunk: line coordinates plus both sides' body lines.

    ``old_start``/``new_start`` are 1-based as printed in the hunk header;
    a zero count means the hunk touches no line on that side (pure
    insertion or deletion) and the start names the line *after which* the
    change sits.  Body lines keep their trailing newline, so
    :func:`reverse_apply` can splice them back verbatim.
    """

    old_start: int
    old_count: int
    new_start: int
    new_count: int
    old_lines: List[str] = field(default_factory=list)
    new_lines: List[str] = field(default_factory=list)

    @property
    def new_range(self) -> Tuple[int, int]:
        """Inclusive 1-based new-side line range the hunk covers."""
        if self.new_count == 0:
            return (self.new_start, self.new_start)
        return (self.new_start, self.new_start + self.new_count - 1)

    @property
    def old_range(self) -> Tuple[int, int]:
        """Inclusive 1-based old-side line range the hunk covers."""
        if self.old_count == 0:
            return (self.old_start, self.old_start)
        return (self.old_start, self.old_start + self.old_count - 1)


@dataclass
class FileDiff:
    """All hunks touching one file.  ``None`` paths mean added/deleted."""

    old_path: Optional[str]
    new_path: Optional[str]
    hunks: List[Hunk] = field(default_factory=list)
    binary: bool = False

    @property
    def path(self) -> str:
        """The display path: new side when present, else the old side."""
        return self.new_path or self.old_path or "<unknown>"

    @property
    def change(self) -> str:
        """``added`` / ``deleted`` / ``renamed`` / ``modified``."""
        if self.old_path is None:
            return "added"
        if self.new_path is None:
            return "deleted"
        if self.old_path != self.new_path:
            return "renamed"
        return "modified"

    @property
    def new_ranges(self) -> List[Tuple[int, int]]:
        """New-side inclusive line ranges, one per hunk."""
        return [hunk.new_range for hunk in self.hunks]


_HUNK_RE = re.compile(r"^@@ -(\d+)(?:,(\d+))? \+(\d+)(?:,(\d+))? @@")


def _clean_diff_path(raw: str) -> Optional[str]:
    """Normalize a ``---``/``+++`` header path (strip prefix/timestamp)."""
    text = raw.rstrip("\n")
    # git quotes paths with special characters; tabs separate timestamps
    # in POSIX diffs.  Either way the path is the first field.
    text = text.split("\t", 1)[0].strip()
    if text.startswith('"') and text.endswith('"') and len(text) >= 2:
        text = text[1:-1]
    if text == "/dev/null":
        return None
    if text.startswith(("a/", "b/")):
        text = text[2:]
    return text or None


def parse_unified_diff(text: str) -> List[FileDiff]:
    """Parse a unified diff into per-file hunk lists.

    Accepts both ``git diff`` output (``diff --git`` headers, ``a/``/
    ``b/`` prefixes, rename and binary markers) and plain ``diff -u``
    output.  Raises :class:`ReviewError` when a hunk body line cannot be
    attributed (a malformed or truncated diff).
    """
    files: List[FileDiff] = []
    current: Optional[FileDiff] = None
    hunk: Optional[Hunk] = None
    pending_old: Optional[str] = None
    saw_old_header = False
    remaining_old = remaining_new = 0
    # which side(s) the previous body line landed on, for the
    # "\ No newline at end of file" marker
    last_sides: Tuple[List[str], ...] = ()

    for line in text.splitlines(keepends=True):
        if hunk is not None and remaining_old <= 0 and remaining_new <= 0:
            # the hunk's counted lines are consumed; only a no-newline
            # marker may still belong to it
            if not line.startswith("\\"):
                hunk = None
        if line.startswith("diff "):
            current = None
            hunk = None
            pending_old = None
            saw_old_header = False
            continue
        if line.startswith("Binary files ") and files:
            files[-1].binary = True
            continue
        if line.startswith("--- ") and hunk is None:
            pending_old = _clean_diff_path(line[4:])
            saw_old_header = True
            continue
        if line.startswith("+++ ") and saw_old_header:
            current = FileDiff(old_path=pending_old, new_path=_clean_diff_path(line[4:]))
            files.append(current)
            hunk = None
            pending_old = None
            saw_old_header = False
            continue
        match = _HUNK_RE.match(line)
        if match and current is not None:
            hunk = Hunk(
                old_start=int(match.group(1)),
                old_count=int(match.group(2)) if match.group(2) is not None else 1,
                new_start=int(match.group(3)),
                new_count=int(match.group(4)) if match.group(4) is not None else 1,
            )
            current.hunks.append(hunk)
            remaining_old = hunk.old_count
            remaining_new = hunk.new_count
            last_sides = ()
            continue
        if hunk is None or current is None:
            continue  # header noise between files (index lines, modes)
        if line.startswith("\\"):
            # "\ No newline at end of file": the previous body line has
            # no trailing newline on whichever side(s) it landed.
            for side in last_sides:
                if side and side[-1].endswith("\n"):
                    side[-1] = side[-1][:-1]
            continue
        if line.startswith("-"):
            hunk.old_lines.append(line[1:])
            remaining_old -= 1
            last_sides = (hunk.old_lines,)
        elif line.startswith("+"):
            hunk.new_lines.append(line[1:])
            remaining_new -= 1
            last_sides = (hunk.new_lines,)
        elif line.startswith(" ") or line in ("\n", "\r\n"):
            body = line[1:] if line.startswith(" ") else line
            hunk.old_lines.append(body)
            hunk.new_lines.append(body)
            remaining_old -= 1
            remaining_new -= 1
            last_sides = (hunk.old_lines, hunk.new_lines)
        else:
            # A non-prefixed line while inside a hunk: the hunk is over
            # (some diffs omit trailing context); treat as inter-file noise.
            hunk = None
    return files


def reverse_apply(new_text: str, hunks: Sequence[Hunk]) -> str:
    """Reconstruct the baseline text by reverse-applying ``hunks``.

    This is how pure-diff reviews (no git, just a patch on stdin) obtain
    the baseline to scan: each hunk's new-side region in ``new_text`` is
    replaced by its old-side lines.  Raises :class:`ReviewError` when a
    hunk's new-side lines do not match ``new_text`` — the diff does not
    belong to this file content.
    """
    new_lines = new_text.splitlines(keepends=True)
    out: List[str] = []
    cursor = 0
    for hunk in sorted(hunks, key=lambda h: h.new_start):
        # a zero-count new side names the line *after which* the removed
        # text sat, so the splice point is after that line
        start = hunk.new_start - 1 if hunk.new_count else hunk.new_start
        if start < cursor or start > len(new_lines):
            raise ReviewError(
                f"hunk @@ +{hunk.new_start},{hunk.new_count} @@ is out of "
                f"order or beyond the file ({len(new_lines)} lines)"
            )
        region = new_lines[start : start + hunk.new_count]
        if region != hunk.new_lines:
            raise ReviewError(
                f"hunk @@ +{hunk.new_start},{hunk.new_count} @@ does not "
                "match the file content — the diff was not produced from "
                "this version"
            )
        out.extend(new_lines[cursor:start])
        out.extend(hunk.old_lines)
        cursor = start + hunk.new_count
    out.extend(new_lines[cursor:])
    return "".join(out)


# ------------------------------------------------------------- git plumbing


def _git(root: Path, *args: str) -> str:
    try:
        result = subprocess.run(
            ["git", "-C", str(root), *args],
            capture_output=True,
            text=True,
        )
    except OSError as error:
        raise ReviewError(f"cannot run git: {error}")
    if result.returncode != 0:
        command = "git " + " ".join(args)
        raise ReviewError(f"{command} failed: {result.stderr.strip()}")
    return result.stdout


def _git_toplevel(root: Path) -> Path:
    return Path(_git(root, "rev-parse", "--show-toplevel").strip())


def _git_show(root: Path, revision: str, path: str) -> Optional[str]:
    """File content at a revision, or ``None`` when absent there."""
    try:
        result = subprocess.run(
            ["git", "-C", str(root), "show", f"{revision}:{path}"],
            capture_output=True,
        )
    except OSError as error:
        raise ReviewError(f"cannot run git: {error}")
    if result.returncode != 0:
        return None
    try:
        return result.stdout.decode("utf-8")
    except UnicodeDecodeError:
        return None


# ----------------------------------------------------------------- results


@dataclass
class ReviewFinding:
    """One classified finding of a review.

    ``finding`` is anchored to the side it was detected on: the head
    source for ``introduced``/``pre-existing``, the baseline source for
    ``fixed``.  ``line`` is the 1-based line on that side (the new side
    for everything a PR annotation shows); ``hunk`` is the new-side line
    range of the hunk the finding falls inside, when one does.
    """

    path: str
    status: str
    finding: Finding
    line: int
    key: str
    hunk: Optional[Tuple[int, int]] = None

    def to_dict(self) -> dict:
        data = {
            "path": self.path,
            "status": self.status,
            "finding": self.finding.to_dict(),
            "line": self.line,
            "key": self.key,
        }
        if self.hunk is not None:
            data["hunk"] = [self.hunk[0], self.hunk[1]]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ReviewFinding":
        raw_hunk = data.get("hunk")
        return cls(
            path=str(data["path"]),
            status=str(data["status"]),
            finding=Finding.from_dict(data["finding"]),
            line=int(data["line"]),
            key=str(data.get("key", "")),
            hunk=(int(raw_hunk[0]), int(raw_hunk[1])) if raw_hunk else None,
        )


@dataclass
class ReviewedFile:
    """One touched file of a review: what changed and what was scanned."""

    path: str
    change: str  # added / deleted / renamed / modified
    hunks: List[Tuple[int, int]] = field(default_factory=list)
    error: Optional[str] = None
    from_cache: bool = False  # both scanned sides were cache hits

    def to_dict(self) -> dict:
        data: dict = {
            "path": self.path,
            "change": self.change,
            "hunks": [[start, end] for start, end in self.hunks],
            "from_cache": self.from_cache,
        }
        if self.error is not None:
            data["error"] = self.error
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ReviewedFile":
        return cls(
            path=str(data["path"]),
            change=str(data.get("change", "modified")),
            hunks=[(int(s), int(e)) for s, e in data.get("hunks", ())],
            error=data.get("error"),
            from_cache=bool(data.get("from_cache", False)),
        )


@dataclass
class ReviewReport:
    """Outcome of one diff-aware review.

    ``findings`` carries *every* classified finding — introduced,
    pre-existing and fixed; renderers suppress the pre-existing ones by
    default.  ``sources`` keeps the ``(baseline, head)`` text of each
    reviewed file for this process only (it is deliberately not
    serialized — :func:`patch_introduced` needs it, the JSON boundary
    does not).
    """

    root: str
    base: str
    head: str
    files: List[ReviewedFile] = field(default_factory=list)
    findings: List[ReviewFinding] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    metrics: Optional[ScanMetrics] = None
    sources: Dict[str, Tuple[Optional[str], Optional[str]]] = field(
        default_factory=dict, repr=False
    )

    @property
    def introduced(self) -> List[ReviewFinding]:
        """Findings the change introduced — what a review reports."""
        return [f for f in self.findings if f.status == STATUS_INTRODUCED]

    @property
    def pre_existing(self) -> List[ReviewFinding]:
        """Baseline findings still present — suppressed by default."""
        return [f for f in self.findings if f.status == STATUS_PRE_EXISTING]

    @property
    def fixed(self) -> List[ReviewFinding]:
        """Baseline findings the change removed."""
        return [f for f in self.findings if f.status == STATUS_FIXED]

    @property
    def clean(self) -> bool:
        """True when the change introduced nothing."""
        return not self.introduced

    def counts(self) -> Dict[str, int]:
        """Status -> finding count, in taxonomy order."""
        counter = Counter(f.status for f in self.findings)
        return {status: counter.get(status, 0) for status in REVIEW_STATUSES}

    def summary(self) -> str:
        """Multi-line plain-text review summary."""
        counts = self.counts()
        lines = [
            f"reviewed {len(self.files)} changed file(s) "
            f"({self.base} -> {self.head}) under {self.root}",
            f"introduced: {counts[STATUS_INTRODUCED]}; "
            f"pre-existing (suppressed): {counts[STATUS_PRE_EXISTING]}; "
            f"fixed: {counts[STATUS_FIXED]}",
        ]
        errors = [f for f in self.files if f.error]
        if errors:
            lines.append(f"unreadable files: {len(errors)}")
        if self.cache_hits or self.cache_misses:
            lines.append(
                f"cache: {self.cache_hits} hit(s), {self.cache_misses} miss(es)"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON shape the server returns and the CLI ``--format json`` prints.

        Round-trips through :meth:`from_dict`; ``sources`` and ``metrics``
        stay process-local (metrics travel through their own exporters).
        """
        return {
            "root": self.root,
            "base": self.base,
            "head": self.head,
            "files": [f.to_dict() for f in self.files],
            "findings": [f.to_dict() for f in self.findings],
            "counts": self.counts(),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ReviewReport":
        """Inverse of :meth:`to_dict` (raises on malformed input)."""
        return cls(
            root=str(data.get("root", ".")),
            base=str(data.get("base", "")),
            head=str(data.get("head", "")),
            files=[ReviewedFile.from_dict(item) for item in data.get("files", ())],
            findings=[
                ReviewFinding.from_dict(item) for item in data.get("findings", ())
            ],
            cache_hits=int(data.get("cache_hits", 0)),
            cache_misses=int(data.get("cache_misses", 0)),
        )


# -------------------------------------------------------------- the review


def _is_python(path: Optional[str]) -> bool:
    return path is not None and path.endswith(".py")


def _attribute_hunk(
    line: int, ranges: Sequence[Tuple[int, int]]
) -> Optional[Tuple[int, int]]:
    for start, end in ranges:
        if start <= line <= end:
            return (start, end)
    return None


class _Reviewer:
    """One review run: holds the engine, cache, and observability handles."""

    def __init__(
        self,
        engine: PatchitPy,
        cache: Optional[ScanCache],
        metrics: ScanMetrics,
        trace: TraceRecorder,
    ) -> None:
        self.engine = engine
        self.cache = cache
        self.metrics = metrics
        self.trace = trace

    def _scan_side(self, source: Optional[str]) -> Tuple[List[Finding], bool]:
        """Findings for one side of a file; ``(findings, from_cache)``.

        Served from the scan cache by content digest when possible — this
        is what makes a warm-baseline review cost hashes, not detects.
        """
        if source is None:
            return [], True
        digest = hash_source(source) if self.cache is not None else ""
        if self.cache is not None:
            entry = self.cache.lookup(digest)
            if entry is not None and entry.error is None:
                return list(entry.findings), True
        findings = detect_with(self.engine, source, self.metrics, self.trace)
        if self.cache is not None:
            self.cache.store(digest, findings)
        return findings, False

    def review_file(
        self,
        diff: FileDiff,
        old_source: Optional[str],
        new_source: Optional[str],
    ) -> Tuple[ReviewedFile, List[ReviewFinding]]:
        """Scan both sides of one file and classify every finding."""
        reviewed = ReviewedFile(
            path=diff.path, change=diff.change, hunks=diff.new_ranges
        )
        base_findings, base_cached = self._scan_side(old_source)
        head_findings, head_cached = self._scan_side(new_source)
        reviewed.from_cache = base_cached and head_cached

        base_keys = [finding_key(old_source or "", f) for f in base_findings]
        head_keys = [finding_key(new_source or "", f) for f in head_findings]
        classified: List[ReviewFinding] = []

        # Head side: a finding whose identity existed at the baseline is
        # pre-existing; identity counts are consumed so N+1 occurrences of
        # the same text against N baseline ones leave exactly one introduced.
        remaining = Counter(base_keys)
        head_lines = LineIndex(new_source or "")
        for finding, key in zip(head_findings, head_keys):
            if remaining.get(key, 0) > 0:
                remaining[key] -= 1
                status = STATUS_PRE_EXISTING
            else:
                status = STATUS_INTRODUCED
            line = head_lines.line_of(min(finding.span.start, len(new_source or "")))
            classified.append(
                ReviewFinding(
                    path=diff.path,
                    status=status,
                    finding=finding,
                    line=line,
                    key=key,
                    hunk=_attribute_hunk(line, reviewed.hunks),
                )
            )

        # Baseline side: identities with no surviving head occurrence are
        # fixed (anchored to the old source; no new-side line exists).
        available = Counter(head_keys)
        base_lines = LineIndex(old_source or "")
        for finding, key in zip(base_findings, base_keys):
            if available.get(key, 0) > 0:
                available[key] -= 1
                continue
            line = base_lines.line_of(min(finding.span.start, len(old_source or "")))
            classified.append(
                ReviewFinding(
                    path=diff.path,
                    status=STATUS_FIXED,
                    finding=finding,
                    line=line,
                    key=key,
                    hunk=_attribute_hunk(
                        line, [hunk.old_range for hunk in diff.hunks]
                    ),
                )
            )
        if self.trace.enabled:
            statuses = Counter(f.status for f in classified)
            self.trace.event(
                "review-file",
                diff.path,
                change=diff.change,
                introduced=statuses.get(STATUS_INTRODUCED, 0),
                pre_existing=statuses.get(STATUS_PRE_EXISTING, 0),
                fixed=statuses.get(STATUS_FIXED, 0),
                from_cache=reviewed.from_cache,
            )
        return reviewed, classified


def review(
    root: Path = Path("."),
    *,
    base: Optional[str] = None,
    head: Optional[str] = None,
    diff_text: Optional[str] = None,
    engine: Optional[PatchitPy] = None,
    use_cache: bool = True,
    cache: Optional[ScanCache] = None,
    metrics: Optional[ScanMetrics] = None,
    trace: Optional[TraceRecorder] = None,
) -> ReviewReport:
    """Review a change: scan only touched files, report only what it adds.

    Exactly one input mode must be selected:

    - ``diff_text`` — a unified diff against the current worktree under
      ``root``; the baseline is reconstructed by reverse-applying each
      file's hunks, so no version control is needed at all.
    - ``base`` (optionally with ``head``) — git revisions.  With ``head``
      omitted the head side is the worktree, i.e. ``patchitpy review
      HEAD`` answers "what would this commit add?".

    Both sides of every touched ``.py`` file are scanned through the
    persistent :class:`ScanCache` at ``root`` (``use_cache=False`` opts
    out; a caller-held open ``cache=`` is used instead of opening one and
    is not closed here — the daemon's contract).  Classification is by
    content-hash finding identity, so findings that merely shifted lines
    stay ``pre-existing`` and only genuinely new matches are
    ``introduced``.
    """
    if diff_text is None and base is None:
        raise ReviewError("pass a unified diff (diff_text=) or a base revision")
    if diff_text is not None and base is not None:
        raise ReviewError("pass either diff_text= or git revisions, not both")

    engine = engine if engine is not None else PatchitPy()
    m = metrics if metrics is not None else NULL_METRICS
    t = trace if trace is not None else NULL_TRACE
    started = clock() if m.enabled else 0.0

    root = Path(root)
    if diff_text is not None:
        diffs = parse_unified_diff(diff_text)
        base_label, head_label = "diff", "worktree"
    else:
        root = _git_toplevel(root)
        assert base is not None
        if head is None:
            raw = _git(root, "diff", "--no-color", "--no-ext-diff", base, "--")
            base_label, head_label = base, "worktree"
        else:
            raw = _git(
                root, "diff", "--no-color", "--no-ext-diff", f"{base}..{head}", "--"
            )
            base_label, head_label = base, head
        diffs = parse_unified_diff(raw)

    opened_cache = False
    if cache is None and use_cache:
        cache = ScanCache(root, engine.rules.fingerprint())
        opened_cache = True
    hits_before = cache.hits if cache is not None else 0
    misses_before = cache.misses if cache is not None else 0

    report = ReviewReport(root=str(root), base=base_label, head=head_label)
    reviewer = _Reviewer(engine, cache, m, t)
    scan_sid = t.begin("review", str(root)) if t.enabled else ""

    for diff in diffs:
        if diff.binary or not (_is_python(diff.old_path) or _is_python(diff.new_path)):
            continue
        try:
            old_source, new_source = _load_sides(
                root, diff, base=base, head=head, from_diff=diff_text is not None
            )
        except (ReviewError, OSError, UnicodeDecodeError) as error:
            report.files.append(
                ReviewedFile(
                    path=diff.path,
                    change=diff.change,
                    hunks=diff.new_ranges,
                    error=str(error),
                )
            )
            continue
        reviewed, classified = reviewer.review_file(diff, old_source, new_source)
        report.files.append(reviewed)
        report.findings.extend(classified)
        report.sources[diff.path] = (old_source, new_source)

    if cache is not None:
        report.cache_hits = cache.hits - hits_before
        report.cache_misses = cache.misses - misses_before
        if opened_cache:
            cache.close()
        else:
            cache.save()
    if t.enabled:
        counts = report.counts()
        t.end(
            scan_sid,
            files=len(report.files),
            introduced=counts[STATUS_INTRODUCED],
            pre_existing=counts[STATUS_PRE_EXISTING],
            fixed=counts[STATUS_FIXED],
        )
    if m.enabled:
        counts = report.counts()
        m.count("review_calls")
        m.count("review_files", len(report.files))
        m.count("review_introduced", counts[STATUS_INTRODUCED])
        m.count("review_pre_existing", counts[STATUS_PRE_EXISTING])
        m.count("review_fixed", counts[STATUS_FIXED])
        m.count("review_cache_hits", report.cache_hits)
        m.count("review_cache_misses", report.cache_misses)
        elapsed = clock() - started
        m.add_time("review_time_s", elapsed)
        m.observe("phase_seconds/review", elapsed)
        report.metrics = m
    return report


def _load_sides(
    root: Path,
    diff: FileDiff,
    base: Optional[str],
    head: Optional[str],
    from_diff: bool,
) -> Tuple[Optional[str], Optional[str]]:
    """The ``(baseline, head)`` text of one touched file."""
    if from_diff:
        if diff.new_path is None:
            # deleted file: the whole old content is in the hunks
            return reverse_apply("", diff.hunks), None
        new_source = (root / diff.new_path).read_text()
        if diff.old_path is None:
            return None, new_source
        return reverse_apply(new_source, diff.hunks), new_source
    assert base is not None
    old_source = (
        _git_show(root, base, diff.old_path) if diff.old_path is not None else None
    )
    if diff.new_path is None:
        new_source = None
    elif head is not None:
        new_source = _git_show(root, head, diff.new_path)
    else:
        target = root / diff.new_path
        new_source = target.read_text() if target.exists() else None
    return old_source, new_source


# ------------------------------------------------------------ patching


def patch_introduced(
    report: ReviewReport,
    engine: Optional[PatchitPy] = None,
) -> Dict[str, PatchResult]:
    """Patch (and verify) *only* the introduced findings, per file.

    Pre-existing findings are left alone — a review must not rewrite code
    the change did not touch.  Returns ``{path: PatchResult}`` for every
    file with at least one introduced finding; each result carries the
    verifier's verdicts, and unverifiable patches are reverted rather
    than shipped.

    Requires the report's in-process ``sources`` (a report deserialized
    from JSON cannot be patched — re-run the review locally).
    """
    engine = engine if engine is not None else PatchitPy()
    results: Dict[str, PatchResult] = {}
    for path in dict.fromkeys(item.path for item in report.introduced):
        sides = report.sources.get(path)
        if sides is None or sides[1] is None:
            raise ReviewError(
                f"no head source retained for {path}; patch_introduced needs "
                "the in-process report of a local review"
            )
        # The engine gets the head's full finding set, so the verifier
        # does not mistake a deliberately unpatched pre-existing finding
        # for a regression, and excludes the pre-existing identities (the
        # change did not cause them).
        head = [f for f in report.findings if f.path == path and f.status != STATUS_FIXED]
        results[path] = engine.patch(
            sides[1],
            [f.finding for f in head],
            exclude=frozenset(f.key for f in head if f.status == STATUS_PRE_EXISTING),
        )
    return results
