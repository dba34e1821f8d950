"""Project-scale scanning: analyze and patch whole directory trees.

The paper evaluates single generated snippets, but a tool developers adopt
must also sweep a repository.  :class:`ProjectScanner` walks a tree,
analyzes every Python file with the engine, aggregates findings per file
and per CWE, and can apply patches in place (writing ``.orig`` backups
when asked).

Two production features make repeated sweeps cheap:

- **Process parallelism** — ``scan(jobs=N, processes=True)`` fans file
  batches out over a :class:`~concurrent.futures.ProcessPoolExecutor`.
  Regex matching is pure CPU, so threads are GIL-bound; processes scale
  with cores.  The scanner (engine and rules included) is pickled once
  per worker via the pool initializer, and results come back as the
  ordinary :class:`~repro.types.Finding` dataclasses.  Report order is
  always the deterministic walk order, whatever the completion order.
- **Incremental scanning** — ``scan(use_cache=True)`` consults a
  persistent :class:`~repro.core.cache.ScanCache` keyed by file content
  digest and versioned by the ruleset fingerprint, so a warm scan of an
  unchanged tree performs zero detect calls.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.cache import CACHE_DIR_NAME, ScanCache
from repro.core.engine import PatchitPy, detect_with
from repro.observability.collector import (
    DEFAULT_SLOW_RULE_BUDGET_MS,
    NULL_METRICS,
    ScanMetrics,
    clock,
)
from repro.observability.trace import NULL_TRACE, TraceRecorder
from repro.types import Finding

DEFAULT_EXCLUDED_DIRS = frozenset(
    {
        ".git",
        ".hg",
        ".tox",
        ".venv",
        "venv",
        "__pycache__",
        "node_modules",
        ".eggs",
        "build",
        "dist",
        CACHE_DIR_NAME,
    }
)


@dataclass
class FileResult:
    """Analysis outcome for one file."""

    path: Path
    findings: List[Finding] = field(default_factory=list)
    patched: bool = False
    applied_patches: int = 0
    error: Optional[str] = None
    from_cache: bool = False
    # Verifier verdicts (repro.core.verify.PatchVerdict) for every patch
    # the engine examined for this file — recorded even when all patches
    # were reverted and the file was left untouched.
    verdicts: List = field(default_factory=list)

    @property
    def is_vulnerable(self) -> bool:
        """True when the file produced findings."""
        return bool(self.findings)

    @property
    def reverted_patches(self) -> int:
        """Patches the verifier rejected and withdrew for this file."""
        return sum(1 for v in self.verdicts if v.reverted)


@dataclass
class ProjectReport:
    """Aggregated outcome of one scan.

    ``metrics`` carries the scan's merged
    :class:`~repro.observability.ScanMetrics` snapshot when the scanner
    ran with an enabled collector; with the default no-op collector it
    stays ``None`` and the report is exactly its pre-observability shape.
    """

    root: Path
    files: List[FileResult] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    metrics: Optional[ScanMetrics] = None

    @property
    def scanned_count(self) -> int:
        """Files analyzed without I/O errors."""
        return len([f for f in self.files if f.error is None])

    @property
    def vulnerable_files(self) -> List[FileResult]:
        """File results with at least one finding."""
        return [f for f in self.files if f.is_vulnerable]

    @property
    def total_findings(self) -> int:
        """Findings across all files."""
        return sum(len(f.findings) for f in self.files)

    @property
    def verified_patches(self) -> int:
        """Applied patches that passed every verification check."""
        return sum(
            1 for f in self.files for v in f.verdicts if v.ok and not v.reverted
        )

    @property
    def unverified_patches(self) -> int:
        """Patches the verifier rejected (reverted, not shipped)."""
        return sum(1 for f in self.files for v in f.verdicts if not v.ok)

    def verdict_counts(self) -> Dict[str, int]:
        """Verdict status -> count across all files, most frequent first."""
        counts: Dict[str, int] = {}
        for result in self.files:
            for verdict in result.verdicts:
                counts[verdict.status] = counts.get(verdict.status, 0) + 1
        return dict(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))

    def findings_by_cwe(self) -> Dict[str, int]:
        """CWE id -> finding count, most frequent first."""
        counts: Dict[str, int] = {}
        for result in self.files:
            for finding in result.findings:
                counts[finding.cwe_id] = counts.get(finding.cwe_id, 0) + 1
        return dict(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))

    def summary(self) -> str:
        """Multi-line plain-text scan summary."""
        lines = [
            f"scanned {self.scanned_count} file(s) under {self.root}",
            f"vulnerable files: {len(self.vulnerable_files)}; findings: {self.total_findings}",
        ]
        for cwe, count in list(self.findings_by_cwe().items())[:10]:
            lines.append(f"  {cwe}: {count}")
        errors = [f for f in self.files if f.error]
        if errors:
            lines.append(f"unreadable files: {len(errors)}")
        if self.cache_hits or self.cache_misses:
            lines.append(f"cache: {self.cache_hits} hit(s), {self.cache_misses} miss(es)")
        counts = self.verdict_counts()
        if counts:
            parts = ", ".join(f"{status}: {count}" for status, count in counts.items())
            lines.append(f"patch verdicts: {parts}")
            if self.unverified_patches:
                lines.append(
                    f"unverified patches reverted: {self.unverified_patches}"
                )
        return "\n".join(lines)


# One scanner per worker process, installed by the pool initializer so the
# engine (85 compiled rules) is unpickled once per worker, not per file.
_WORKER_SCANNER: Optional["ProjectScanner"] = None


def _worker_init(pickled_scanner: bytes) -> None:
    global _WORKER_SCANNER
    _WORKER_SCANNER = pickle.loads(pickled_scanner)


def _worker_analyze(path: Path) -> "_Analysis":
    assert _WORKER_SCANNER is not None, "worker initializer did not run"
    return _WORKER_SCANNER._analyze_one(path)


# (result, content digest, (mtime_ns, size), per-file metrics snapshot,
# per-file trace buffer); digest/stat are None when the file could not be
# read, the snapshot/buffer are None when the matching collector/recorder
# is disabled.
_Analysis = Tuple[
    FileResult,
    Optional[str],
    Optional[Tuple[int, int]],
    Optional[ScanMetrics],
    Optional[TraceRecorder],
]


class ProjectScanner:
    """Walks a directory tree and runs the engine on every ``.py`` file.

    ``metrics`` is the scan-level
    :class:`~repro.observability.ScanMetrics` collector.  Every file is
    analyzed against its *own* fresh snapshot collector (created only when
    the scan-level collector is enabled) and the snapshots are merged
    into ``self.metrics`` in walk order — the same fold whether the
    snapshots were produced serially, on a thread pool, or in
    ``ProcessPoolExecutor`` workers, which is what makes ``--jobs 1`` and
    ``--jobs 4`` produce identical merged totals.

    ``trace`` is the scan-level
    :class:`~repro.observability.TraceRecorder`.  It follows the same
    per-file-snapshot discipline: each file is traced into its own fresh
    recorder (created only when the scan-level recorder is enabled), the
    buffers travel back with the file results, and they are merged under
    the ``scan`` span in walk order — span ids are content-derived, so
    serial and process-pool scans of the same tree emit byte-identical
    traces modulo timing fields.

    ``slow_rule_budget_ms`` is the per-rule per-file watchdog budget:
    with an enabled metrics collector, any rule spending more than the
    budget on a single file is recorded in the collector's rule-health
    table (breach count + worst-file exemplar).  ``None`` disables the
    watchdog.
    """

    def __init__(
        self,
        engine: Optional[PatchitPy] = None,
        excluded_dirs: Iterable[str] = DEFAULT_EXCLUDED_DIRS,
        max_file_bytes: int = 1 << 20,
        metrics: Optional[ScanMetrics] = None,
        trace: Optional[TraceRecorder] = None,
        slow_rule_budget_ms: Optional[float] = DEFAULT_SLOW_RULE_BUDGET_MS,
    ) -> None:
        self.engine = engine if engine is not None else PatchitPy()
        self.excluded_dirs = frozenset(excluded_dirs)
        self.max_file_bytes = max_file_bytes
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.trace = trace if trace is not None else NULL_TRACE
        self.slow_rule_budget_ms = slow_rule_budget_ms

    # ------------------------------------------------------------ walking

    def python_files(self, root: Path) -> Iterator[Path]:
        """Yield the Python files a scan would visit, sorted per directory."""
        if root.is_file():
            yield root
            return
        for directory, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames if d not in self.excluded_dirs)
            for name in sorted(filenames):
                if name.endswith(".py"):
                    yield Path(directory) / name

    # ------------------------------------------------------------ actions

    def scan(
        self,
        root: Path,
        jobs: int = 1,
        processes: bool = False,
        use_cache: bool = False,
        cache: Optional[ScanCache] = None,
    ) -> ProjectReport:
        """Analyze every file; no modification.

        ``jobs > 1`` analyzes files in parallel: on a thread pool by
        default, or — with ``processes=True`` — on a process pool that
        sidesteps the GIL for the CPU-bound regex pass.  Either way the
        report keeps the deterministic walk order.  ``use_cache=True``
        reuses (and refreshes) the persistent result cache at the scan
        root, so only changed files are re-analyzed.

        A caller that keeps a cache open across scans (the scan daemon)
        passes it via ``cache=``; it is used instead of opening one and
        is *not* closed here (saves still happen — they are cheap no-ops
        when nothing changed), and the report carries this scan's
        hit/miss deltas rather than the cache's lifetime totals.
        """
        report = ProjectReport(root=root)
        trace = self.trace
        scan_start = clock() if self.metrics.enabled else 0.0
        scan_sid = trace.begin("scan", str(root)) if trace.enabled else ""
        paths = list(self.python_files(root))
        if cache is None and use_cache:
            cache = self.open_cache(root)
        counts_before = _cache_counts(cache)

        slots: List[Optional[FileResult]] = [None] * len(paths)
        pending: List[Tuple[int, Path]] = []
        if cache is None:
            pending = list(enumerate(paths))
        else:
            for index, path in enumerate(paths):
                hit = self._cached_result(cache, path)
                if trace.enabled:
                    if hit is None:
                        outcome = "miss"
                    elif hit.error is not None:
                        outcome = "error"
                    else:
                        outcome = "hit"
                    trace.event("cache-lookup", str(path), outcome=outcome)
                if hit is None:
                    pending.append((index, path))
                else:
                    slots[index] = hit

        if pending:
            outcomes = self._analyze_batch([p for _, p in pending], jobs, processes)
            for (index, path), (result, digest, stat_key, snapshot, buffer) in zip(
                pending, outcomes
            ):
                slots[index] = result
                self.metrics.merge(snapshot)
                trace.merge(buffer, parent=scan_sid or None)
                if cache is not None and digest is not None:
                    cache.store(digest, result.findings, result.error)
                    if stat_key is not None:
                        cache.remember_stat(path, _FakeStat(*stat_key), digest)

        report.files = [slot for slot in slots if slot is not None]
        if cache is not None:
            hits, misses, _ = _cache_delta(cache, counts_before)
            report.cache_hits = hits
            report.cache_misses = misses
            cache.save()
        if trace.enabled:
            trace.end(
                scan_sid,
                files=len(report.files),
                findings=report.total_findings,
                cache_hits=report.cache_hits,
                cache_misses=report.cache_misses,
            )
        self._finish_metrics(report, cache, scan_start, counts_before)
        return report

    def _finish_metrics(
        self,
        report: ProjectReport,
        cache: Optional[ScanCache],
        started: float,
        counts_before: Tuple[int, int, int] = (0, 0, 0),
    ) -> None:
        """Fold scan-level counters into the collector and stamp the report."""
        if not self.metrics.enabled:
            return
        m = self.metrics
        m.count("files_scanned", sum(1 for f in report.files if f.error is None))
        m.count("files_from_cache", sum(1 for f in report.files if f.from_cache))
        m.count("file_errors", sum(1 for f in report.files if f.error is not None))
        if cache is not None:
            hits, misses, stale = _cache_delta(cache, counts_before)
            m.count("cache_hits", hits)
            m.count("cache_misses", misses)
            m.count("cache_stale_hints", stale)
        m.add_time("scan_time_s", clock() - started)
        report.metrics = m

    def patch_tree(
        self,
        root: Path,
        backup: bool = True,
        use_cache: bool = False,
        cache: Optional[ScanCache] = None,
    ) -> ProjectReport:
        """Patch every vulnerable file in place.

        With ``backup`` a ``<name>.py.orig`` copy of each modified file is
        written beside it.  Each file is read exactly once: the patch pass
        reuses the source that detection analyzed (no re-read between
        detect and patch, so no decode/TOCTOU window), and write failures
        are recorded on the file's result instead of aborting the tree.
        With ``use_cache=True`` unchanged files reuse cached detect
        results; ``cache=`` supplies a caller-held open cache instead
        (same contract as :meth:`scan`).
        """
        report = ProjectReport(root=root)
        m = self.metrics
        t = self.trace
        start = clock() if m.enabled else 0.0
        scan_sid = t.begin("scan", str(root)) if t.enabled else ""
        if cache is None and use_cache:
            cache = self.open_cache(root)
        counts_before = _cache_counts(cache)
        for path in self.python_files(root):
            file_start = clock() if m.enabled else 0.0
            result = FileResult(path=path)
            report.files.append(result)
            error, source, digest, stat = self._load(path)
            if error is not None:
                result.error = error
                if t.enabled:
                    t.event("file", str(path), error=error, findings=0)
                if m.enabled:
                    m.time_file(str(path), clock() - file_start)
                continue
            file_sid = t.begin("file", str(path)) if t.enabled else ""
            cached = cache.lookup(digest) if cache is not None else None
            if cached is not None and cached.error is None:
                if t.enabled:
                    t.event("cache-lookup", str(path), outcome="hit")
                result.findings = cached.findings
                result.from_cache = True
            else:
                if t.enabled and cache is not None:
                    t.event("cache-lookup", str(path), outcome="miss")
                result.findings = detect_with(self.engine, source, m, t)
                if cache is not None:
                    cache.store(digest, result.findings)
            if not result.findings:
                if t.enabled:
                    t.end(file_sid, findings=0)
                if cache is not None and stat is not None:
                    cache.remember_stat(path, stat, digest)
                if m.enabled:
                    m.time_file(str(path), clock() - file_start)
                continue
            outcome = self.engine.patch(
                source,
                result.findings,
                metrics=m if m.enabled else None,
                trace=t if t.enabled else None,
            )
            # Verdicts are recorded before the unchanged-file short-circuit:
            # a file whose every patch was reverted stays byte-identical on
            # disk but must still report why nothing shipped.
            result.verdicts = list(outcome.verdicts)
            if t.enabled:
                t.end(
                    file_sid,
                    findings=len(result.findings),
                    applied=len(outcome.applied),
                    reverted=result.reverted_patches,
                )
            if m.enabled:
                m.time_file(str(path), clock() - file_start)
            if outcome.patched == source:
                continue
            try:
                if backup:
                    path.with_suffix(path.suffix + ".orig").write_text(source)
                path.write_text(outcome.patched)
            except OSError as write_error:
                result.error = str(write_error)
                continue
            result.patched = True
            result.applied_patches = len(outcome.applied)
            if cache is not None:
                cache.forget_path(path)
        if cache is not None:
            hits, misses, _ = _cache_delta(cache, counts_before)
            report.cache_hits = hits
            report.cache_misses = misses
            cache.save()
        if t.enabled:
            t.end(
                scan_sid,
                files=len(report.files),
                findings=report.total_findings,
                patched=sum(1 for f in report.files if f.patched),
            )
        if m.enabled:
            m.count("files_patched", sum(1 for f in report.files if f.patched))
        self._finish_metrics(report, cache, start, counts_before)
        return report

    # ------------------------------------------------------------ caching

    def open_cache(self, root: Path) -> ScanCache:
        """The persistent cache for a scan root (parent dir for file roots)."""
        base = root if root.is_dir() else root.parent
        return ScanCache(base, self.engine.rules.fingerprint())

    def _cached_result(self, cache: ScanCache, path: Path) -> Optional[FileResult]:
        """Cache-only lookup: a FileResult on a hit, ``None`` on a miss.

        Unreadable and oversized files short-circuit to error results here
        (they never reach the analysis pool); undecodable files hit the
        cache by raw content without ever being decoded.
        """
        try:
            stat = path.stat()
            if stat.st_size > self.max_file_bytes:
                return FileResult(path=path, error="file too large")
            digest = cache.stat_digest(path, stat)
            if digest is None:
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
        except OSError as error:
            return FileResult(path=path, error=str(error))
        entry = cache.lookup(digest)
        if entry is None:
            return None
        cache.remember_stat(path, stat, digest)
        return FileResult(
            path=path, findings=list(entry.findings), error=entry.error, from_cache=True
        )

    # ------------------------------------------------------------ helpers

    def _analyze_batch(
        self, paths: List[Path], jobs: int, processes: bool
    ) -> List[_Analysis]:
        if jobs <= 1 or len(paths) < 2:
            return [self._analyze_one(path) for path in paths]
        if processes and self._prime_index() and self._picklable():
            from concurrent.futures import ProcessPoolExecutor

            chunksize = max(1, -(-len(paths) // (jobs * 4)))
            with ProcessPoolExecutor(
                max_workers=jobs,
                initializer=_worker_init,
                initargs=(pickle.dumps(self),),
            ) as pool:
                return list(pool.map(_worker_analyze, paths, chunksize=chunksize))
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(self._analyze_one, paths))

    def _prime_index(self) -> bool:
        """Warm the engine's caches before workers are forked.

        The scanner is pickled once per worker; a full ``warmup()`` here
        ships the *built* candidate index inside that pickle, so no
        worker pays the compilation again.  Engines without ``warmup``
        (custom duck-typed engines) are shipped as they are.  Always returns
        True (it participates in the ``_analyze_batch`` condition chain
        purely for ordering).
        """
        warm = getattr(self.engine, "warmup", None)
        if warm is not None:
            warm()
        return True

    def _picklable(self) -> bool:
        """True when this scanner can be shipped to worker processes.

        Custom engines may carry unpicklable state (e.g. closure-based
        patch builders); those fall back to the thread pool rather than
        crashing the scan.
        """
        try:
            pickle.dumps(self)
            return True
        except Exception:
            return False

    def _load(
        self, path: Path
    ) -> Tuple[Optional[str], Optional[str], Optional[str], Optional[os.stat_result]]:
        """Read+hash a file: ``(error, source, digest, stat)``.

        Undecodable files still return their content digest so the error
        outcome is cacheable; oversized and unreadable files return no
        digest at all.
        """
        try:
            stat = path.stat()
            if stat.st_size > self.max_file_bytes:
                return "file too large", None, None, None
            data = path.read_bytes()
        except OSError as error:
            return str(error), None, None, None
        digest = hashlib.sha256(data).hexdigest()
        try:
            return None, data.decode("utf-8"), digest, stat
        except UnicodeDecodeError as error:
            return str(error), None, digest, stat

    def _analyze_one(self, path: Path) -> _Analysis:
        """Analyze one file into fresh metrics/trace snapshots.

        The snapshots (rather than the shared collector/recorder) are
        what makes the instrumentation safe under thread pools and
        meaningful under process pools: each file's counters and trace
        events travel with its result and are merged by the coordinating
        process in deterministic walk order.  With an enabled collector
        the slow-rule watchdog runs here, against this file's isolated
        per-rule timings.
        """
        snapshot = ScanMetrics() if self.metrics.enabled else None
        buffer = TraceRecorder() if self.trace.enabled else None
        start = clock() if snapshot is not None else 0.0
        result = FileResult(path=path)
        error, source, digest, stat = self._load(path)
        if error is not None:
            result.error = error
            if buffer is not None:
                buffer.event("file", str(path), error=error, findings=0)
            if snapshot is not None:
                snapshot.time_file(str(path), clock() - start)
            # undecodable content is still cacheable by its raw digest
            if digest is not None and stat is not None:
                return result, digest, (stat.st_mtime_ns, stat.st_size), snapshot, buffer
            return result, None, None, snapshot, buffer
        file_sid = buffer.begin("file", str(path)) if buffer is not None else ""
        result.findings = detect_with(self.engine, source, snapshot, buffer)
        if buffer is not None:
            buffer.end(file_sid, findings=len(result.findings))
        if snapshot is not None:
            snapshot.time_file(str(path), clock() - start)
            if self.slow_rule_budget_ms is not None:
                snapshot.flag_slow_rules(str(path), self.slow_rule_budget_ms)
        assert stat is not None and digest is not None
        return result, digest, (stat.st_mtime_ns, stat.st_size), snapshot, buffer


def _cache_counts(cache: Optional[ScanCache]) -> Tuple[int, int, int]:
    """Snapshot of a cache's ``(hits, misses, stale_hints)`` counters.

    A fresh per-scan cache starts at zero, so the delta against this
    snapshot equals the lifetime counters; a long-lived cache shared by
    a daemon does not, which is why reports subtract rather than read
    the counters directly.
    """
    if cache is None:
        return (0, 0, 0)
    return (cache.hits, cache.misses, cache.stale_hints)


def _cache_delta(
    cache: ScanCache, before: Tuple[int, int, int]
) -> Tuple[int, int, int]:
    """Counter movement on ``cache`` since a ``_cache_counts`` snapshot."""
    return (
        cache.hits - before[0],
        cache.misses - before[1],
        cache.stale_hints - before[2],
    )


class _FakeStat:
    """Minimal stand-in for ``os.stat_result`` built from worker output."""

    __slots__ = ("st_mtime_ns", "st_size")

    def __init__(self, mtime_ns: int, size: int) -> None:
        self.st_mtime_ns = mtime_ns
        self.st_size = size


def scan_paths(
    paths: Iterable[Path],
    engine: Optional[PatchitPy] = None,
    jobs: int = 1,
    processes: bool = False,
    use_cache: bool = False,
    metrics: Optional[ScanMetrics] = None,
    trace: Optional[TraceRecorder] = None,
    slow_rule_budget_ms: Optional[float] = DEFAULT_SLOW_RULE_BUDGET_MS,
) -> ProjectReport:
    """Scan several roots into one merged report.

    Overlapping roots (e.g. ``repo/`` and ``repo/src/``) are deduplicated
    by resolved file path, so no file is analyzed or counted twice, and
    parallelism/cache/metrics options are forwarded to each root's scan
    (the collector records the work actually performed, so a file reached
    through two roots is counted once per analysis even though it appears
    once in the report).
    """
    scanner = ProjectScanner(
        engine=engine,
        metrics=metrics,
        trace=trace,
        slow_rule_budget_ms=slow_rule_budget_ms,
    )
    merged: Optional[ProjectReport] = None
    seen: set = set()
    for root in paths:
        report = scanner.scan(root, jobs=jobs, processes=processes, use_cache=use_cache)
        fresh: List[FileResult] = []
        for result in report.files:
            try:
                key = result.path.resolve()
            except OSError:
                key = result.path.absolute()
            if key in seen:
                continue
            seen.add(key)
            fresh.append(result)
        if merged is None:
            merged = report
            merged.files = fresh
        else:
            merged.files.extend(fresh)
            merged.cache_hits += report.cache_hits
            merged.cache_misses += report.cache_misses
    if merged is None:
        raise ValueError("no paths given")
    return merged
