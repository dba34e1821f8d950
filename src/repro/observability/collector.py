"""The :class:`ScanMetrics` collector and its no-op twin.

Design constraints, in priority order:

1. **Zero cost when disabled.**  The default collector on every
   instrumented component is :data:`NULL_METRICS`; hot paths guard their
   instrumentation behind ``metrics.enabled`` so a disabled scan runs the
   exact pre-observability code path (one truthiness check per call, no
   ``perf_counter`` traffic, no allocation).
2. **Pickle safety.**  Collectors cross process boundaries twice: the
   :class:`~repro.core.project.ProjectScanner` (collector included) is
   pickled into pool workers, and per-file snapshot collectors travel
   back with each result.  ``ScanMetrics`` holds only plain dicts of
   ints/floats; ``NullScanMetrics`` reduces to the module singleton so a
   round-trip never resurrects a parallel "disabled" instance that would
   then be mistaken for live state.
3. **Associative merge.**  Worker snapshots arrive in completion order,
   which is nondeterministic; :meth:`ScanMetrics.merge` is a pure
   key-wise sum, so any grouping of merges yields the same totals (the
   property ``tests/test_observability.py`` pins).
4. **O(dispatched rules) per detect.**  A detect offers the whole
   catalog but runs only the rules its selection dispatched.  The
   offer is one tally (:meth:`ScanMetrics.tally_rules`) that
   :attr:`ScanMetrics.rules` folds into every rule's ``calls`` and
   ``prefilter_skips`` when it is read; tallies merge key-wise and
   pickle as plain data, like every other table.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # the untraced hot path must never import histogram.py
    from repro.observability.histogram import LatencyHistogram

__all__ = [
    "DEFAULT_SLOW_RULE_BUDGET_MS",
    "NULL_METRICS",
    "NullScanMetrics",
    "RuleHealth",
    "RuleStats",
    "ScanMetrics",
]

#: Default per-file wall-time budget (ms) for the slow-rule watchdog.
DEFAULT_SLOW_RULE_BUDGET_MS = 50.0

#: Pending offer tallies a collector keeps unfolded; beyond it each new
#: key folds one old one, so a long-lived collector that is rarely read
#: stays bounded in memory without a fold-everything pause.
_MAX_PENDING_TALLIES = 1024


@dataclass
class RuleStats:
    """Accumulated execution statistics for one detection rule.

    ``calls`` counts files the rule was offered; ``prefilter_skips`` and
    ``prereq_skips`` count the files where the literal prefilter or a
    file-scope prerequisite spared the regex pass entirely;
    ``guard_vetoes`` counts individual matches suppressed by guards (the
    ``# nosec`` waiver included); ``matches`` counts surviving findings.
    """

    calls: int = 0
    time_s: float = 0.0
    matches: int = 0
    prefilter_skips: int = 0
    prereq_skips: int = 0
    guard_vetoes: int = 0

    def merge(self, other: "RuleStats") -> None:
        """Fold another rule's accumulator into this one (key-wise sum)."""
        self.calls += other.calls
        self.time_s += other.time_s
        self.matches += other.matches
        self.prefilter_skips += other.prefilter_skips
        self.prereq_skips += other.prereq_skips
        self.guard_vetoes += other.guard_vetoes

    def to_dict(self) -> dict:
        return {
            "calls": self.calls,
            "time_s": self.time_s,
            "matches": self.matches,
            "prefilter_skips": self.prefilter_skips,
            "prereq_skips": self.prereq_skips,
            "guard_vetoes": self.guard_vetoes,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RuleStats":
        return cls(
            calls=int(data.get("calls", 0)),
            time_s=float(data.get("time_s", 0.0)),
            matches=int(data.get("matches", 0)),
            prefilter_skips=int(data.get("prefilter_skips", 0)),
            prereq_skips=int(data.get("prereq_skips", 0)),
            guard_vetoes=int(data.get("guard_vetoes", 0)),
        )


@dataclass
class RuleHealth:
    """Per-rule health record: slow-rule watchdog plus patch verdicts.

    ``breaches`` counts per-file executions that exceeded the configured
    wall-time budget; ``worst_ms``/``worst_file`` pin the most pathological
    exemplar so a regression report can name the exact file that made a
    regex blow up.  ``verdicts`` folds the verifier's per-patch rulings
    (``verified`` / ``regressed`` / ``syntax-broken`` /
    ``import-collision``) for the rule's patch template, and
    ``failing_exemplar`` keeps one concrete failing ruling so a template
    whose patches chronically fail verification surfaces with evidence,
    not just a count.  Every fold is a sum or a deterministic extremum
    (worst-ms max with lexicographic tie-break; lexicographically
    smallest failing exemplar), so merging worker snapshots in any order
    yields the same record.
    """

    breaches: int = 0
    worst_ms: float = 0.0
    worst_file: str = ""
    verdicts: Dict[str, int] = field(default_factory=dict)
    failing_exemplar: str = ""

    def note(self, path: str, ms: float) -> None:
        """Record one budget breach of ``ms`` milliseconds on ``path``."""
        self.breaches += 1
        self._consider(path, ms)

    def note_verdict(self, status: str, detail: str = "", ok: bool = True) -> None:
        """Fold one patch-verifier ruling for this rule's template."""
        self.verdicts[status] = self.verdicts.get(status, 0) + 1
        if not ok:
            exemplar = f"[{status}] {detail}" if detail else f"[{status}]"
            self._consider_exemplar(exemplar)

    def unverified(self) -> int:
        """Rulings other than ``verified`` — the chronic-failure signal."""
        return sum(n for status, n in self.verdicts.items() if status != "verified")

    def _consider(self, path: str, ms: float) -> None:
        if ms > self.worst_ms or (
            ms == self.worst_ms and (not self.worst_file or path < self.worst_file)
        ):
            self.worst_ms = ms
            self.worst_file = path

    def _consider_exemplar(self, exemplar: str) -> None:
        # min() of the non-empty candidates: deterministic under any
        # merge order, unlike "first seen".
        if exemplar and (not self.failing_exemplar or exemplar < self.failing_exemplar):
            self.failing_exemplar = exemplar

    def merge(self, other: "RuleHealth") -> None:
        """Fold another record in (sums + deterministic extrema)."""
        self.breaches += other.breaches
        if other.worst_file:
            self._consider(other.worst_file, other.worst_ms)
        for status, n in other.verdicts.items():
            self.verdicts[status] = self.verdicts.get(status, 0) + n
        self._consider_exemplar(other.failing_exemplar)

    def to_dict(self) -> dict:
        data = {
            "breaches": self.breaches,
            "worst_ms": self.worst_ms,
            "worst_file": self.worst_file,
        }
        # only-when-set keeps pre-1.7 snapshot shapes byte-stable
        if self.verdicts:
            data["verdicts"] = dict(sorted(self.verdicts.items()))
        if self.failing_exemplar:
            data["failing_exemplar"] = self.failing_exemplar
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "RuleHealth":
        return cls(
            breaches=int(data.get("breaches", 0)),
            worst_ms=float(data.get("worst_ms", 0.0)),
            worst_file=str(data.get("worst_file", "")),
            verdicts={
                str(status): int(n)
                for status, n in data.get("verdicts", {}).items()
            },
            failing_exemplar=str(data.get("failing_exemplar", "")),
        )


class ScanMetrics:
    """Mutable metrics accumulator for one scan (or one slice of one).

    Six tables, all plain data:

    - ``rules``   — rule id → :class:`RuleStats`; reading it folds the
      pending offer tallies in (see :meth:`tally_rules`)
    - ``counters``— event name → int (``detect_calls``, ``cache_hits``,
      ``patches_applied``, ``files_scanned``, …)
    - ``timers``  — phase name → accumulated seconds (``detect_time_s``,
      ``patch_time_s``, ``scan_time_s``, ``file_time_s``, …)
    - ``files``   — file path → analysis duration in seconds
    - ``rule_health`` — rule id → :class:`RuleHealth` (slow-rule
      watchdog breaches, worst-file exemplar, patch-verdict counts)
    - ``durations`` — histogram name →
      :class:`~repro.observability.histogram.LatencyHistogram`; names
      follow a ``family`` or ``family/label`` convention
      (``phase_seconds/detect``, ``rule_seconds/<rule-id>``,
      ``server_request_seconds/<endpoint>``, ``file_seconds``) that the
      Prometheus exporter turns into labelled histogram families

    Instrumented code never assumes a key exists; every accessor
    get-or-creates, so a collector that saw no traffic exports empty
    tables rather than zeros for every conceivable event.
    """

    enabled: bool = True

    def __init__(self) -> None:
        self._rules: Dict[str, RuleStats] = {}
        # (catalog rule ids, candidate mask) -> detects that offered it
        self._tallies: Dict[Tuple[Tuple[str, ...], int], int] = {}
        self.counters: Dict[str, int] = {}
        self.timers: Dict[str, float] = {}
        self.files: Dict[str, float] = {}
        self.rule_health: Dict[str, RuleHealth] = {}
        self.durations: Dict[str, "LatencyHistogram"] = {}

    @property
    def rules(self) -> Dict[str, RuleStats]:
        """Rule id → :class:`RuleStats`, every pending tally folded in."""
        if self._tallies:
            self._fold_tallies()
        return self._rules

    # -------------------------------------------------------- recording

    def rule_stats(self, rule_id: str) -> RuleStats:
        """The (created-on-first-use) accumulator for a rule id.

        The recording handle: it does not fold pending tallies, so its
        ``calls`` and ``prefilter_skips`` can lag until :attr:`rules`
        is read.
        """
        stats = self._rules.get(rule_id)
        if stats is None:
            stats = self._rules[rule_id] = RuleStats()
        return stats

    def tally_rules(self, rule_ids: Tuple[str, ...], candidates: int) -> None:
        """Count one detect's offer of a whole catalog, in O(1).

        Every rule in ``rule_ids`` (catalog order) counts one call, and
        every position whose ``candidates`` bit is clear one prefilter
        skip.  The tally is keyed by positions, never object identity,
        so it means the same after a process-pool pickle.
        """
        tallies = self._tallies
        key = (rule_ids, candidates)
        tallies[key] = tallies.get(key, 0) + 1
        if len(tallies) > _MAX_PENDING_TALLIES:
            self._fold_tallies(keep=_MAX_PENDING_TALLIES)

    def _fold_tallies(self, keep: int = 0) -> None:
        """Fold pending tallies into the rule table until ``keep`` remain."""
        tallies = self._tallies
        while len(tallies) > keep:
            (rule_ids, candidates), n = tallies.popitem()
            for position, rule_id in enumerate(rule_ids):
                stats = self.rule_stats(rule_id)
                stats.calls += n
                if not candidates >> position & 1:
                    stats.prefilter_skips += n

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to a named event counter."""
        self.counters[name] = self.counters.get(name, 0) + n

    def add_time(self, name: str, seconds: float) -> None:
        """Add ``seconds`` to a named phase timer."""
        self.timers[name] = self.timers.get(name, 0.0) + seconds

    def record_file(self, path: str, seconds: float) -> None:
        """Record one file's analysis duration (summed on re-analysis)."""
        self.files[path] = self.files.get(path, 0.0) + seconds
        self.add_time("file_time_s", seconds)

    def time_file(self, path: str, seconds: float) -> None:
        """Record one file's duration: files table plus the
        ``file_seconds`` histogram (one observation per analyzed file,
        so per-file latency quantiles survive the worker-snapshot
        merge).  :meth:`merge` folds the histograms key-wise and replays
        ``files`` through :meth:`record_file` only, so nothing double
        counts."""
        self.record_file(path, seconds)
        self.observe("file_seconds", seconds)

    def observe(self, name: str, seconds: float) -> None:
        """Record one duration into the named latency histogram.

        Unlike :meth:`add_time` (a lossy sum), this keeps the
        distribution, so quantiles survive the merge.  The histogram
        module is imported lazily: the disabled collector never calls
        this, and the untraced hot path must stay import-free of it
        (``scripts/check_hot_path_isolation.py``).
        """
        histogram = self.durations.get(name)
        if histogram is None:
            from repro.observability.histogram import LatencyHistogram

            histogram = self.durations[name] = LatencyHistogram()
        histogram.observe(seconds)

    def histogram_for(self, name: str) -> "LatencyHistogram":
        """The (created-on-first-use) histogram for a duration family."""
        histogram = self.durations.get(name)
        if histogram is None:
            from repro.observability.histogram import LatencyHistogram

            histogram = self.durations[name] = LatencyHistogram()
        return histogram

    def health_for(self, rule_id: str) -> RuleHealth:
        """The (created-on-first-use) watchdog record for a rule id."""
        health = self.rule_health.get(rule_id)
        if health is None:
            health = self.rule_health[rule_id] = RuleHealth()
        return health

    def flag_slow_rules(self, path: str, budget_ms: Optional[float]) -> int:
        """Slow-rule watchdog: flag rules whose wall time broke the budget.

        Meant to run on a *per-file* snapshot collector right after the
        file's detect pass, when every entry in ``rules`` is that one
        file's regex time — so a breach can be attributed to a concrete
        (rule, file) pair.  Returns the number of rules flagged.
        """
        if budget_ms is None:
            return 0
        flagged = 0
        # time_s is never tallied, so the unfolded table is exact here
        for rule_id, stats in self._rules.items():
            ms = stats.time_s * 1000.0
            if ms > budget_ms:
                self.health_for(rule_id).note(path, ms)
                flagged += 1
        if flagged:
            self.count("slow_rule_breaches", flagged)
        return flagged

    # --------------------------------------------------------- merging

    def merge(self, other: Optional["ScanMetrics"]) -> "ScanMetrics":
        """Fold ``other`` into this collector; returns ``self``.

        A key-wise sum over every table, pending tallies included (they
        stay unfolded, so a merge costs what ``other`` recorded, not the
        catalog size): commutative and associative up to float addition,
        so worker snapshots can be folded in any completion order.
        Merging ``None`` or a disabled collector is a no-op, which lets
        callers merge optional snapshots unconditionally.
        """
        if other is None or not other.enabled:
            return self
        for rule_id, stats in other._rules.items():
            self.rule_stats(rule_id).merge(stats)
        if other._tallies:
            tallies = self._tallies
            for key, n in other._tallies.items():
                tallies[key] = tallies.get(key, 0) + n
            if len(tallies) > _MAX_PENDING_TALLIES:
                self._fold_tallies(keep=_MAX_PENDING_TALLIES)
        for name, value in other.counters.items():
            self.count(name, value)
        for name, seconds in other.timers.items():
            # file_time_s is re-derived by the files merge below
            if name != "file_time_s":
                self.add_time(name, seconds)
        for path, seconds in other.files.items():
            self.record_file(path, seconds)
        for rule_id, health in other.rule_health.items():
            self.health_for(rule_id).merge(health)
        for name, histogram in other.durations.items():
            self.histogram_for(name).merge(histogram)
        return self

    # -------------------------------------------------------- reading

    def top_rules(self, n: int = 10) -> List[Tuple[str, RuleStats]]:
        """The ``n`` slowest rules by accumulated wall time."""
        ranked = sorted(
            self.rules.items(), key=lambda item: (-item[1].time_s, item[0])
        )
        return ranked[: max(0, n)]

    def cache_hit_rate(self) -> Optional[float]:
        """Hits / lookups, or ``None`` when the cache saw no traffic."""
        hits = self.counters.get("cache_hits", 0)
        misses = self.counters.get("cache_misses", 0)
        total = hits + misses
        if total == 0:
            return None
        return hits / total

    def total_rule_time(self) -> float:
        """Wall seconds accumulated across every rule."""
        return sum(stats.time_s for stats in self._rules.values())

    # ---------------------------------------------------- serialization

    def to_dict(self) -> dict:
        """JSON-ready snapshot (inverse of :meth:`from_dict`)."""
        return {
            "rules": {rule_id: s.to_dict() for rule_id, s in sorted(self.rules.items())},
            "counters": dict(sorted(self.counters.items())),
            "timers": dict(sorted(self.timers.items())),
            "files": dict(sorted(self.files.items())),
            "rule_health": {
                rule_id: h.to_dict() for rule_id, h in sorted(self.rule_health.items())
            },
            "durations": {
                name: h.to_dict() for name, h in sorted(self.durations.items())
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScanMetrics":
        metrics = cls()
        for rule_id, raw in data.get("rules", {}).items():
            metrics._rules[rule_id] = RuleStats.from_dict(raw)
        metrics.counters.update(data.get("counters", {}))
        metrics.timers.update(data.get("timers", {}))
        metrics.files.update(data.get("files", {}))
        for rule_id, raw in data.get("rule_health", {}).items():
            metrics.rule_health[rule_id] = RuleHealth.from_dict(raw)
        if data.get("durations"):
            from repro.observability.histogram import LatencyHistogram

            for name, raw in data["durations"].items():
                metrics.durations[name] = LatencyHistogram.from_dict(raw)
        return metrics

    def snapshot(self) -> "ScanMetrics":
        """Independent copy safe to mutate or ship elsewhere."""
        return ScanMetrics().merge(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ScanMetrics rules={len(self.rules)} "
            f"counters={dict(self.counters)!r}>"
        )


def _resurrect_null() -> "NullScanMetrics":
    return NULL_METRICS


class NullScanMetrics(ScanMetrics):
    """The disabled collector: records nothing, merges to nothing.

    Instrumented hot paths check ``metrics.enabled`` before doing any
    timing work, so with this collector installed the executed code is
    byte-for-byte the uninstrumented path.  The mutators are still
    overridden to no-ops as a second line of defense: code that forgets
    the guard degrades to wasted work, never to phantom metrics.
    """

    enabled = False

    def rule_stats(self, rule_id: str) -> RuleStats:
        return RuleStats()  # throwaway: never retained

    def health_for(self, rule_id: str) -> RuleHealth:
        return RuleHealth()  # throwaway: never retained

    def flag_slow_rules(self, path: str, budget_ms: Optional[float]) -> int:
        return 0

    def tally_rules(self, rule_ids: Tuple[str, ...], candidates: int) -> None:
        pass

    def count(self, name: str, n: int = 1) -> None:
        pass

    def add_time(self, name: str, seconds: float) -> None:
        pass

    def record_file(self, path: str, seconds: float) -> None:
        pass

    def observe(self, name: str, seconds: float) -> None:
        pass

    def histogram_for(self, name: str):
        from repro.observability.histogram import LatencyHistogram

        return LatencyHistogram()  # throwaway: never retained

    def merge(self, other: Optional[ScanMetrics]) -> "NullScanMetrics":
        return self

    def __reduce__(self):
        # Unpickling in a worker process yields that process's singleton,
        # never a fresh mutable "disabled" collector.
        return (_resurrect_null, ())


#: The shared no-op collector — the default everywhere metrics are accepted.
NULL_METRICS = NullScanMetrics()


def clock() -> float:
    """The monotonic clock used by all instrumentation sites."""
    return time.perf_counter()
