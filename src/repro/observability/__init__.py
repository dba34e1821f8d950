"""Rule-level observability for the detect → patch pipeline.

A production scanner sweeping millions of heterogeneous files (the
workload profiled by the large-scale GitHub studies of AI-generated code)
cannot be optimized blind: which of the 85+ rules burn the wall time, how
often the literal prefilter actually skips a regex pass, what the warm
cache hit rate is — these are the numbers every tuning decision needs.
DeVAIC-style per-rule breakdowns are a first-class output here too.

The subsystem has five halves:

- :mod:`repro.observability.collector` — :class:`ScanMetrics`, a
  pickle-safe counter/timer collector threaded through matching, the
  engine, the scan cache and the project scanner.  Collectors merge
  associatively, so per-file snapshots gathered in
  ``ProcessPoolExecutor`` workers fold back into one report regardless
  of completion order.  The default is :data:`NULL_METRICS`, a no-op
  collector; every instrumented hot path checks ``metrics.enabled``
  first, so disabled observability costs one attribute check.  The
  collector also hosts the slow-rule watchdog: per-file rule timings
  over :data:`DEFAULT_SLOW_RULE_BUDGET_MS` land in its
  :class:`RuleHealth` table with a worst-file exemplar.
- :mod:`repro.observability.trace` — :class:`TraceRecorder`, structured
  JSONL span events (``scan`` → ``file`` → ``rule`` →
  ``guard-decision`` / ``patch-render`` / ``cache-lookup``) with
  content-derived ids, so serial and process-pool scans of the same
  tree emit byte-identical traces modulo timing fields.  The default is
  :data:`NULL_TRACE`, the no-op recorder.
- :mod:`repro.observability.provenance` — :class:`Provenance`, the
  per-finding audit trail (prefilter literal, prerequisite and guard
  verdicts, matched span, rendered patch) behind the CLI ``--explain``
  flag, rendered by :func:`render_explain`.
- :mod:`repro.observability.histogram` — :class:`LatencyHistogram`
  (fixed log-spaced buckets shared by every instance, so merge is an
  exact key-wise integer sum — associative, commutative, pickle-safe)
  and :class:`RollingWindow` (a ring of per-interval slots the scan
  daemon rotates in O(1) to answer "p99 over the last minute" for
  ``/statusz``).  Stdlib-only by lint
  (``scripts/check_hot_path_isolation.py``), and imported lazily by the
  collector so the untraced hot path never loads it.
- :mod:`repro.observability.exporters` — plain-JSON and Prometheus
  text-format exporters (counters, per-rule families, and proper
  ``*_bucket``/``_sum``/``_count`` histogram families) plus the human
  ``--stats`` summary (with its *top rules by time*, *latency
  percentiles* and *rule health* sections).
"""

from repro._lazy import lazy_exports as _lazy_exports

# Name -> defining module, resolved on first access (see repro._lazy).
__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "BUCKET_BOUNDS": "repro.observability.histogram",
        "DEFAULT_SLOW_RULE_BUDGET_MS": "repro.observability.collector",
        "GuardDecision": "repro.observability.provenance",
        "LatencyHistogram": "repro.observability.histogram",
        "NULL_METRICS": "repro.observability.collector",
        "NULL_TRACE": "repro.observability.trace",
        "NullScanMetrics": "repro.observability.collector",
        "NullTraceRecorder": "repro.observability.trace",
        "PatchProvenance": "repro.observability.provenance",
        "Provenance": "repro.observability.provenance",
        "RollingWindow": "repro.observability.histogram",
        "RuleHealth": "repro.observability.collector",
        "RuleStats": "repro.observability.collector",
        "ScanMetrics": "repro.observability.collector",
        "TRACE_SCHEMA_VERSION": "repro.observability.trace",
        "TraceRecorder": "repro.observability.trace",
        "WindowSnapshot": "repro.observability.histogram",
        "dumps_json": "repro.observability.exporters",
        "format_stats": "repro.observability.exporters",
        "metrics_to_dict": "repro.observability.exporters",
        "render_explain": "repro.observability.provenance",
        "to_prometheus": "repro.observability.exporters",
        # submodules
        "collector": "repro.observability.collector",
        "exporters": "repro.observability.exporters",
        "histogram": "repro.observability.histogram",
        "provenance": "repro.observability.provenance",
        "trace": "repro.observability.trace",
    },
)

__all__ = [
    "BUCKET_BOUNDS",
    "DEFAULT_SLOW_RULE_BUDGET_MS",
    "GuardDecision",
    "LatencyHistogram",
    "NULL_METRICS",
    "NULL_TRACE",
    "NullScanMetrics",
    "NullTraceRecorder",
    "PatchProvenance",
    "Provenance",
    "RollingWindow",
    "RuleHealth",
    "RuleStats",
    "ScanMetrics",
    "TRACE_SCHEMA_VERSION",
    "TraceRecorder",
    "WindowSnapshot",
    "dumps_json",
    "format_stats",
    "metrics_to_dict",
    "render_explain",
    "to_prometheus",
]
