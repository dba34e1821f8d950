"""The traced run: each layer's self time and counts on a workload's inputs.

Spans are recorded here, in the benchmark, around calls into each
layer's public functions; nothing inside the program is instrumented.
Every traced run measures every layer, on the inputs of the workload it
was asked for, so a per-layer number always means "this layer's cost on
these inputs".  Server-side phases come from the servers' own metrics
documents, read after a short replay of the same inputs.
"""

from __future__ import annotations

import json
import random
import re
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from statistics import median
from typing import Dict, Iterator, List, Sequence, Tuple

from common import Closed, child_env, get_json, get_text, stop
from inputs import GeneratedRepo, distinct_snippets, git
from oracle import ReferenceDetector, spans, wire_spans
from workloads import HOT_SET, _analyze_bodies, start_daemon, start_fleet

from repro.core.cache import ScanCache, hash_source
from repro.core.engine import PatchitPy
from repro.core.imports import prune_unused_imports
from repro.core.matching import match_rule
from repro.core.patcher import apply_patches
from repro.core.project import ProjectScanner
from repro.core.review import parse_unified_diff, review
from repro.core.rules import default_ruleset
from repro.core.verify import PatchVerifier
from repro.server.router import HashRing

#: Sources replayed through the in-process layer sweep, and through each server.
SWEEP_SOURCES = 600
REPLAY_SOURCES = 150
CACHE_SIZES = (100, 10_000, 100_000)
SETUP_PROBES = 3


class Spans:
    """In-memory span log: name, start, end, parent span and operation id."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.records: List[list] = []
        self._stack: List[int] = []
        self.op = 0

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        index = len(self.records)
        parent = self._stack[-1] if self._stack else None
        self.records.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.records[index][2] = time.perf_counter()

    def self_times(self) -> Dict[str, Tuple[float, int]]:
        """``name -> (total self seconds, calls)``; self = span minus its children."""
        children = defaultdict(float)
        for _, start, end, parent, _ in self.records:
            if parent is not None:
                children[parent] += end - start
        totals: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
        for index, (name, start, end, _, _) in enumerate(self.records):
            totals[name][0] += end - start - children[index]
            totals[name][1] += 1
        return {name: (t, int(n)) for name, (t, n) in totals.items()}

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for name, start, end, parent, op in self.records:
                handle.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                ) + "\n")


class Tally:
    """Counts taken at the same boundaries as the spans."""

    def __init__(self) -> None:
        self.n: Dict[str, float] = defaultdict(float)
        self.failures: List[str] = []

    def ratio(self, num: str, den: str) -> float:
        return self.n[num] / self.n[den] if self.n[den] else 0.0


# -------------------------------------------------------- in-process sweep


def sweep(sources: Sequence[str], patch: bool, tracer: Spans, tally: Tally,
          reference: Dict[str, list]) -> None:
    """Replay ``sources`` through the engine, then through each layer alone.

    The engine pass is what the workload's server or CLI runs per
    operation (detect, plus patch and verify when ``patch``); a counting
    subclass times every detect, including the verifier's re-scans.  The
    layer passes then call each layer's public function on the same text.
    """

    class CountingEngine(PatchitPy):
        def detect(self, source, metrics=None, trace=None):
            tally.n["detects"] += 1
            with tracer.span("engine.detect"):
                return super().detect(source, metrics, trace)

    rules = default_ruleset()
    engine = CountingEngine(rules=rules)
    engine.warmup()
    # A second catalog for the oracle check and the verifier probe, so
    # their detects never touch the engine's plan memo.
    plain = PatchitPy()
    verifier = PatchVerifier(plain.detect)
    index = rules.candidate_index()
    before = index.grouped_stats()
    tally.n["detects"] = 0  # the warm-up probes are not operations
    ring = HashRing(["w0", "w1"])
    for op, source in enumerate(sources):
        tracer.op = op
        with tracer.span("op"):
            if patch:
                with tracer.span("engine.patch"):
                    engine.patch(source)
            else:
                engine.detect(source)
            with tracer.span("candidates.lookup"):
                lookup = index.lookup(source)
            with tracer.span("groupcompile.compile"):
                grouped = index.grouped_for(lookup)
            with tracer.span("groupcompile.probe"):
                dispatch, cleared, _ = grouped.plan(source)
            with tracer.span("rules.match"):
                matched = [match_rule(rule, source) for rule in dispatch]
            findings = plain.detect(source)
            if spans(reference[source]) != [(f.rule_id, f.span.start, f.span.end) for f in findings]:
                tally.failures.append(f"sweep op {op}: findings differ from the reference loop")
            tally.n["ops"] += 1
            tally.n["rules"] += len(rules)
            tally.n["candidates"] += len(lookup.candidates)
            tally.n["cleared"] += cleared
            tally.n["dispatched"] += len(dispatch)
            tally.n["useful"] += sum(1 for found in matched if found)
            patches, verdicts = [], []
            if any(f.fixable for f in findings):
                with tracer.span("engine.render"):
                    patches = plain.render_patches(source, findings)
                with tracer.span("patcher.apply"):
                    applied = apply_patches(source, patches)
                with tracer.span("imports.prune"):
                    patched = prune_unused_imports(applied.source)
                with tracer.span("verify.verify"):
                    verdicts = verifier.verify(source, findings, patched, applied.applied)
                tally.n["verdicts"] += len(verdicts)
                tally.n["verdicts_ok"] += sum(1 for v in verdicts if v.ok)
            with tracer.span("types.to_dict"):
                payload = {
                    "findings": [f.to_dict() for f in findings],
                    "patches": [p.to_dict() for p in patches],
                    "patch_verdicts": [v.to_dict() for v in verdicts],
                }
            with tracer.span("serialize.json"):
                body = json.dumps(payload).encode("utf-8")
            tally.n["bytes"] += len(body)
            with tracer.span("router.route"):
                ring.route(hash_source(source))
    # The layer passes call lookup and plan directly and never consult
    # the plan memo, so its counters cover the engine pass alone.
    stats = index.grouped_stats()
    tally.n["plan_hits"] = stats["plan_hits"] - before["plan_hits"]
    tally.n["plan_misses"] = stats["plan_misses"] - before["plan_misses"]
    tally.n["compile_misses"] = stats["misses"] - before["misses"]


# ----------------------------------------------------------- set-up probe

_SETUP_SCRIPT = """
import json, time
t0 = time.perf_counter()
import repro.cli
t1 = time.perf_counter()
from repro.core.rules import default_ruleset
rules = default_ruleset()
t2 = time.perf_counter()
rules.candidate_index()
t3 = time.perf_counter()
from repro.core.engine import PatchitPy
PatchitPy(rules=rules).warmup()
t4 = time.perf_counter()
print(json.dumps({"cli.import_s": t1 - t0, "rules.catalog_s": t2 - t1,
                  "candidates.index_build_s": t3 - t2, "engine.warmup_s": t4 - t3}))
"""


def setup_breakdown(cwd: Path) -> Dict[str, float]:
    """Cold-start phases, each the median over fresh interpreters."""
    runs = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_SCRIPT], cwd=cwd, env=child_env(),
            stdout=subprocess.PIPE, check=True, text=True,
        )
        runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return {name: median([run[name] for run in runs]) for name in runs[0]}


# ------------------------------------------------------------ cache probe


def cache_probe(work: Path, findings_pool: Sequence[list], tracer: Spans) -> float:
    """Public ``ScanCache`` open, lookup, store and save at growing sizes.

    One entry in four carries findings (drawn from the workload's own
    detects); the rest are clean, as in a tree scan's store.  Returns
    the store's size in bytes at 10^4 entries.
    """
    fingerprint = default_ruleset().fingerprint()
    store_bytes = 0.0
    for size in CACHE_SIZES:
        root = work / f"cache-{size}"
        digests = [hash_source(f"entry {i}") for i in range(size)]
        cache = ScanCache(root, fingerprint, max_entries=size)
        with tracer.span(f"cache.store.n{size}"):
            for i, digest in enumerate(digests):
                cache.store(digest, findings_pool[i % len(findings_pool)] if i % 4 == 0 else [])
        with tracer.span(f"cache.save.n{size}"):
            cache.save()
        del cache
        with tracer.span(f"cache.open.n{size}"):
            reopened = ScanCache(root, fingerprint, max_entries=size)
        if size == 10_000:
            store_bytes = float(reopened.cache_file.stat().st_size)
            for digest in random.Random(size).sample(digests, 1000):
                with tracer.span("cache.lookup"):
                    reopened.lookup(digest)
        del reopened
    return store_bytes


# ------------------------------------------------------------- tree probe


def tree_probe(repo: GeneratedRepo, pushes: int, tracer: Spans, tally: Tally) -> List[str]:
    """Walk, incremental scan and review of ``pushes`` commits, in-process.

    Returns the new text of every edited file, for the layer sweep.
    """
    engine = PatchitPy()
    scanner = ProjectScanner(engine=engine)
    scanner.scan(repo.root, use_cache=True)
    edited: List[str] = []
    for _ in range(pushes):
        changed = repo.push()
        edited += [repo.files[rel] for rel in changed]
        with tracer.span("project.walk"):
            list(scanner.python_files(repo.root))
        with tracer.span("project.scan"):
            report = scanner.scan(repo.root, use_cache=True)
        tally.n["analyzed"] += report.cache_misses
        diff = git(repo.root, "diff", "--no-color", "HEAD~1..HEAD")
        with tracer.span("review.diff_parse"):
            parse_unified_diff(diff)
        with tracer.span("review.review"):
            review(repo.root, base="HEAD~1", head="HEAD", engine=engine)
        tally.n["pushes"] += 1
    return edited


# ----------------------------------------------------------- server replay

_PROM_SAMPLE = re.compile(r'^patchitpy_(\w+?)_(sum|count)\{(\w+)="([^"]*)"\} (\S+)$')


def _prometheus_means(text: str) -> Dict[str, float]:
    """``family/label -> mean seconds`` from histogram ``_sum``/``_count`` lines."""
    sums: Dict[str, float] = {}
    counts: Dict[str, float] = {}
    for line in text.splitlines():
        match = _PROM_SAMPLE.match(line)
        if match:
            family, kind, _, label, value = match.groups()
            (sums if kind == "sum" else counts)[f"{family}/{label}"] = float(value)
    return {key: sums[key] / counts[key] for key in sums if counts.get(key)}


def _check_replies(loop: Closed, sources: Sequence[str], reference: Dict[str, list],
                   tally: Tally, where: str) -> None:
    for i, (reply, source) in enumerate(zip(loop.replies, sources)):
        tally.n["server_ops"] += 1
        if not isinstance(reply, dict):
            tally.failures.append(f"{where} op {i}: {reply}")
        elif wire_spans(reply["findings"]) != spans(reference[source]):
            tally.failures.append(f"{where} op {i}: findings differ from the reference loop")


def daemon_replay(work: Path, sources: Sequence[str], reference: Dict[str, list],
                  tally: Tally) -> Dict[str, float]:
    """IDE-mode requests to one daemon; phases from its ``/v1/metrics.json``."""
    proc, port = start_daemon(work, 99)
    try:
        loop = Closed(port, "/v1/analyze", _analyze_bodies(sources, True)).run()
        _, doc = get_json(port, "/v1/metrics.json")
    finally:
        stop(proc)
    _check_replies(loop, sources, reference, tally, "daemon replay")
    durations = doc["metrics"]["durations"]

    def mean_ms(phase: str) -> float:
        hist = durations.get(f"phase_seconds/{phase}")
        return hist["sum_s"] / hist["count"] * 1000.0 if hist and hist["count"] else 0.0

    out = {f"app.{phase}_ms": mean_ms(phase)
           for phase in ("handler", "queue_wait", "detect", "patch", "verify")}
    client_ms = sum(loop.latency) / len(loop.latency) * 1000.0
    out["http11.outside_handler_ms"] = client_ms - out["app.handler_ms"]
    return out


def fleet_replay(work: Path, sources: Sequence[str], reference: Dict[str, list],
                 tally: Tally) -> Dict[str, float]:
    """Every source twice through a fleet: the repeat should hit the shared tier."""
    proc, port, workers = start_fleet(work, 99)
    try:
        first = Closed(port, "/v1/analyze", _analyze_bodies(sources, False)).run()
        time.sleep(0.2)  # write-through runs after the first reply goes out
        second = Closed(port, "/v1/analyze", _analyze_bodies(sources, False)).run()
        means = _prometheus_means(get_text(port, "/metrics"))
    finally:
        stop(proc, workers)
    for loop in (first, second):
        _check_replies(loop, sources, reference, tally, "fleet replay")
    hits = sum(1 for r in first.replies + second.replies if isinstance(r, dict) and r.get("from_cache"))
    hop_s = means["fleet_request_seconds//v1/analyze"] - means["phase_seconds/handler"]
    return {"fleet.hop_ms": hop_s * 1000.0, "cache.hit_ratio": hits / (2 * len(sources))}


# ------------------------------------------------------------------ entry


def traced(workload: str, seed: int, ops: int, work: Path, trace_file: Path) -> Tuple[Dict[str, float], Tally]:
    """All per-layer metrics for ``workload``'s inputs."""
    tally = Tally()
    tracer = Spans(enabled=True)
    setup = setup_breakdown(work)
    repo = GeneratedRepo(work / "repo", seed)
    pushes = ops if workload == "ci_push" else 4
    edited = tree_probe(repo, pushes, tracer, tally)
    size = min(SWEEP_SOURCES, ops)
    if workload == "ide_snippets":
        sources, patch = distinct_snippets(seed, size), True
    elif workload == "fleet_shared":
        rng = random.Random(seed)
        pool = distinct_snippets(seed, HOT_SET + size // 2)
        hot, fresh = pool[:HOT_SET], pool[HOT_SET:]
        sources = fresh + [rng.choice(hot) for _ in range(size - len(fresh))]
        rng.shuffle(sources)
        patch = False
    else:
        sources, patch = edited, False
    ref = ReferenceDetector()
    reference = {s: ref.findings(s) for s in set(sources)}

    # The first pass warms the interpreter's regex cache for the grouped
    # compiles, so the timed untraced and traced passes start alike.  The
    # traced pass alone reports oracle mismatches; all three see the same
    # sources.
    sweep(sources, patch, Spans(enabled=False), Tally(), reference)
    started = time.perf_counter()
    sweep(sources, patch, Spans(enabled=False), Tally(), reference)
    plain_s = time.perf_counter() - started
    tracer.op = 0
    started = time.perf_counter()
    sweep(sources, patch, tracer, tally, reference)
    traced_s = time.perf_counter() - started

    engine = PatchitPy()
    pool = [found for found in map(engine.detect, sources[:64]) if found]
    store_bytes = cache_probe(work, pool or [[]], tracer)
    replay = list(dict.fromkeys(sources))[:REPLAY_SOURCES]
    metrics = dict(setup)
    metrics.update(daemon_replay(work, replay, reference, tally))
    metrics.update(fleet_replay(work, replay, reference, tally))
    times = tracer.self_times()

    def mean_s(name: str) -> float:
        total, calls = times.get(name, (0.0, 0))
        return total / calls if calls else 0.0

    def us(name: str) -> float:
        return mean_s(name) * 1e6

    def ms(name: str) -> float:
        return mean_s(name) * 1e3

    for size in CACHE_SIZES:
        metrics[f"cache.open_ms.n{size}"] = ms(f"cache.open.n{size}")
        metrics[f"cache.save_ms.n{size}"] = ms(f"cache.save.n{size}")
    n = tally.n
    metrics.update({
        "cache.lookup_us": us("cache.lookup"),
        "cache.store_bytes": store_bytes,
        "candidates.lookup_us": us("candidates.lookup"),
        "candidates.candidate_ratio": tally.ratio("candidates", "rules"),
        "candidates.plan_memo_hit_ratio": n["plan_hits"] / max(1.0, n["plan_hits"] + n["plan_misses"]),
        "groupcompile.probe_us": us("groupcompile.probe"),
        "groupcompile.clear_ratio": tally.ratio("cleared", "candidates"),
        "groupcompile.compile_misses": n["compile_misses"],
        "rules.match_us": us("rules.match"),
        "rules.dispatched_per_detect": tally.ratio("dispatched", "ops"),
        "rules.useful_ratio": tally.ratio("useful", "dispatched"),
        "engine.detect_us": us("engine.detect"),
        "engine.detects_per_op": tally.ratio("detects", "ops"),
        "engine.render_us": us("engine.render"),
        "patcher.apply_us": us("patcher.apply"),
        "imports.prune_us": us("imports.prune"),
        "verify.verify_us": us("verify.verify"),
        "verify.ok_ratio": tally.ratio("verdicts_ok", "verdicts"),
        "types.to_dict_us": us("types.to_dict"),
        "serialize.json_us": us("serialize.json"),
        "serialize.bytes_per_op": tally.ratio("bytes", "ops"),
        "router.route_us": us("router.route"),
        "project.walk_ms": ms("project.walk"),
        "project.files_analyzed_per_push": tally.ratio("analyzed", "pushes"),
        "review.diff_parse_ms": ms("review.diff_parse"),
        "review.review_ms": ms("review.review"),
        "trace.overhead_ratio": traced_s / plain_s,
    })
    tally.n["attempted"] = n["ops"] + n["server_ops"] + n["pushes"]
    tracer.dump(trace_file)
    return metrics, tally
