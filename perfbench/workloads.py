"""The three end-to-end workloads, timed from outside the program.

Each workload makes a fixed number of operations (derived from the run
length), checks every reply against the oracle, and returns the six
end-to-end figures.  Servers run as their own processes; the load
generator is this process with at most two client connections.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import subprocess
import time
from collections import Counter
from pathlib import Path
from statistics import median
from typing import Callable, Dict, List, Sequence, Tuple

from common import (
    Closed,
    child_env,
    free_port,
    get_json,
    patchitpy,
    run_child,
    stop,
    tail,
    vm_hwm_mb,
    wait_healthy,
)
from inputs import GeneratedRepo, distinct_snippets
from oracle import ReferenceDetector, review_classes, scan_lines, spans, wire_spans

from repro.core.engine import PatchitPy

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Operations per second of run length, sized to this workload's pace on
#: a 2-CPU x86 VM, so a run measures about ``--seconds`` of traffic.
IDE_OPS_PER_S = 400
FLEET_OPS_PER_S = 150
PUSH_SECONDS = 0.6
HOT_SET = 64
WARMUP_REQUESTS = 32


class Outcome:
    """Latency samples plus failure accounting for one run."""

    def __init__(self, attempted: int) -> None:
        self.attempted = attempted
        self.failures: List[str] = []
        self.latency: List[float] = []
        self.wall = 0.0
        self.setup: List[float] = []
        self.rss_mb = 0.0
        self.extra: Dict[str, object] = {}

    def fail(self, index: int, why: str) -> None:
        self.failures.append(f"op {index}: {why}")

    def end_to_end(self) -> Dict[str, float]:
        value, name, beyond = tail(self.latency)
        self.extra.update(tail_percentile=name, tail_samples_beyond=beyond)
        return {
            "setup_s": median(self.setup),
            "ops_per_s": self.attempted / self.wall,
            "latency_p50_ms": median(self.latency) * 1000.0,
            "latency_tail_ms": value * 1000.0,
            "success_share": 1.0 - len(self.failures) / self.attempted,
            "peak_rss_mb": self.rss_mb,
        }


def _repeated_setup(start: Callable[[int], tuple], halt: Callable[[tuple], None], out: Outcome):
    """Set the system up ``SETUPS`` times; keep the last one running."""
    handle = None
    for attempt in range(SETUPS):
        if handle is not None:
            halt(handle)
        started = time.perf_counter()
        handle = start(attempt)
        out.setup.append(time.perf_counter() - started)
    return handle


def _spawn(argv: Sequence[str], cwd: Path) -> subprocess.Popen:
    return subprocess.Popen(
        list(argv), cwd=cwd, env=child_env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def start_daemon(work: Path, attempt: int) -> Tuple[subprocess.Popen, int]:
    """``patchitpy serve`` with its default config, on a free port."""
    port_file = work / f"daemon-{attempt}.port"
    proc = _spawn(patchitpy("serve", "--port", "0", "--port-file", str(port_file)), work)
    deadline = time.monotonic() + 60
    while not port_file.exists():
        if proc.poll() is not None or time.monotonic() > deadline:
            stop(proc)
            raise RuntimeError("daemon did not bind a port")
        time.sleep(0.005)
    port = int(port_file.read_text())
    wait_healthy(port, proc, 60)
    return proc, port


def start_fleet(work: Path, attempt: int) -> Tuple[subprocess.Popen, int, List[int]]:
    """``patchitpy fleet`` with 2 workers and the shared cache tier.

    The per-tenant quota is raised out of the way: this workload is one
    tenant measuring the cache tier, not the shedder.
    """
    port = free_port()
    proc = _spawn(
        patchitpy(
            "fleet", "--port", str(port), "--workers", "2",
            "--run-dir", str(work / f"fleet-{attempt}"),
            "--tenant-rate", "1000000", "--tenant-burst", "1000000",
        ),
        work,
    )
    wait_healthy(port, proc, 90, ready=lambda doc: doc.get("workers_up") == 2)
    _, doc = get_json(port, "/healthz")
    return proc, port, [row["pid"] for row in doc["worker_table"]]


def _analyze_bodies(sources: Sequence[str], patch: bool) -> List[bytes]:
    return [json.dumps({"source": s, "patch": patch}).encode("utf-8") for s in sources]


# ----------------------------------------------------------- ide_snippets


def ide_snippets(seed: int, ops: int, work: Path) -> Outcome:
    """Distinct snippets through one daemon with ``"patch": true``."""
    snippets = distinct_snippets(seed, ops + WARMUP_REQUESTS)
    warm, timed = snippets[:WARMUP_REQUESTS], snippets[WARMUP_REQUESTS:]
    reference = ReferenceDetector()
    library = PatchitPy()
    expected = [(spans(reference.findings(s)), library.patch(s).patched) for s in timed]

    out = Outcome(len(timed))
    proc, port = _repeated_setup(
        lambda attempt: start_daemon(work, attempt), lambda h: stop(h[0]), out
    )
    try:
        Closed(port, "/v1/analyze", _analyze_bodies(warm, True)).run()
        loop = Closed(port, "/v1/analyze", _analyze_bodies(timed, True)).run()
        out.rss_mb = vm_hwm_mb(proc.pid)
    finally:
        stop(proc)
    out.latency, out.wall = loop.latency, loop.wall
    for i, (reply, (want, patched)) in enumerate(zip(loop.replies, expected)):
        if not isinstance(reply, dict):
            out.fail(i, str(reply))
        elif wire_spans(reply["findings"]) != want:
            out.fail(i, "findings differ from the reference loop")
        elif reply["patched_source"] != patched:
            out.fail(i, "patched_source differs from PatchitPy().patch")
    return out


# ----------------------------------------------------------- fleet_shared


def fleet_shared(seed: int, ops: int, work: Path) -> Outcome:
    """Half hot-set reads, half fresh misses, through a 2-worker fleet."""
    rng = random.Random(seed)
    fresh_count = ops // 2
    snippets = distinct_snippets(seed, HOT_SET + fresh_count)
    hot, fresh = snippets[:HOT_SET], snippets[HOT_SET:]
    sources = fresh + [rng.choice(hot) for _ in range(ops - fresh_count)]
    rng.shuffle(sources)
    reference = ReferenceDetector()
    want = {s: spans(reference.findings(s)) for s in set(sources)}

    out = Outcome(len(sources))
    proc, port, workers = _repeated_setup(
        lambda attempt: start_fleet(work, attempt), lambda h: stop(h[0], h[2]), out
    )
    try:
        _fill_hot_set(port, hot)
        loop = Closed(port, "/v1/analyze", _analyze_bodies(sources, False)).run()
        out.rss_mb = sum(vm_hwm_mb(pid) for pid in [proc.pid, *workers])
    finally:
        stop(proc, workers)
    out.latency, out.wall = loop.latency, loop.wall
    hits = 0
    for i, (reply, source) in enumerate(zip(loop.replies, sources)):
        if not isinstance(reply, dict):
            out.fail(i, str(reply))
        elif wire_spans(reply["findings"]) != want[source]:
            out.fail(i, "findings differ from the reference loop")
        else:
            hits += bool(reply.get("from_cache"))
    out.extra["from_cache_share"] = hits / len(sources)
    return out


def _fill_hot_set(port: int, hot: Sequence[str]) -> None:
    """Write the hot set through, then wait until every entry is served warm."""
    bodies = _analyze_bodies(hot, False)
    pending = list(range(len(hot)))
    deadline = time.monotonic() + 60
    while pending:
        if time.monotonic() > deadline:
            raise RuntimeError(f"{len(pending)} hot-set entries never came back from_cache")
        loop = Closed(port, "/v1/analyze", [bodies[i] for i in pending]).run()
        pending = [
            i for i, reply in zip(pending, loop.replies)
            if not (isinstance(reply, dict) and reply.get("from_cache"))
        ]
        time.sleep(0.05)


# ---------------------------------------------------------------- ci_push

_PATH_LINE = re.compile(r"^(\S+\.py):$")
_FINDING_LINE = re.compile(r"^  line\s+(\d+) \[(\S+) [^\]]*\] \([^)]*\) (.*)$")


def parse_scan(text: str) -> Dict[str, Counter]:
    """``patchitpy scan`` text output as ``path -> Counter((line, cwe, message))``."""
    found: Dict[str, Counter] = {}
    current = None
    for line in text.splitlines():
        path = _PATH_LINE.match(line)
        if path:
            current = found.setdefault(os.path.normpath(path.group(1)), Counter())
            continue
        finding = _FINDING_LINE.match(line)
        if finding and current is not None:
            current[(int(finding.group(1)), finding.group(2), finding.group(3))] += 1
    return found


def ci_push(seed: int, pushes: int, work: Path) -> Outcome:
    """Cold ``scan .`` plus cold ``review HEAD~1..HEAD`` per pushed commit."""
    repo = GeneratedRepo(work / "repo", seed)
    reference = ReferenceDetector()
    refs = {rel: reference.findings(text) for rel, text in repo.files.items()}

    def expected_scan() -> Dict[str, Counter]:
        return {
            rel: scan_lines(repo.files[rel], found)
            for rel, found in refs.items() if found
        }

    def scan_error(code: int, text: str) -> str:
        want = expected_scan()
        if code != (1 if want else 0):
            return f"scan exited {code}"
        if parse_scan(text) != want:
            return "scan findings differ from the reference loop"
        return ""

    out = Outcome(pushes)

    def cold_scan(attempt: int) -> None:
        shutil.rmtree(repo.root / ".patchitpy-cache", ignore_errors=True)
        error = scan_error(*run_child(patchitpy("scan", "."), repo.root)[:2])
        if error:
            raise RuntimeError(f"set-up scan {attempt}: {error}")

    _repeated_setup(cold_scan, lambda _h: None, out)
    for index in range(pushes):
        before = repo.push()
        want_review = []
        for rel, old in before.items():
            old_refs = refs[rel]
            refs[rel] = reference.findings(repo.files[rel])
            want_review += [
                (rel, *item)
                for item in review_classes(old, old_refs, repo.files[rel], refs[rel])
            ]
        want_review.sort()
        scan_code, scan_text, scan_s, scan_rss = run_child(patchitpy("scan", "."), repo.root)
        review_code, review_text, review_s, review_rss = run_child(
            patchitpy("review", "HEAD~1..HEAD", "--format", "json"), repo.root
        )
        out.latency.append(scan_s + review_s)
        out.rss_mb = max(out.rss_mb, scan_rss, review_rss)
        error = scan_error(scan_code, scan_text)
        if not error and review_code != (1 if any(w[1] == "introduced" for w in want_review) else 0):
            error = f"review exited {review_code}"
        if not error:
            got = sorted(
                (item["path"], item["status"], item["finding"]["rule_id"],
                 *item["finding"]["span"])
                for item in json.loads(review_text)["findings"]
            )
            if got != want_review:
                error = "review findings differ from the reference loop"
        if error:
            out.fail(index, error)
    out.wall = sum(out.latency)
    return out


WORKLOADS = {
    "ide_snippets": (ide_snippets, lambda seconds: max(8, round(IDE_OPS_PER_S * seconds))),
    "fleet_shared": (fleet_shared, lambda seconds: max(8, round(FLEET_OPS_PER_S * seconds))),
    "ci_push": (ci_push, lambda seconds: max(2, round(seconds / PUSH_SECONDS))),
}
