"""Tests for the persistent scan-result cache and incremental scanning."""

import json
import os
import time
from pathlib import Path

import pytest

from repro import PatchitPy, ProjectScanner, default_ruleset
from repro.core.cache import (
    CACHE_DIR_NAME,
    CACHE_FILE_NAME,
    CACHE_SCHEMA_VERSION,
    ResultStore,
    ScanCache,
    hash_source,
)
from repro.types import Confidence, Finding, Severity, Span

VULN = "import pickle\n\ndata = pickle.loads(blob)\n"
CLEAN = "def add(a, b):\n    return a + b\n"


class CountingEngine(PatchitPy):
    """Engine that counts detect() calls (module level, so it pickles)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.detect_calls = 0

    def detect(self, source):
        self.detect_calls += 1
        return super().detect(source)


@pytest.fixture()
def tree(tmp_path):
    (tmp_path / "vuln.py").write_text(VULN)
    (tmp_path / "clean.py").write_text(CLEAN)
    return tmp_path


class TestScanCacheStore:
    def test_round_trips_findings(self, tmp_path):
        finding = Finding(
            rule_id="PIT-A08-01",
            cwe_id="CWE-502",
            message="pickle.loads on untrusted data",
            span=Span(15, 27),
            snippet="pickle.loads",
            severity=Severity.HIGH,
            confidence=Confidence.HIGH,
            fixable=True,
        )
        cache = ScanCache(tmp_path, "fp")
        cache.store("digest-1", [finding])
        assert cache.save()
        reloaded = ScanCache(tmp_path, "fp")
        entry = reloaded.lookup("digest-1")
        assert entry is not None
        assert entry.findings == [finding]
        assert entry.error is None

    def test_error_outcomes_cached(self, tmp_path):
        cache = ScanCache(tmp_path, "fp")
        cache.store("digest-bad", [], error="decode failed")
        cache.save()
        entry = ScanCache(tmp_path, "fp").lookup("digest-bad")
        assert entry.error == "decode failed"
        assert entry.findings == []

    def test_fingerprint_mismatch_discards_store(self, tmp_path):
        cache = ScanCache(tmp_path, "fp-old")
        cache.store("digest-1", [])
        cache.save()
        assert ScanCache(tmp_path, "fp-old").lookup("digest-1") is not None
        assert ScanCache(tmp_path, "fp-new").lookup("digest-1") is None

    def test_corrupt_store_loads_empty(self, tmp_path):
        cache_dir = tmp_path / CACHE_DIR_NAME
        cache_dir.mkdir()
        (cache_dir / CACHE_FILE_NAME).write_text("{not json")
        cache = ScanCache(tmp_path, "fp")
        assert len(cache) == 0

    def test_schema_bump_discards_store(self, tmp_path):
        cache = ScanCache(tmp_path, "fp")
        cache.store("digest-1", [])
        cache.save()
        raw = json.loads((tmp_path / CACHE_DIR_NAME / CACHE_FILE_NAME).read_text())
        raw["schema"] = CACHE_SCHEMA_VERSION + 1
        (tmp_path / CACHE_DIR_NAME / CACHE_FILE_NAME).write_text(json.dumps(raw))
        assert len(ScanCache(tmp_path, "fp")) == 0

    def test_clear_removes_store(self, tmp_path):
        cache = ScanCache(tmp_path, "fp")
        cache.store("digest-1", [])
        cache.save()
        assert ScanCache.clear(tmp_path)
        assert not (tmp_path / CACHE_DIR_NAME).exists()
        assert not ScanCache.clear(tmp_path)

    def test_eviction_bounds_store(self, tmp_path):
        cache = ScanCache(tmp_path, "fp", max_entries=3)
        for i in range(5):
            cache.store(f"digest-{i}", [])
        cache.save()
        reloaded = ScanCache(tmp_path, "fp", max_entries=3)
        assert len(reloaded) == 3
        assert reloaded.lookup("digest-4") is not None
        assert reloaded.lookup("digest-0") is None

    def test_stat_hint_requires_unchanged_mtime_and_size(self, tmp_path):
        target = tmp_path / "f.py"
        target.write_text(CLEAN)
        stat = target.stat()
        cache = ScanCache(tmp_path, "fp")
        cache.remember_stat(target, stat, "digest-1")
        assert cache.stat_digest(target, stat) == "digest-1"
        target.write_text(CLEAN + "# more\n")
        assert cache.stat_digest(target, target.stat()) is None

    def test_hint_keys_are_absolute_paths(self, tmp_path, monkeypatch):
        # the on-disk key is str(path.absolute()), so stores written by
        # earlier releases keep hitting
        monkeypatch.chdir(tmp_path)
        target = Path("f.py")
        target.write_text(CLEAN)
        cache = ScanCache(tmp_path, "fp")
        cache.remember_stat(target, target.stat(), "digest-1")
        cache.save()
        raw = json.loads((tmp_path / CACHE_DIR_NAME / CACHE_FILE_NAME).read_text())
        assert list(raw["stat_hints"]) == [str(target.absolute())]
        reopened = ScanCache(tmp_path, "fp")
        assert reopened.stat_digest(tmp_path / "f.py", target.stat()) == "digest-1"

    def test_hash_source_matches_bytes(self):
        import hashlib

        assert hash_source(VULN) == hashlib.sha256(VULN.encode()).hexdigest()


class TestIncrementalScan:
    def test_warm_scan_performs_zero_detect_calls(self, tree):
        engine = CountingEngine()
        scanner = ProjectScanner(engine=engine)
        cold = scanner.scan(tree, use_cache=True)
        assert engine.detect_calls == 2
        assert cold.cache_misses == 2 and cold.cache_hits == 0

        engine.detect_calls = 0
        warm = scanner.scan(tree, use_cache=True)
        assert engine.detect_calls == 0
        assert warm.cache_hits == 2 and warm.cache_misses == 0
        assert warm.total_findings == cold.total_findings
        assert all(f.from_cache for f in warm.files)

    def test_warm_scan_of_unchanged_tree_writes_no_store(self, tree):
        scanner = ProjectScanner()
        scanner.scan(tree, use_cache=True)
        store = tree / CACHE_DIR_NAME / CACHE_FILE_NAME
        before = store.stat()
        warm = scanner.scan(tree, use_cache=True)
        after = store.stat()
        assert warm.cache_hits == 2 and warm.cache_misses == 0
        assert all(f.from_cache for f in warm.files)
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)

    def test_warm_report_identical_to_cold(self, tree):
        scanner = ProjectScanner()
        cold = scanner.scan(tree, use_cache=True)
        warm = scanner.scan(tree, use_cache=True)
        assert [f.path for f in cold.files] == [f.path for f in warm.files]
        assert [
            [fi.to_dict() for fi in f.findings] for f in cold.files
        ] == [[fi.to_dict() for fi in f.findings] for f in warm.files]

    def test_modified_file_reanalyzed(self, tree):
        engine = CountingEngine()
        scanner = ProjectScanner(engine=engine)
        scanner.scan(tree, use_cache=True)
        (tree / "clean.py").write_text("import pickle\nx = pickle.loads(y)\n")
        engine.detect_calls = 0
        rescan = scanner.scan(tree, use_cache=True)
        assert engine.detect_calls == 1
        assert rescan.cache_hits == 1 and rescan.cache_misses == 1
        assert rescan.total_findings == 2

    def test_rule_change_invalidates_cache(self, tree):
        scanner = ProjectScanner()
        scanner.scan(tree, use_cache=True)

        engine = CountingEngine(rules=default_ruleset().without("PIT-A08-01"))
        changed = ProjectScanner(engine=engine)
        report = changed.scan(tree, use_cache=True)
        assert engine.detect_calls == 2  # nothing reused across fingerprints
        assert report.cache_misses == 2

    def test_touched_but_unchanged_content_still_hits(self, tree):
        scanner = ProjectScanner()
        scanner.scan(tree, use_cache=True)
        # rewrite identical bytes with a new mtime: stat hint misses, the
        # content digest still hits
        os.utime(tree / "vuln.py", ns=(1, 1))
        (tree / "vuln.py").write_text(VULN)
        engine = CountingEngine()
        warm = ProjectScanner(engine=engine).scan(tree, use_cache=True)
        assert engine.detect_calls == 0
        assert warm.cache_hits == 2
        # the refreshed hint was saved: the next scan skips the read+hash
        reopened = ScanCache(tree, engine.rules.fingerprint())
        target = tree / "vuln.py"
        assert reopened.stat_digest(target, target.stat()) == hash_source(VULN)

    def test_cache_dir_not_scanned(self, tree):
        scanner = ProjectScanner()
        scanner.scan(tree, use_cache=True)
        # plant a vulnerable .py inside the cache dir; it must be ignored
        (tree / CACHE_DIR_NAME / "planted.py").write_text(VULN)
        report = scanner.scan(tree, use_cache=True)
        assert len(report.files) == 2

    def test_undecodable_file_cached_as_error(self, tree):
        (tree / "bad.py").write_bytes(b"\xff\xfe\x00 junk")
        engine = CountingEngine()
        scanner = ProjectScanner(engine=engine)
        cold = scanner.scan(tree, use_cache=True)
        assert sum(1 for f in cold.files if f.error) == 1
        engine.detect_calls = 0
        warm = scanner.scan(tree, use_cache=True)
        assert engine.detect_calls == 0
        assert warm.cache_misses == 0
        bad = [f for f in warm.files if f.path.name == "bad.py"][0]
        assert bad.error

    def test_cache_survives_readonly_root(self, tree, monkeypatch):
        """Save failures degrade to an uncached scan, not an exception."""
        scanner = ProjectScanner()
        report = scanner.scan(tree, use_cache=True)
        assert report.total_findings >= 1
        # simulate unwritable store: save() returns False instead of raising
        cache = scanner.open_cache(tree)
        monkeypatch.setattr(
            Path, "mkdir", lambda *a, **k: (_ for _ in ()).throw(OSError("ro"))
        )
        cache.store("d", [])
        assert cache.save() is False


class TestPatchTreeCache:
    def test_patch_tree_reuses_cached_detect(self, tree):
        engine = CountingEngine()
        scanner = ProjectScanner(engine=engine)
        scanner.scan(tree, use_cache=True)
        engine.detect_calls = 0
        report = scanner.patch_tree(tree, use_cache=True)
        # detection reused from cache for both files; the patch pass
        # itself still re-detects internally on the vulnerable file only
        assert report.cache_hits == 2
        patched = [f for f in report.files if f.patched]
        assert len(patched) == 1
        assert all(f.from_cache for f in report.files if f.error is None)


class TestScanCacheLifecycle:
    """The open/close contract the scan daemon relies on."""

    def test_close_persists_and_is_idempotent(self, tmp_path):
        cache = ScanCache(tmp_path, "fp")
        cache.store("d1", [])
        assert cache.close() is True  # first close performs the save
        assert cache.closed
        assert cache.close() is False  # second close is a no-op
        reloaded = ScanCache(tmp_path, "fp")
        assert reloaded.lookup("d1") is not None

    def test_mutations_after_close_are_noops(self, tmp_path):
        cache = ScanCache(tmp_path, "fp")
        cache.store("kept", [])
        cache.close()
        cache.store("dropped", [])
        cache.remember_stat(tmp_path / "f.py", os.stat(tmp_path), "dropped")
        assert cache.save() is False
        reloaded = ScanCache(tmp_path, "fp")
        assert reloaded.lookup("kept") is not None
        assert reloaded.lookup("dropped") is None
        # direct misses, because the post-close lookup above also counted
        assert reloaded.misses >= 1

    def test_lookups_keep_working_after_close(self, tmp_path):
        cache = ScanCache(tmp_path, "fp")
        cache.store("d1", [])
        cache.close()
        assert cache.lookup("d1") is not None

    def test_context_manager_closes(self, tmp_path):
        with ScanCache(tmp_path, "fp") as cache:
            cache.store("d1", [])
        assert cache.closed
        assert ScanCache(tmp_path, "fp").lookup("d1") is not None

    def test_concurrent_readers_and_writers_one_process(self, tmp_path):
        """Overlapping store/lookup threads never corrupt the tables.

        This is the daemon's exact sharing pattern: one open cache, many
        request threads hitting it concurrently.
        """
        import threading

        cache = ScanCache(tmp_path, "fp")
        errors = []
        barrier = threading.Barrier(8)

        def worker(slot):
            try:
                barrier.wait(timeout=10)
                for i in range(200):
                    digest = f"w{slot}-{i}"
                    cache.store(digest, [])
                    assert cache.lookup(digest) is not None
                    cache.lookup(f"missing-{slot}-{i}")
                    if i % 50 == 0:
                        cache.save()
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(cache) == 8 * 200
        assert cache.hits == 8 * 200
        assert cache.misses == 8 * 200
        assert cache.close() in (True, False)
        reloaded = ScanCache(tmp_path, "fp")
        assert len(reloaded) == 8 * 200

    def test_scanner_accepts_caller_held_cache(self, tree):
        """scan(cache=...) reuses the open cache and reports per-scan deltas."""
        scanner = ProjectScanner()
        cache = scanner.open_cache(tree)
        cold = scanner.scan(tree, cache=cache)
        warm = scanner.scan(tree, cache=cache)
        assert not cache.closed  # caller-held caches are never closed
        assert cold.cache_misses == 2 and cold.cache_hits == 0
        # deltas, not the cache's lifetime totals
        assert warm.cache_hits == 2 and warm.cache_misses == 0
        cache.close()


def _finding(rule_id="PIT-A08-01"):
    return Finding(
        rule_id=rule_id,
        cwe_id="CWE-502",
        message="pickle.loads on untrusted data",
        span=Span(15, 27),
        snippet="pickle.loads",
        severity=Severity.HIGH,
        confidence=Confidence.HIGH,
        fixable=True,
    )


class TestSharedCacheTier:
    """The cross-process concurrent-open contract of :class:`ResultStore`.

    These tests simulate fleet workers by holding independently
    constructed stores open on the same directory — which is exactly
    what daemon processes do, minus the address spaces (the last test
    adds those back).  The contract under test: one store's publish is
    a sibling's hit on its very next lookup, with no lock, merge or
    refresh in between, and nothing a writer or a corrupt file does can
    turn a lookup into a wrong answer or an exception.
    """

    def test_siblings_store_is_a_hit_on_next_lookup(self, tmp_path):
        writer = ResultStore(tmp_path, "fp")
        reader = ResultStore(tmp_path, "fp")
        assert reader.lookup("digest-shared") is None
        assert writer.store("digest-shared", [_finding()])
        entry = reader.lookup("digest-shared")
        assert entry is not None and entry.findings == [_finding()]
        assert entry.error is None
        writer.close()

    def test_unshared_cache_never_refreshes(self, tmp_path):
        """The tree store stays a load-once snapshot: a sibling's save
        shows up only when the cache is reopened."""
        writer = ScanCache(tmp_path, "fp")
        reader = ScanCache(tmp_path, "fp")
        writer.store("digest-x", [_finding()])
        assert writer.save()
        assert reader.lookup("digest-x") is None
        assert ScanCache(tmp_path, "fp").lookup("digest-x") is not None

    def test_true_miss_probes_but_stays_a_miss(self, tmp_path):
        writer = ResultStore(tmp_path, "fp")
        reader = ResultStore(tmp_path, "fp")
        assert writer.store("digest-present", [_finding()])
        assert reader.lookup("digest-absent") is None
        assert reader.lookup("digest-present") is not None
        writer.close()

    def test_an_entry_over_max_bytes_reads_as_a_miss(self, tmp_path):
        store = ResultStore(tmp_path, "fp")
        assert store.store("digest-big", [_finding()] * 3)
        size = Path(store.path_for("digest-big")).stat().st_size
        assert store.lookup("digest-big", max_bytes=size - 1) is None
        entry = store.lookup("digest-big", max_bytes=size)
        assert entry is not None and entry.findings == [_finding()] * 3
        store.close()

    def test_saves_merge_instead_of_clobbering(self, tmp_path):
        a = ResultStore(tmp_path, "fp")
        b = ResultStore(tmp_path, "fp")
        assert a.store("digest-a", [_finding("PIT-A08-01")])
        assert b.store("digest-b", [_finding("PIT-A03-01")])
        fresh = ResultStore(tmp_path, "fp")
        assert fresh.lookup("digest-a").findings[0].rule_id == "PIT-A08-01"
        assert fresh.lookup("digest-b").findings[0].rule_id == "PIT-A03-01"
        a.close()
        b.close()

    @pytest.mark.parametrize(
        "damage",
        [b"", b'{"findings": [{"rule_id": "PIT', b"not json", b"[]", b'{"findings": 5}'],
        ids=["empty", "truncated", "non-json", "list", "bad-findings"],
    )
    def test_corrupt_entry_reads_as_a_miss_until_the_next_store(
        self, tmp_path, damage
    ):
        store = ResultStore(tmp_path, "fp")
        assert store.store("digest-bad", [_finding()])
        Path(store.path_for("digest-bad")).write_bytes(damage)
        assert store.lookup("digest-bad") is None
        assert store.store("digest-bad", [_finding()])
        assert store.lookup("digest-bad").findings == [_finding()]
        store.close()

    def test_foreign_fingerprint_is_never_read(self, tmp_path):
        old = ResultStore(tmp_path, "old-rules")
        assert old.store("digest-x", [_finding()])
        new = ResultStore(tmp_path, "new-rules")
        assert new.lookup("digest-x") is None
        # each ruleset (and schema) owns its own object directory
        assert old.objects_dir != new.objects_dir
        assert f"v{CACHE_SCHEMA_VERSION}" in new.objects_dir.name
        old.close()

    def test_entry_bound_holds_oldest_first(self, tmp_path):
        """Every fingerprint counts toward the bound, so a retired
        ruleset's entries age out first; mtimes are set a second apart
        so that "oldest" is unambiguous on coarse-timestamp filesystems."""
        now = time.time()
        retired = ResultStore(tmp_path, "old-rules")
        for i in range(4):
            assert retired.store(f"old-{i}", [])
            os.utime(retired.path_for(f"old-{i}"), (now - 3600, now - 3600))
        retired.close()
        live = ResultStore(tmp_path, "fp", max_entries=8)
        for i in range(20):
            assert live.store(f"new-{i}", [])
            os.utime(live.path_for(f"new-{i}"), (now - 20 + i, now - 20 + i))
        live.close()
        # the stores' own background prunes already trimmed the directory
        assert len([path for path in tmp_path.rglob("*") if path.is_file()]) < 24
        live.prune()
        files = [path for path in tmp_path.rglob("*") if path.is_file()]
        assert 0 < len(files) <= 8
        survivors = {f"new-{i}" for i in range(20) if live.lookup(f"new-{i}")}
        assert survivors == {f"new-{i}" for i in range(20 - len(files), 20)}
        assert all(retired.lookup(f"old-{i}") is None for i in range(4))

    def test_store_and_lookup_touch_one_file_at_10k_entries(self, tmp_path):
        """O(1) per entry, structurally: with 10^4 entries stored, a store
        writes one file and a lookup opens one, and neither lists a
        directory on the caller's thread."""
        import sys
        import threading

        filler = ResultStore(tmp_path, "fp")
        for i in range(10_000):
            assert filler.store(hash_source(f"entry {i}"), [])
        filler.close()
        store = ResultStore(tmp_path, "fp")
        caller = threading.get_ident()
        events = []
        watching = [False]

        def audit(event, args):
            if watching[0] and threading.get_ident() == caller:
                if event in ("open", "os.rename", "os.scandir", "os.listdir"):
                    events.append(event)

        sys.addaudithook(audit)
        digest = hash_source("one more")
        try:
            watching[0] = True
            assert store.store(digest, [_finding()])
            stored, events[:] = list(events), []
            assert store.lookup(digest) is not None
            looked = list(events)
        finally:
            watching[0] = False
        store.close()
        assert stored == ["open", "os.rename"]
        assert looked == ["open"]

    def test_threads_racing_on_one_store(self, tmp_path):
        """The daemon's pattern: executor threads publishing through one
        store, on one digest and on distinct ones, with a tiny switch
        interval to shake out shared temp names or lost entries."""
        import sys
        import threading

        store = ResultStore(tmp_path, "fp", max_entries=10_000)
        errors = []
        barrier = threading.Barrier(8)

        def writer(slot):
            try:
                barrier.wait(timeout=10)
                for i in range(100):
                    assert store.store("digest-race", [_finding()])
                    assert store.store(f"digest-{slot}-{i}", [_finding()])
                    assert store.lookup("digest-race") is not None
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer, args=(n,)) for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        store.close()
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert all(
            store.lookup(f"digest-{n}-{i}") is not None
            for n in range(8)
            for i in range(100)
        )
        assert not list(tmp_path.rglob("*.tmp"))

    def test_cross_process_write_through(self, tmp_path):
        """N real processes race on one digest and on distinct digests
        while this process reads: no lookup ever sees a partial entry,
        and every entry is readable afterwards."""
        import subprocess
        import sys
        import textwrap

        writers = 4
        reader = ResultStore(tmp_path, "fp")
        assert reader.lookup("digest-race") is None
        script = textwrap.dedent(
            f"""
            import sys
            from pathlib import Path
            from repro.core.cache import ResultStore
            from repro.types import Confidence, Finding, Severity, Span
            me = int(sys.argv[1])
            finding = Finding(
                rule_id="PIT-A08-01", cwe_id="CWE-502", message="m",
                span=Span(0, 1), snippet="s", severity=Severity.HIGH,
                confidence=Confidence.HIGH, fixable=True)
            store = ResultStore(Path({str(tmp_path)!r}), "fp")
            for i in range(200):
                assert store.store("digest-race", [finding])
                assert store.store(f"digest-proc-{{me}}-{{i}}", [finding])
            store.close()
            """
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        procs = [
            subprocess.Popen([sys.executable, "-c", script, str(n)], env=env)
            for n in range(writers)
        ]
        deadline = time.monotonic() + 120
        published = False
        while any(proc.poll() is None for proc in procs):
            assert time.monotonic() < deadline, "writer processes hung"
            entry = reader.lookup("digest-race")  # never raises, never partial
            # once published, an entry is only ever replaced whole
            assert entry is not None or not published
            if entry is not None:
                assert [f.rule_id for f in entry.findings] == ["PIT-A08-01"]
                published = True
        assert [proc.wait(timeout=60) for proc in procs] == [0] * writers
        entry = reader.lookup("digest-race")
        assert entry is not None and entry.findings[0].rule_id == "PIT-A08-01"
        for n in range(writers):
            for i in range(200):
                assert reader.lookup(f"digest-proc-{n}-{i}") is not None
        assert not list(tmp_path.rglob("*.tmp"))
