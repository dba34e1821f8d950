"""Persistent result caches: content-hash keyed, ruleset-versioned.

Most content a scanner sees has been seen before (IDE save loops, CI
runs, fleet siblings), so detect results are stored per *content digest*
(SHA-256 of the analyzed bytes): unchanged content costs one hash instead
of an 85-rule regex pass, and a renamed or copied file still hits.  Two
stores share that key, the entry shape and the invalidation scheme:

- :class:`ScanCache`, for tree scans, keeps a scan root's entries in one
  JSON file under ``.patchitpy-cache/``, loaded once on open and written
  once on close — the cheapest shape for a CLI run over thousands of
  files.  A ``stat hints`` table maps absolute paths to ``(mtime_ns,
  size, digest)``, so warm scans of untouched files skip even the
  read+hash; the hint is trusted only when both mtime and size match.
- :class:`ResultStore`, the fleet's shared snippet tier, keeps one file
  per digest, ``objects-v<schema>-<fingerprint>/<d[:2]>/<d[2:]>``, the
  way git stores loose objects: a lookup reads one file and a store
  writes one, however many entries the tier holds.

Invalidation is by construction: an edit changes the digest, so the old
entry is never looked up again (the bounded stores evict it eventually);
a rule change changes the ruleset fingerprint
(:meth:`~repro.core.rules.base.RuleSet.fingerprint`) and a schema change
bumps :data:`CACHE_SCHEMA_VERSION` — a tree store written under either is
discarded on load, and a result store never opens another fingerprint's
or schema's object directory.  Neither store raises: corrupt or
unreadable entries read as misses, and failed writes (read-only or full
disks) return False.

:class:`ScanCache` is safe to share between threads of one process (every
public operation takes the instance lock — the daemon holds one open
across overlapping requests), and :meth:`ScanCache.close` is idempotent,
so several shutdown paths may close the same cache.

**Concurrent-open contract (cross-process).**  Any number of processes
may open the same directory at once; neither store is ever corrupted.

- :class:`ScanCache` stages its whole snapshot in a per-PID temp file and
  publishes it with ``os.replace``, so a reader never sees a half-written
  index.  It is a single-owner snapshot, read once at open: two processes
  saving one root race last-writer-wins and lose each other's *new*
  entries, never the index.
- :class:`ResultStore` writes each entry to a temp file beside its final
  name and publishes it with ``os.replace``, so a reader sees no entry or
  a whole one.  Writers of distinct digests touch distinct files; racing
  writers of one digest publish equivalent bytes, so whichever replace
  lands last is right.  No lock, no merge, no in-process table: once
  :meth:`ResultStore.store` returns True, every opener's next lookup of
  that digest is a hit.

Findings round-trip through :meth:`~repro.types.Finding.to_dict`,
provenance included, so ``--explain`` on a fully cached scan still names
every guard verdict without re-matching.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.types import Finding

CACHE_DIR_NAME = ".patchitpy-cache"
CACHE_FILE_NAME = "scan-cache.json"
CACHE_SCHEMA_VERSION = 1

# Entries beyond this are dropped, oldest first, so neither store can grow
# without bound on long-lived checkouts or fleets.
DEFAULT_MAX_ENTRIES = 50_000

#: A :class:`ResultStore` object directory is this + schema + fingerprint.
OBJECTS_PREFIX = "objects-v"


def hash_bytes(data: bytes) -> str:
    """SHA-256 hex digest of raw file bytes — the cache key."""
    return hashlib.sha256(data).hexdigest()


def hash_source(source: str) -> str:
    """Digest of a decoded source string (UTF-8 re-encoded)."""
    return hash_bytes(source.encode("utf-8"))


@dataclass(frozen=True)
class CachedResult:
    """The stored outcome of analyzing one file content."""

    findings: List[Finding]
    error: Optional[str] = None


def _entry(findings: Sequence[Finding], error: Optional[str]) -> dict:
    """The stored JSON shape of one analysis outcome."""
    return {"findings": [finding.to_dict() for finding in findings], "error": error}


def _result(entry: dict) -> CachedResult:
    """Inverse of :func:`_entry`."""
    findings = [Finding.from_dict(item) for item in entry.get("findings", ())]
    return CachedResult(findings=findings, error=entry.get("error"))


class ScanCache:
    """Content-addressed store of per-file detect results for tree scans.

    Parameters
    ----------
    root:
        Directory holding the ``.patchitpy-cache/`` store (normally the
        scan root).
    fingerprint:
        The active ruleset fingerprint; a persisted store written under a
        different fingerprint is ignored and overwritten on save.
    """

    def __init__(
        self,
        root: Path,
        fingerprint: str,
        max_entries: int = DEFAULT_MAX_ENTRIES,
    ) -> None:
        self.root = Path(root)
        self.fingerprint = fingerprint
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.stale_hints = 0
        self._entries: Dict[str, dict] = {}
        self._stat_hints: Dict[str, dict] = {}
        self._dirty = False
        self._closed = False
        # Reentrant: save() runs under the lock and close() calls save().
        self._lock = threading.RLock()
        self._load()

    # ------------------------------------------------------------- paths

    @property
    def cache_dir(self) -> Path:
        return self.root / CACHE_DIR_NAME

    @property
    def cache_file(self) -> Path:
        return self.cache_dir / CACHE_FILE_NAME

    # ------------------------------------------------------------ lookup

    def lookup(self, digest: str) -> Optional[CachedResult]:
        """Stored result for a content digest, or ``None`` on a miss."""
        with self._lock:
            entry = self._entries.get(digest)
            if entry is None:
                self.misses += 1
                return None
            self.hits += 1
        return _result(entry)

    def store(
        self,
        digest: str,
        findings: Sequence[Finding],
        error: Optional[str] = None,
    ) -> None:
        """Record the analysis outcome for a content digest."""
        entry = _entry(findings, error)
        with self._lock:
            if self._closed:
                return
            self._entries[digest] = entry
            self._dirty = True

    # --------------------------------------------------- stat fast path

    def stat_digest(self, path: Path, stat: os.stat_result) -> Optional[str]:
        """Digest recorded for ``path`` if its mtime+size are unchanged.

        A hint whose mtime or size no longer matches counts as *stale*
        (``self.stale_hints``): the file changed on disk, so the caller
        falls back to the read-and-hash path.
        """
        with self._lock:
            hint = self._stat_hints.get(str(path.absolute()))
            if hint is None:
                return None
            if (
                hint.get("mtime_ns") != stat.st_mtime_ns
                or hint.get("size") != stat.st_size
            ):
                self.stale_hints += 1
                return None
            return hint.get("digest")

    def remember_stat(self, path: Path, stat: os.stat_result, digest: str) -> None:
        """Record the mtime/size → digest hint for a path."""
        hint = {
            "mtime_ns": stat.st_mtime_ns,
            "size": stat.st_size,
            "digest": digest,
        }
        with self._lock:
            if self._closed:
                return
            self._stat_hints[str(path.absolute())] = hint
            self._dirty = True

    def forget_path(self, path: Path) -> None:
        """Drop the stat hint for a path (e.g. after patching it)."""
        with self._lock:
            if self._stat_hints.pop(str(path.absolute()), None) is not None:
                self._dirty = True

    # ------------------------------------------------------- persistence

    def _load(self) -> None:
        """Read the persisted store into the tables.

        Corruption, a foreign schema, or a foreign ruleset fingerprint
        all leave them empty — a cache must never raise.
        """
        try:
            raw = json.loads(self.cache_file.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return
        if not isinstance(raw, dict):
            return
        if raw.get("schema") != CACHE_SCHEMA_VERSION:
            return
        if raw.get("fingerprint") != self.fingerprint:
            return  # ruleset changed: every stored verdict is suspect
        entries = raw.get("entries")
        hints = raw.get("stat_hints")
        if isinstance(entries, dict):
            self._entries = entries
        if isinstance(hints, dict):
            self._stat_hints = hints

    def save(self) -> bool:
        """Persist the store atomically; returns False when skipped/failed.

        The snapshot is staged in a per-PID temp file and published with
        ``os.replace``, so concurrent savers of one root can only lose
        each other's entries, never corrupt the index.
        """
        with self._lock:
            if not self._dirty:
                return False
            try:
                self.cache_dir.mkdir(parents=True, exist_ok=True)
                if len(self._entries) > self.max_entries:
                    overflow = len(self._entries) - self.max_entries
                    for digest in list(self._entries)[:overflow]:
                        del self._entries[digest]
                payload = {
                    "schema": CACHE_SCHEMA_VERSION,
                    "fingerprint": self.fingerprint,
                    "entries": self._entries,
                    "stat_hints": self._stat_hints,
                }
                tmp = self.cache_file.with_suffix(f".json.tmp{os.getpid()}")
                tmp.write_text(
                    json.dumps(payload, separators=(",", ":")), encoding="utf-8"
                )
                os.replace(tmp, self.cache_file)
            except OSError:
                return False
            self._dirty = False
            return True

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # --------------------------------------------------------- lifecycle

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run."""
        return self._closed

    def close(self) -> bool:
        """Persist pending writes and retire the store; idempotent.

        The first call saves (when dirty) and marks the cache closed;
        every later call — and every later :meth:`store`/
        :meth:`remember_stat`/:meth:`save` — is a no-op, so multiple
        shutdown paths (request handler, drain hook, ``atexit``) can all
        close the same instance safely.  Lookups keep working read-only.
        Returns True when this call performed the persisting save.
        """
        with self._lock:
            if self._closed:
                return False
            saved = self.save()
            self._closed = True
            return saved

    def __enter__(self) -> "ScanCache":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @classmethod
    def clear(cls, root: Path) -> bool:
        """Delete the persisted store under ``root``; True if one existed."""
        directory = Path(root) / CACHE_DIR_NAME
        if not directory.is_dir():
            return False
        shutil.rmtree(directory, ignore_errors=True)
        return True


class ResultStore:
    """One result file per digest under ``root``, shared across processes.

    Lookups and stores cost one file each at any size; the page cache is
    the memory tier.  The directory is bounded at ``max_entries`` files,
    oldest first, by :meth:`prune`, the only whole-directory pass.  It
    never runs on a caller's thread: a store's first publish and every
    ``max_entries // 8`` after it start one in the background, trimming
    to seven eighths of the bound, so a lone writer stays within it and
    N writers overshoot by at most ``(N - 1)/8``.  Every fingerprint and
    schema counts, so a retired ruleset's entries go first.
    """

    def __init__(
        self,
        root: Path,
        fingerprint: str,
        max_entries: int = DEFAULT_MAX_ENTRIES,
    ) -> None:
        self.root = Path(root)
        self.max_entries = max_entries
        self.objects_dir = (
            self.root / f"{OBJECTS_PREFIX}{CACHE_SCHEMA_VERSION}-{fingerprint}"
        )
        self._prune_every = max(1, max_entries // 8)
        self._since_prune = self._prune_every  # the first publish prunes
        self._pruner: Optional[threading.Thread] = None
        self._lock = threading.Lock()

    def path_for(self, digest: str) -> str:
        """Where the entry for ``digest`` lives."""
        return os.path.join(self.objects_dir, digest[:2], digest[2:])

    def lookup(self, digest: str) -> Optional[CachedResult]:
        """The stored result for ``digest`` (one file read), or ``None``
        when the entry is missing, truncated or malformed."""
        try:
            with open(self.path_for(digest), "rb") as handle:
                entry = json.loads(handle.read())
            return _result(entry)
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            return None

    def store(self, digest: str, findings: Sequence[Finding]) -> bool:
        """Publish the findings for ``digest``; False when the write failed.

        The entry goes to a temp file beside its final name, unique to
        this process and thread, and is published with ``os.replace``.
        """
        data = json.dumps(_entry(findings, None), separators=(",", ":"))
        path = self.path_for(digest)
        tmp = f"{path}.{os.getpid()}-{threading.get_ident()}.tmp"
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(data)
            os.replace(tmp, path)
        except OSError:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            return False
        self._schedule_prune()
        return True

    def _schedule_prune(self) -> None:
        with self._lock:
            self._since_prune += 1
            busy = self._pruner is not None and self._pruner.is_alive()
            if self._since_prune < self._prune_every or busy:
                return
            self._since_prune = 0
            self._pruner = threading.Thread(target=self.prune, daemon=True)
            self._pruner.start()

    def prune(self) -> None:
        """Trim ``root`` to seven eighths of the bound, oldest files first —
        every file in every object directory, temp files of killed writers
        included."""
        files: List[Tuple[int, str]] = []
        for top, dirs, names in os.walk(self.root):
            if top == str(self.root):
                dirs[:] = [name for name in dirs if name.startswith(OBJECTS_PREFIX)]
                continue
            for name in names:
                path = os.path.join(top, name)
                try:
                    files.append((os.stat(path).st_mtime_ns, path))
                except OSError:
                    pass  # removed by a concurrent prune
        keep = self.max_entries - self._prune_every
        if len(files) > keep:
            files.sort()
            for _, path in files[: len(files) - keep]:
                with contextlib.suppress(OSError):  # a concurrent prune won
                    os.unlink(path)

    def close(self) -> None:
        """Wait for a background prune to finish; the store stays usable."""
        if self._pruner is not None:
            self._pruner.join()
