"""Routing primitives for the scan fleet: consistent hashing and quotas.

Two small, deterministic data structures that :class:`~repro.server.fleet.
FleetRouter` composes, kept free of sockets and subprocesses so their
contracts can be pinned by fast property tests
(``tests/test_fleet.py``):

- :class:`HashRing` — a consistent-hash ring mapping content digests to
  worker ids.  The fleet keys every ``/v1/analyze`` request by the
  snippet's SHA-256 digest (the exact key
  :class:`~repro.core.cache.ResultStore` uses), so the same bytes always
  land on the same worker while that worker lives — which keeps each
  worker's in-memory state warm and makes the shared cache tier a
  *fallback*, not the common path.  Virtual nodes smooth the key
  distribution; membership changes move only the keys they must:
  removing a member relocates exactly the keys it owned, adding one
  steals keys only *for* the newcomer.

- :class:`TokenBucket` / :class:`TenantQuotas` — continuous-refill token
  buckets, one per tenant, with bounded label cardinality.  These layer
  *policy* (per-tenant fairness) on top of the per-worker *mechanics*
  the daemon already has (queue-depth backpressure): a tenant over its
  budget is shed at the front door with ``429`` + ``Retry-After`` before
  any worker spends a queue slot on it.
"""

from __future__ import annotations

import bisect
import hashlib
import re
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

__all__ = [
    "DEFAULT_TENANT",
    "HashRing",
    "OVERFLOW_TENANT",
    "TenantQuotas",
    "TokenBucket",
    "tenant_label",
]

#: Tenant id used when a request carries no (or a malformed) ``X-Tenant``.
DEFAULT_TENANT = "anonymous"

#: Label that absorbs tenants beyond the cardinality cap.
OVERFLOW_TENANT = "other"

#: Shape a caller-supplied ``X-Tenant`` must match to become a metric
#: label — same discipline as trace ids: no control characters, bounded
#: length, so a hostile client cannot forge exposition lines.
_TENANT_OK = re.compile(r"^[A-Za-z0-9._-]{1,64}$")


def tenant_label(header_value: Optional[str]) -> str:
    """The tenant id for a request, defaulting malformed/missing to
    :data:`DEFAULT_TENANT`."""
    if header_value and _TENANT_OK.match(header_value):
        return header_value
    return DEFAULT_TENANT


class HashRing:
    """Consistent-hash ring: stable key → member assignment.

    Each member contributes ``replicas`` virtual points (SHA-256 of
    ``"{member}#{i}"``); a key routes to the member owning the first
    ring point at or clockwise of the key's own hash point.  Two
    properties the fleet relies on (pinned by hypothesis tests):

    - **removal locality** — removing a member re-routes exactly the
      keys that member owned; every other key keeps its assignment;
    - **addition locality** — adding a member only moves keys *onto*
      the new member; no key moves between two surviving members.

    Not thread-safe by itself; the router mutates it only from the
    event loop.
    """

    def __init__(
        self, members: Iterable[str] = (), replicas: int = 64
    ) -> None:
        self.replicas = max(1, replicas)
        self._points: List[Tuple[int, str]] = []
        self._members: Set[str] = set()
        for member in members:
            self.add(member)

    @staticmethod
    def _hash(value: str) -> int:
        digest = hashlib.sha256(value.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    @property
    def members(self) -> Tuple[str, ...]:
        """Current membership, sorted for determinism."""
        return tuple(sorted(self._members))

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, member: str) -> bool:
        return member in self._members

    def add(self, member: str) -> bool:
        """Add a member (idempotent); True when membership changed."""
        if member in self._members:
            return False
        self._members.add(member)
        for replica in range(self.replicas):
            point = (self._hash(f"{member}#{replica}"), member)
            bisect.insort(self._points, point)
        return True

    def remove(self, member: str) -> bool:
        """Remove a member (idempotent); True when membership changed."""
        if member not in self._members:
            return False
        self._members.discard(member)
        self._points = [p for p in self._points if p[1] != member]
        return True

    def route(
        self, key: str, exclude: Iterable[str] = ()
    ) -> Optional[str]:
        """The member owning ``key``, or ``None`` when no member remains.

        ``exclude`` skips members mid-failover: the router retries a
        request on the *next* owner clockwise, which is exactly where
        the key will permanently live once the dead member is removed
        from the ring — so failover and re-hash agree.
        """
        if not self._points:
            return None
        excluded = set(exclude)
        candidates = self._members - excluded
        if not candidates:
            return None
        start = bisect.bisect_left(self._points, (self._hash(key), ""))
        for offset in range(len(self._points)):
            point, member = self._points[(start + offset) % len(self._points)]
            if member not in excluded:
                return member
        return None


class TokenBucket:
    """A continuous-refill token bucket (monotonic clock, injectable).

    ``rate`` tokens accrue per second up to ``burst``; :meth:`take`
    either debits the requested units or refuses without debiting.
    """

    def __init__(
        self,
        rate: float,
        burst: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.rate = max(0.0, rate)
        self.burst = max(1.0, burst)
        self._clock = clock
        self._tokens = self.burst
        self._last = clock()

    def _refill(self) -> None:
        now = self._clock()
        if now > self._last:
            self._tokens = min(
                self.burst, self._tokens + (now - self._last) * self.rate
            )
            self._last = now

    @property
    def tokens(self) -> float:
        """Tokens available right now (after refill)."""
        self._refill()
        return self._tokens

    def take(self, units: float = 1.0) -> bool:
        """Debit ``units`` tokens, or refuse (no partial debit)."""
        self._refill()
        if units <= self._tokens:
            self._tokens -= units
            return True
        return False

    def retry_after_s(self, units: float = 1.0) -> float:
        """Seconds until ``units`` tokens could be available.

        Demands above ``burst`` are clamped to it (they could otherwise
        never be served); a zero refill rate advertises a minute.
        """
        self._refill()
        deficit = min(units, self.burst) - self._tokens
        if deficit <= 0:
            return 0.0
        if self.rate <= 0:
            return 60.0
        return deficit / self.rate


class TenantQuotas:
    """Per-tenant token buckets with bounded label cardinality.

    The first ``max_tenants`` distinct tenant ids get private buckets;
    later arrivals share the :data:`OVERFLOW_TENANT` bucket *and* its
    metric label, so a client minting random tenant ids can neither
    escape throttling nor balloon the ``/metrics`` exposition.
    Thread-safe: the router's proxy threads and event loop both call in.
    """

    def __init__(
        self,
        rate: float,
        burst: float,
        max_tenants: int = 256,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.rate = rate
        self.burst = burst
        self.max_tenants = max(1, max_tenants)
        self._clock = clock
        self._buckets: Dict[str, TokenBucket] = {}
        #: Rejection counts by (bounded) tenant label — the fleet's
        #: ``patchitpy_fleet_quota_rejections_total{tenant=...}`` family.
        self.rejections: Dict[str, int] = {}
        self._lock = threading.Lock()

    def _label_for(self, tenant: str) -> str:
        if tenant in self._buckets or len(self._buckets) < self.max_tenants:
            return tenant
        return OVERFLOW_TENANT

    def admit(self, tenant: str, units: float = 1.0) -> Tuple[bool, float, str]:
        """Try to admit ``units`` of work for ``tenant``.

        Returns ``(admitted, retry_after_s, label)``; a refusal is
        recorded in :attr:`rejections` under the bounded label.
        """
        with self._lock:
            label = self._label_for(tenant)
            bucket = self._buckets.get(label)
            if bucket is None:
                bucket = self._buckets[label] = TokenBucket(
                    self.rate, self.burst, clock=self._clock
                )
            if bucket.take(units):
                return True, 0.0, label
            self.rejections[label] = self.rejections.get(label, 0) + 1
            return False, max(1.0, bucket.retry_after_s(units)), label

    def snapshot_rejections(self) -> Dict[str, int]:
        """A copy of the per-tenant rejection counters."""
        with self._lock:
            return dict(self.rejections)
