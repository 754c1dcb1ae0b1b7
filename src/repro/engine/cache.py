"""Caching primitives of the query-serving engine.

Three small pieces that :class:`~repro.engine.engine.UTKEngine` composes:

* :func:`region_signature` — a stable hashable fingerprint of a query region
  (its rounded H-representation), used as the exact-match cache key;
* :func:`region_contains` — polytope containment ``inner ⊆ outer``, the test
  behind the engine's containment-reuse path;
* :class:`LRUCache` — a bounded mapping behind one lock, with
  least-recently-used eviction, hit/miss/eviction accounting and the atomic
  conditional publish (:meth:`LRUCache.put_if`) every engine cache write
  goes through.

Signatures are syntactic: two :class:`~repro.core.region.Region` objects built
from the same constraints share a signature, while geometrically equal regions
described differently may not.  The engine tolerates that — a signature miss
falls through to the containment scan, and mutual containment covers equality.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict

import numpy as np

from repro.core.region import Region
from repro.obs import runtime as _obs
from repro.obs import names as _metric_names

#: Decimal places kept when fingerprinting region constraints.
SIGNATURE_DECIMALS = 10

#: Default tolerance of the containment test.
CONTAINMENT_TOL = 1e-9


def region_signature(region: Region, *, decimals: int = SIGNATURE_DECIMALS) -> str:
    """A stable fingerprint of the region's H-representation."""
    a, b = region.constraints
    digest = hashlib.blake2b(digest_size=16)
    digest.update(np.asarray(a.shape, dtype=np.int64).tobytes())
    digest.update(np.round(a, decimals).tobytes())
    digest.update(np.round(b, decimals).tobytes())
    return digest.hexdigest()


def region_contains(outer: Region, inner: Region, *, tol: float = CONTAINMENT_TOL) -> bool:
    """Whether ``inner`` is contained in ``outer`` (both convex polytopes).

    With a vertex representation of ``inner`` the test is a dense constraint
    evaluation; otherwise each constraint of ``outer`` is checked by
    maximizing it over ``inner`` (one LP per constraint).
    """
    if outer.dimension != inner.dimension:
        return False
    a, b = outer.constraints
    vertices = inner.vertices
    if vertices is not None:
        return bool(np.all(a @ vertices.T <= b[:, None] + tol))
    return all(inner.linear_max(row) <= rhs + tol for row, rhs in zip(a, b))


class _CacheLock:
    """A cache's one lock.  The fast path is one non-blocking ``acquire``;
    only when that fails is the wait timed (and published, see
    :class:`LRUCache`)."""

    __slots__ = ("_lock", "_name")

    def __init__(self, name: str | None):
        self._lock = threading.Lock()
        self._name = name

    def __enter__(self) -> None:
        if self._lock.acquire(blocking=False):
            return
        started = time.perf_counter()
        self._lock.acquire()
        if self._name is not None and _obs._ENABLED:
            _metric_names.STRIPE_LOCK_WAIT_SECONDS.observe(
                time.perf_counter() - started, cache=self._name)

    def __exit__(self, *exc_info) -> None:
        self._lock.release()


class LRUCache:
    """A bounded, thread-safe key/value store with least-recently-used eviction.

    ``get`` refreshes recency and counts a hit or a miss; ``put`` inserts or
    refreshes and evicts the stalest entry once ``maxsize`` is exceeded, so
    the cache never holds more than ``maxsize`` entries.  ``scan`` returns a
    snapshot of the entries most-recent-first, which the engine uses for its
    containment lookups (recently touched regions are the most likely parents
    of the next query in a clustered stream).

    One lock guards every operation.  :meth:`put_if` checks its predicate and
    inserts under it — the atomic conditional publish the engine's seqlock
    guard needs — and :meth:`evict_where` runs its predicate under it too, so
    neither predicate may call back into the same cache.

    A ``name`` makes the cache *observable*: while the observability layer is
    enabled, hits, misses and evictions are additionally published to the
    ``repro_cache_events_total{cache=<name>,event=...}`` registry series, and
    contended lock waits to ``repro_stripe_lock_wait_seconds{cache=<name>}``.
    Anonymous caches keep only their local counters.
    """

    def __init__(self, maxsize: int, *, name: str | None = None):
        if maxsize <= 0:
            raise ValueError("cache maxsize must be positive")
        self.maxsize = int(maxsize)
        self.name = name
        self._entries: OrderedDict = OrderedDict()
        self._lock = _CacheLock(name)
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _publish(self, event: str, count: int = 1) -> None:
        if self.name is not None and _obs._ENABLED and count:
            _metric_names.CACHE_EVENTS.inc(count, cache=self.name, event=event)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key, default=None):
        """Value for ``key`` (refreshing its recency), or ``default``."""
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self.misses += 1
                self._publish("miss")
                return default
            self._entries.move_to_end(key)
            self.hits += 1
            self._publish("hit")
            return value

    def _put(self, key, value) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.evictions += 1
            self._publish("eviction")

    def put(self, key, value) -> None:
        """Insert or refresh ``key``; evict the least-recent beyond capacity."""
        with self._lock:
            self._put(key, value)

    def put_if(self, key, value, predicate) -> bool:
        """Insert ``key`` only if ``predicate()`` holds under the lock.

        The check and the insert are atomic with respect to every other
        operation — in particular an update's :meth:`evict_where` sweep, which
        is what makes the engine's seqlock guard sound: a sweep can never slip
        between a passing check and the put.  Returns whether the value was
        stored.
        """
        with self._lock:
            if not predicate():
                return False
            self._put(key, value)
            return True

    def replace(self, key, value) -> bool:
        """Swap the value of an existing key; recency and counters untouched.

        Returns whether the key was present.  This is the in-place update
        the maintenance layer uses when it repairs a cached object: the
        entry's position in the recency order still reflects *query*
        traffic, and no phantom hit is recorded.
        """
        with self._lock:
            if key not in self._entries:
                return False
            self._entries[key] = value
            return True

    def scan(self) -> list[tuple]:
        """Snapshot of the ``(key, value)`` pairs, most recently used first."""
        with self._lock:
            return list(reversed(self._entries.items()))

    def evict_where(self, predicate) -> int:
        """Drop every entry for which ``predicate(key, value)`` is true.

        Returns the number of entries removed; each counts as an eviction.
        This is the fine-grained alternative to :meth:`clear` — callers that
        know which entries an event invalidated (a data update, a schema
        change) evict exactly those and keep the rest of the cache warm.
        """
        with self._lock:
            doomed = [key for key, value in self._entries.items() if predicate(key, value)]
            for key in doomed:
                del self._entries[key]
            self.evictions += len(doomed)
            self._publish("eviction", len(doomed))
            return len(doomed)

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict:
        """Counter snapshot: size, capacity, hits, misses, evictions."""
        with self._lock:
            return {
                "size": len(self._entries),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"LRUCache(size={len(self._entries)}/{self.maxsize}, "
                f"hits={self.hits}, misses={self.misses})")
