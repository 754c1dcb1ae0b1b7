"""Caching primitives of the query-serving engine.

Four small pieces that :class:`~repro.engine.engine.UTKEngine` composes:

* :func:`region_signature` — a stable hashable fingerprint of a query region
  (its rounded H-representation), used as the exact-match cache key;
* :func:`region_contains` — polytope containment ``inner ⊆ outer``, the test
  behind the engine's containment-reuse path;
* :class:`LRUCache` — a bounded mapping with least-recently-used eviction and
  hit/miss/eviction accounting;
* :class:`StripedCache` — ``stripes`` independently locked ``LRUCache``
  shards behind one cache API, with the atomic conditional publish
  (:meth:`StripedCache.put_if`) every engine cache write goes through.  One
  stripe is a locked ``LRUCache``.

Signatures are syntactic: two :class:`~repro.core.region.Region` objects built
from the same constraints share a signature, while geometrically equal regions
described differently may not.  The engine tolerates that — a signature miss
falls through to the containment scan, and mutual containment covers equality.
"""

from __future__ import annotations

import hashlib
import threading
import time
import zlib
from collections import OrderedDict
from typing import Iterator

import numpy as np

from repro.core.region import Region
from repro.obs import runtime as _obs
from repro.obs import names as _metric_names

#: Decimal places kept when fingerprinting region constraints.
SIGNATURE_DECIMALS = 10

#: Default tolerance of the containment test.
CONTAINMENT_TOL = 1e-9

#: Default stripe count of the serving tier's caches; 8 keeps label
#: cardinality low while removing most same-lock collisions for the serving
#: thread pools this repo configures.
DEFAULT_STRIPES = 8


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


class LRUCache:
    """A bounded key/value store with least-recently-used eviction.

    ``get`` refreshes recency and counts a hit or a miss; ``put`` inserts or
    refreshes and evicts the stalest entry once ``maxsize`` is exceeded.
    ``scan`` iterates entries most-recent-first, which the engine uses for its
    containment lookups (recently touched regions are the most likely parents
    of the next query in a clustered stream).

    A ``name`` makes the cache *observable*: while the observability layer is
    enabled, hits, misses and evictions are additionally published to the
    ``repro_cache_events_total{cache=<name>,event=...}`` registry series.
    Anonymous caches keep only their local counters.
    """

    def __init__(self, maxsize: int, *, name: str | None = None):
        if maxsize <= 0:
            raise ValueError("cache maxsize must be positive")
        self.maxsize = int(maxsize)
        self.name = name
        self._entries: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _publish(self, event: str, count: int = 1) -> None:
        if self.name is not None and _obs._ENABLED and count:
            _metric_names.CACHE_EVENTS.inc(count, cache=self.name, event=event)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        return key in self._entries

    def get(self, key, default=None):
        """Value for ``key`` (refreshing its recency), or ``default``."""
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

    def put(self, key, value) -> None:
        """Insert or refresh ``key``; evict the least-recent beyond capacity."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.evictions += 1
            self._publish("eviction")

    def touch(self, key) -> None:
        """Refresh recency without affecting hit/miss counters."""
        if key in self._entries:
            self._entries.move_to_end(key)

    def replace(self, key, value) -> bool:
        """Swap the value of an existing key; recency and counters untouched.

        Returns whether the key was present.  This is the in-place update
        the maintenance layer uses when it repairs a cached object: the
        entry's position in the recency order still reflects *query*
        traffic, and no phantom hit is recorded.
        """
        if key not in self._entries:
            return False
        self._entries[key] = value
        return True

    def scan(self) -> Iterator[tuple]:
        """Iterate ``(key, value)`` pairs, most recently used first."""
        return iter(list(reversed(self._entries.items())))

    def evict_where(self, predicate) -> int:
        """Drop every entry for which ``predicate(key, value)`` is true.

        Returns the number of entries removed; each counts as an eviction.
        This is the fine-grained alternative to :meth:`clear` — callers that
        know which entries an event invalidated (a data update, a schema
        change) evict exactly those and keep the rest of the cache warm.
        """
        doomed = [key for key, value in self._entries.items() if predicate(key, value)]
        for key in doomed:
            del self._entries[key]
        self.evictions += len(doomed)
        self._publish("eviction", len(doomed))
        return len(doomed)

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        self._entries.clear()

    def stats(self) -> dict:
        """Counter snapshot: size, capacity, hits, misses, evictions."""
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


def stripe_index(key, stripes: int) -> int:
    """Stable stripe assignment for a cache key.

    ``hash()`` is salted per process for strings, so the region-signature
    keys would land on different stripes in the owner and in a worker that
    recomputes the mapping; CRC32 of the key's ``repr`` is stable across
    processes and runs, which keeps stripe placement reproducible in tests
    and epoch exports comparable across snapshots.
    """
    return zlib.crc32(repr(key).encode("utf-8", "surrogatepass")) % stripes


class _Stripe:
    """One independently locked stripe: an LRU shard plus its epoch."""

    __slots__ = ("lock", "cache", "epoch")

    def __init__(self, maxsize: int, name: str | None):
        self.lock = threading.Lock()
        self.cache = LRUCache(maxsize, name=name)
        self.epoch = 0


class StripedCache:
    """One logical LRU cache split over independently locked stripes.

    Keys map to stripes by a stable hash (:func:`stripe_index`) — the
    randomized splitting of hotspot values that MRVs (SIGMOD'23) apply to
    numeric aggregates, applied here to cache bookkeeping:

    * queries touching different stripes never contend;
    * a maintenance sweep (:meth:`evict_where`, the dynamic engine's repair
      pass) locks one stripe at a time, so it only blocks the queries whose
      keys share a stripe with the entry it is currently repairing;
    * each stripe carries an **epoch**, bumped whenever an update's sweep
      changed the stripe (an eviction or an in-place :meth:`replace`), which
      makes write skew observable per region-hash class (:meth:`stats`
      exports it, the serve snapshot carries it as ``repro_stripe_epoch``).

    Semantics relative to a single ``LRUCache`` of the same total capacity:
    ``get``/``put``/``replace``/``touch`` behave identically as long as no
    stripe overflows (capacity is divided evenly, so any working set of at
    most ``maxsize // stripes`` distinct keys is exactly equivalent — the
    property the hypothesis suite checks); under overflow, eviction is
    least-recently-used *within the stripe*.  With one stripe every
    operation is exactly the ``LRUCache`` one.  Predicate eviction
    (:meth:`evict_where`) is exactly equivalent regardless of placement.

    ``name`` labels both the shared ``repro_cache_events_total`` series
    (stripes aggregate under one cache name) and the per-stripe
    ``repro_stripe_lock_wait_seconds`` histogram, which records lock waits
    while observability is enabled.
    """

    def __init__(self, maxsize: int, *, stripes: int = DEFAULT_STRIPES,
                 name: str | None = None):
        if maxsize <= 0:
            raise ValueError("cache maxsize must be positive")
        if stripes <= 0:
            raise ValueError("stripe count must be positive")
        self.maxsize = int(maxsize)
        self.name = name
        self.stripes = int(stripes)
        per_stripe = max(1, -(-self.maxsize // self.stripes))  # ceil division
        self._stripes = [_Stripe(per_stripe, name) for _ in range(self.stripes)]

    # ------------------------------------------------------------- stripe ops
    def stripe_of(self, key) -> int:
        """The stripe index ``key`` maps to."""
        return stripe_index(key, self.stripes)

    def _acquire(self, stripe: _Stripe) -> None:
        """Take a stripe lock, publishing the wait when observability is on.

        The fast path (lock free, observability off) is one ``acquire``;
        waits are only timed when the uncontended grab fails.
        """
        if stripe.lock.acquire(blocking=False):
            return
        started = time.perf_counter()
        stripe.lock.acquire()
        if self.name is not None and _obs._ENABLED:
            _metric_names.STRIPE_LOCK_WAIT_SECONDS.observe(
                time.perf_counter() - started,
                cache=self.name,
                stripe=str(self._stripes.index(stripe)),
            )

    def epochs(self) -> list[int]:
        """Per-stripe epoch snapshot, by stripe index."""
        return [stripe.epoch for stripe in self._stripes]

    # ---------------------------------------------------------- LRUCache API
    def __len__(self) -> int:
        return sum(len(stripe.cache) for stripe in self._stripes)

    def __contains__(self, key) -> bool:
        stripe = self._stripes[self.stripe_of(key)]
        self._acquire(stripe)
        try:
            return key in stripe.cache
        finally:
            stripe.lock.release()

    def get(self, key, default=None):
        """Value for ``key`` (refreshing stripe recency), or ``default``."""
        stripe = self._stripes[self.stripe_of(key)]
        self._acquire(stripe)
        try:
            return stripe.cache.get(key, default)
        finally:
            stripe.lock.release()

    def put(self, key, value) -> None:
        """Insert or refresh ``key``; evict the stripe's least-recent beyond
        its share of the capacity."""
        stripe = self._stripes[self.stripe_of(key)]
        self._acquire(stripe)
        try:
            stripe.cache.put(key, value)
        finally:
            stripe.lock.release()

    def put_if(self, key, value, predicate) -> bool:
        """Insert ``key`` only if ``predicate()`` holds under the stripe lock.

        The check and the insert are atomic with respect to every other
        operation on the stripe — in particular an update's
        :meth:`evict_where` sweep, which is what makes the engine's seqlock
        guard sound: a sweep can never slip between a passing check and the
        put.  Returns whether the value was stored.
        """
        stripe = self._stripes[self.stripe_of(key)]
        self._acquire(stripe)
        try:
            if not predicate():
                return False
            stripe.cache.put(key, value)
            return True
        finally:
            stripe.lock.release()

    def touch(self, key) -> None:
        """Refresh stripe recency without affecting hit/miss counters."""
        stripe = self._stripes[self.stripe_of(key)]
        self._acquire(stripe)
        try:
            stripe.cache.touch(key)
        finally:
            stripe.lock.release()

    def replace(self, key, value) -> bool:
        """Swap the value of an existing key; recency and counters untouched.

        A swap is a maintenance repair, so it advances the stripe's epoch
        like an eviction does.  Returns whether the key was present.
        """
        stripe = self._stripes[self.stripe_of(key)]
        self._acquire(stripe)
        try:
            replaced = stripe.cache.replace(key, value)
            if replaced:
                stripe.epoch += 1
            return replaced
        finally:
            stripe.lock.release()

    def scan(self) -> Iterator[tuple]:
        """Iterate ``(key, value)`` pairs, most recent first *per stripe*.

        Each stripe is snapshotted under its own lock, one at a time, so a
        scan never blocks the whole cache.  Recency order is exact within a
        stripe and interleaved across stripes; the engine's containment
        lookups only need "recently used entries early", which per-stripe
        order preserves.
        """
        snapshots = []
        for stripe in self._stripes:
            self._acquire(stripe)
            try:
                snapshots.append(list(stripe.cache.scan()))
            finally:
                stripe.lock.release()
        # Round-robin merge: the most recent entry of every stripe comes
        # before any stripe's second-most-recent.
        merged: list[tuple] = []
        for position in range(max((len(s) for s in snapshots), default=0)):
            for snapshot in snapshots:
                if position < len(snapshot):
                    merged.append(snapshot[position])
        return iter(merged)

    def evict_where(self, predicate) -> int:
        """Drop every entry matching ``predicate``, one stripe at a time.

        The evicted key set is exactly what a single-lock cache would drop;
        only the blocking granularity differs (queries to other stripes
        proceed while one stripe is swept).  A stripe whose contents changed
        gets its epoch bumped.
        """
        removed = 0
        for stripe in self._stripes:
            self._acquire(stripe)
            try:
                count = stripe.cache.evict_where(predicate)
                if count:
                    stripe.epoch += 1
                removed += count
            finally:
                stripe.lock.release()
        return removed

    def clear(self) -> None:
        """Drop every entry (counters are preserved, epochs advance)."""
        for stripe in self._stripes:
            self._acquire(stripe)
            try:
                if len(stripe.cache):
                    stripe.epoch += 1
                stripe.cache.clear()
            finally:
                stripe.lock.release()

    # ---------------------------------------------------------------- stats
    @property
    def hits(self) -> int:
        return sum(stripe.cache.hits for stripe in self._stripes)

    @property
    def misses(self) -> int:
        return sum(stripe.cache.misses for stripe in self._stripes)

    @property
    def evictions(self) -> int:
        return sum(stripe.cache.evictions for stripe in self._stripes)

    def stats(self) -> dict:
        """Aggregate counters plus the per-stripe size/epoch breakdown."""
        return {
            "size": len(self),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "stripes": self.stripes,
            "stripe_sizes": [len(stripe.cache) for stripe in self._stripes],
            "stripe_epochs": self.epochs(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"StripedCache(size={len(self)}/{self.maxsize}, "
                f"stripes={self.stripes}, hits={self.hits}, misses={self.misses})")
