"""A persistent UTK query-serving engine.

The one-shot API (:func:`repro.core.api.utk1` / ``utk2``) re-transforms the
data and recomputes the r-skyband for every call.  :class:`UTKEngine` binds to
a dataset once and serves many queries fast through three layers:

1. **Result cache** — answers are memoized by ``(region signature, k)``; a
   repeated query is a dictionary lookup.
2. **Containment reuse** — a cached answer for region ``R`` answers any
   sub-region ``R' ⊆ R``.  For UTK2 the cached partitioning is *clipped* to
   ``R'`` (each cell intersected with the sub-region, degenerate pieces
   dropped); for UTK1 the clipped partitioning collapses to the record union.
   Independently, cached r-skybands are *re-filtered* for contained regions
   (and smaller ``k``), so even a brand-new sub-query skips the expensive
   filtering step.  Both reuses are exact — r-dominance relationships only
   grow as the region shrinks (the paper's progressiveness property), so a
   cached candidate/cell set is always a superset for a contained query.
3. **LRU eviction** — every cache is a bounded
   :class:`~repro.engine.cache.StripedCache` (one stripe here; the serving
   tier splits it further) that evicts least-recently-used entries, with
   hit/miss/eviction statistics for capacity planning.

Concurrency follows one protocol.  Cache reads take no engine lock (a cache
locks only the stripe it touches) and the counters sit under a small stats
lock.  Only the paths that traverse the R-tree — cold r-skyband filtering
and the traditional k-skyband — run under the engine lock, which the
update-aware subclass also holds while it mutates the data.  One guard
protects every cache write: a seqlock, ``_update_seq``, which an update
makes odd before its first mutation and even again after its last cache
sweep.  A query captures it before its first cache read and publishes each
derived entry through :meth:`StripedCache.put_if`, which re-checks under the
stripe lock that the value is still the same *even* number — so no update
started or finished in between, and the entry was derived from current,
fully swept state.  A query racing an update may still *serve* the
pre-update answer (it was correct at some moment between its admission and
completion) but can never poison a cache.

Batch workloads fan out over a thread pool via :meth:`UTKEngine.run_batch`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.core.cell import Cell
from repro.core.jaa import JAA
from repro.core.records import Dataset
from repro.core.region import Region
from repro.core.result import UTK1Result, UTK2Result, UTKPartition
from repro.core.rsa import RSA
from repro.core.rskyband import (
    RSkyband, _BRUTE_FORCE_LIMIT, compute_r_skyband, refilter_r_skyband
)
from repro.core.scoring import LinearScoring, ScoringFunction
from repro.engine.cache import StripedCache, region_contains, region_signature
from repro.exceptions import InvalidQueryError
from repro.index.rtree import RTree
from repro.obs import runtime as _obs
from repro.obs import names as _metric_names
from repro.obs.trace import span

#: How a query was answered; recorded per query and tallied in the stats.
SOURCE_RESULT_HIT = "hit"
SOURCE_CONTAINMENT = "containment"
SOURCE_SKYBAND_HIT = "skyband-hit"
SOURCE_SKYBAND_CONTAINMENT = "skyband-containment"
SOURCE_COLD = "cold"


@dataclass
class EngineStatistics:
    """Counters describing the work saved (and done) by the engine."""

    utk1_queries: int = 0
    utk2_queries: int = 0
    result_hits: int = 0
    containment_hits: int = 0
    skyband_hits: int = 0
    skyband_containment_hits: int = 0
    cold_queries: int = 0
    parallel_queries: int = 0
    batches: int = 0
    batch_queries: int = 0

    @property
    def queries(self) -> int:
        """Total queries served."""
        return self.utk1_queries + self.utk2_queries

    def as_dict(self) -> dict:
        """Plain-dict view used by the CLI and the benchmark harness."""
        return {
            "queries": self.queries,
            "utk1_queries": self.utk1_queries,
            "utk2_queries": self.utk2_queries,
            "result_hits": self.result_hits,
            "containment_hits": self.containment_hits,
            "skyband_hits": self.skyband_hits,
            "skyband_containment_hits": self.skyband_containment_hits,
            "cold_queries": self.cold_queries,
            "parallel_queries": self.parallel_queries,
            "batches": self.batches,
            "batch_queries": self.batch_queries,
        }


@dataclass(frozen=True)
class _SkybandEntry:
    region: Region
    k: int
    skyband: RSkyband


@dataclass(frozen=True)
class _ResultEntry:
    region: Region
    k: int
    result: object  # UTK1Result | UTK2Result


def clip_partitioning(result: UTK2Result, region: Region) -> UTK2Result:
    """Restrict a UTK2 partitioning to a contained sub-region.

    Every partition cell is intersected with ``region``; pieces that lose
    their interior are dropped.  Because the input partitions cover the outer
    region and carry exact top-k sets, the surviving pieces cover ``region``
    with the same exactness — no arrangement is rebuilt.
    """
    clipped: list[UTKPartition] = []
    for partition in result.partitions:
        a, b = partition.cell.constraints
        cell = Cell(region, extra_a=a, extra_b=b)
        if cell.is_full_dimensional():
            clipped.append(UTKPartition(cell=cell, top_k=partition.top_k))
    stats = {"reused_partitions": len(result.partitions), "clipped_partitions": len(clipped)}
    return UTK2Result(partitions=clipped, region=region, k=result.k, stats=stats)


class UTKEngine:
    """Serve many UTK queries against one dataset.

    Parameters
    ----------
    data:
        A :class:`~repro.core.records.Dataset` or an ``(n, d)`` matrix.  The
        scoring transform is applied once at construction.
    scoring:
        Optional scoring function; defaults to the linear weighted sum.
    cache_size:
        Capacity of each of the three LRU caches (r-skybands, UTK1 results,
        UTK2 results).
    index_threshold:
        Datasets larger than this get a bulk-loaded R-tree at bind time (the
        same cut-off the filtering step uses to pick BBS over brute force).
    parallel_workers:
        When at least 2, cache-miss queries whose r-skyband has at least
        ``parallel_min_candidates`` members are routed to the
        region-partitioned parallel executor (:mod:`repro.parallel`) on a
        pool of this many worker processes.  Cache hits, containment reuses
        and light queries stay on the serving fast path — the split Polynesia
        makes between a transactional fast path and a parallel analytical
        path.  ``0`` (the default) and ``1`` keep every query serial — a
        one-worker fan-out could never beat the in-process path.
    parallel_min_candidates:
        Heaviness threshold for the parallel route.  The r-skyband size is
        the best single predictor of refinement cost (it grows with both
        ``k`` and the region size), so it doubles as the large-σ / large-k
        detector.

    The engine is thread-safe (see the module docstring for the protocol),
    so :meth:`run_batch` can fan queries across a thread pool.  Concurrent
    identical queries may duplicate work (last write wins) but never produce
    wrong answers.  The process pool is shared across queries (and across
    batch threads), so concurrent heavy queries queue their shards onto one
    bounded pool instead of oversubscribing the machine.
    """

    #: Lock stripes of each engine cache; the serving tier raises it per
    #: instance before this constructor runs.
    _cache_stripes = 1

    def __init__(
        self,
        data,
        *,
        scoring: ScoringFunction | None = None,
        cache_size: int = 128,
        index_threshold: int = _BRUTE_FORCE_LIMIT,
        parallel_workers: int = 0,
        parallel_min_candidates: int = 48,
        tree=None,
    ):
        self._dataset = data if isinstance(data, Dataset) else None
        matrix = data.values if isinstance(data, Dataset) else np.asarray(data, dtype=float)
        if matrix.ndim != 2:
            raise InvalidQueryError("engine data must be an (n, d) matrix")
        self.scoring = scoring or LinearScoring()
        self._values = self.scoring.transform(matrix)
        # A pre-built index (e.g. a colstore PagedRTree over the same id
        # space) short-circuits bulk loading; it must satisfy the RTree
        # traversal contract and index exactly the rows of ``data``.
        self._tree: RTree | None = tree
        if self._tree is None and self._values.shape[0] > index_threshold:
            self._tree = RTree(self._values)
        self._lock = threading.RLock()
        self._stats_lock = threading.Lock()
        self._update_seq = 0
        stripes = self._cache_stripes
        self._skybands = StripedCache(cache_size, stripes=stripes, name="skyband")
        self._utk1_cache = StripedCache(cache_size, stripes=stripes, name="utk1")
        self._utk2_cache = StripedCache(cache_size, stripes=stripes, name="utk2")
        self._traditional_skybands = StripedCache(cache_size, stripes=stripes,
                                                  name="k_skyband")
        self.stats = EngineStatistics()
        if parallel_workers < 0:
            raise InvalidQueryError("parallel_workers must be non-negative")
        self.parallel_workers = int(parallel_workers)
        self.parallel_min_candidates = int(parallel_min_candidates)
        self._pool = None

    # ------------------------------------------------------------------ basic
    @property
    def dataset(self) -> Dataset | None:
        """The bound dataset, when one was supplied (``None`` for raw arrays)."""
        return self._dataset

    @property
    def values(self) -> np.ndarray:
        """The transformed ``(n, d)`` matrix the engine queries against."""
        return self._values

    @property
    def tree(self) -> RTree | None:
        """The shared R-tree (``None`` for datasets below the index threshold)."""
        return self._tree

    def _check_region(self, region: Region) -> None:
        if region.dimension != self._values.shape[1] - 1:
            raise InvalidQueryError(
                f"region dimension {region.dimension} does not match "
                f"{self._values.shape[1]}-dimensional data"
            )

    # ---------------------------------------------------------------- serving
    def utk1(self, region: Region, k: int) -> UTK1Result:
        """Answer a UTK1 query (which records may enter the top-k)."""
        result, _ = self.serve_utk1(region, k)
        return result

    def utk2(self, region: Region, k: int) -> UTK2Result:
        """Answer a UTK2 query (the exact top-k partitioning of the region)."""
        result, _ = self.serve_utk2(region, k)
        return result

    def query(self, region: Region, k: int) -> tuple[UTK1Result, UTK2Result]:
        """Answer both problem versions, sharing the filtering through the cache."""
        second, _ = self.serve_utk2(region, k)
        first, _ = self.serve_utk1(region, k)
        return first, second

    def serve_utk1(self, region: Region, k: int) -> tuple[UTK1Result, str]:
        """Answer a UTK1 query and report which reuse path served it."""
        if not _obs._ENABLED:
            return self._serve("utk1", region, k)
        return self._serve_observed("utk1", region, k)

    def serve_utk2(self, region: Region, k: int) -> tuple[UTK2Result, str]:
        """Answer a UTK2 query and report which reuse path served it."""
        if not _obs._ENABLED:
            return self._serve("utk2", region, k)
        return self._serve_observed("utk2", region, k)

    def _serve_observed(self, version: str, region: Region, k: int):
        """Serve one query under a span, publishing latency and source."""
        started = time.perf_counter()
        with span(f"engine.{version}", k=int(k)) as scope:
            result, source = self._serve(version, region, k)
            scope.set(source=source)
        _metric_names.QUERIES.inc(version=version, source=source)
        _metric_names.QUERY_SECONDS.observe(time.perf_counter() - started, version=version)
        return result, source

    def _serve(self, version: str, region: Region, k: int):
        """Answer one ``"utk1"`` or ``"utk2"`` query through the reuse ladder.

        A result hit, then clipping a cached containing UTK2 partitioning,
        then refinement (RSA or JAA) over a reused or fresh r-skyband.
        """
        self._check_region(region)
        if k <= 0:
            raise InvalidQueryError("k must be positive")
        k = int(k)
        signature = region_signature(region)
        key = (signature, k)
        cache = self._utk1_cache if version == "utk1" else self._utk2_cache
        seq = self._update_seq
        self._count(f"{version}_queries")
        entry = cache.get(key)
        if entry is not None:
            self._count("result_hits")
            return entry.result, SOURCE_RESULT_HIT
        donor = self._find_containing(self._utk2_cache, region, k)
        if donor is not None:
            result = clip_partitioning(donor.result, region)
            if version == "utk1":
                result = result.to_utk1()
            self._count("containment_hits")
            source = SOURCE_CONTAINMENT
        else:
            skyband, source = self._skyband_for(region, k, signature)
            algorithm = "rsa" if version == "utk1" else "jaa"
            if self._route_parallel(skyband):
                result = self._run_parallel(region, k, skyband, algorithm)
            else:
                solver = RSA if version == "utk1" else JAA
                result = solver(self._values, region, k, skyband=skyband).run()
        self._guarded_put(cache, key, _ResultEntry(region, k, result), seq)
        return result, source

    def k_skyband(self, k: int) -> np.ndarray:
        """Traditional k-skyband of the bound (transformed) dataset.

        Runs over the engine's cached R-tree — the one-shot path rebuilds a
        throwaway tree for every call above the index threshold — and is
        memoized per ``k``, so repeated skyband queries are a lookup.
        """
        if k <= 0:
            raise InvalidQueryError("k must be positive")
        key = int(k)
        cached = self._traditional_skybands.get(key)
        if cached is not None:
            return cached
        from repro.skyline.skyband import k_skyband as traditional_k_skyband

        with self._lock:  # the traversal must not overlap an update
            seq = self._update_seq
            result = traditional_k_skyband(self._values, key, tree=self._tree)
        self._guarded_put(self._traditional_skybands, key, result, seq)
        return result

    # ------------------------------------------------------------- parallel
    def _route_parallel(self, skyband: RSkyband) -> bool:
        """Whether a cache-miss query is heavy enough for the parallel path."""
        return self.parallel_workers > 1 and skyband.size >= self.parallel_min_candidates

    def _ensure_pool(self):
        """The shared worker-process pool, created on first heavy query."""
        from concurrent.futures import ProcessPoolExecutor

        with self._lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self.parallel_workers)
            return self._pool

    def _run_parallel(self, region: Region, k: int, skyband: RSkyband, algorithm: str):
        """Solve a heavy query on the shared pool via the parallel executor."""
        from repro.parallel import parallel_utk_query

        first, second = parallel_utk_query(
            self._values,
            region,
            k,
            workers=self.parallel_workers,
            algorithm=algorithm,
            skyband=skyband,
            pool=self._ensure_pool(),
        )
        self._count("parallel_queries")
        _metric_names.PARALLEL_QUERIES.inc()
        return first if algorithm == "rsa" else second

    def close(self) -> None:
        """Shut down the shared worker pool (idempotent; caches survive)."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown()

    def __enter__(self) -> "UTKEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------- filtering
    @property
    def update_seq(self) -> int:
        """The seqlock value: odd while an update is mutating/sweeping."""
        return self._update_seq

    def _count(self, counter: str) -> None:
        with self._stats_lock:
            setattr(self.stats, counter, getattr(self.stats, counter) + 1)

    def _guarded_put(self, cache: StripedCache, key, value, seq: int) -> bool:
        """Publish a derived entry unless an update overlapped its derivation."""
        if seq & 1:  # captured mid-update: the inputs may be half-swept
            return False
        return cache.put_if(key, value, lambda: self._update_seq == seq)

    def _skyband_for(self, region: Region, k: int,
                     signature: str) -> tuple[RSkyband, str]:
        """The r-skyband for a query, reusing cached filterings when possible."""
        key = (signature, k)
        seq = self._update_seq
        entry = self._skybands.get(key)
        if entry is not None:
            self._count("skyband_hits")
            return entry.skyband, SOURCE_SKYBAND_HIT
        donor = self._find_containing(self._skybands, region, k, allow_larger_k=True)
        if donor is not None:
            skyband = refilter_r_skyband(donor.skyband, region, k)
            self._count("skyband_containment_hits")
            source = SOURCE_SKYBAND_CONTAINMENT
        else:
            with self._lock:  # cold filtering traverses the R-tree
                seq = self._update_seq  # even: updates hold the same lock
                skyband = compute_r_skyband(self._values, region, k, tree=self._tree)
            _metric_names.SKYBAND_SIZE.observe(skyband.size)
            self._count("cold_queries")
            source = SOURCE_COLD
        self._guarded_put(self._skybands, key, _SkybandEntry(region, k, skyband), seq)
        return skyband, source

    def _find_containing(
        self, cache: StripedCache, region: Region, k: int, *, allow_larger_k: bool = False
    ):
        """Most recent cache entry whose region contains ``region``.

        Result entries must match ``k`` exactly (top-k sets change with
        ``k``); skyband entries computed for a larger ``k`` remain candidate
        supersets and are accepted when ``allow_larger_k`` is set.
        """
        for _, entry in cache.scan():
            if entry.k != k and not (allow_larger_k and entry.k > k):
                continue
            if region_contains(entry.region, region):
                return entry
        return None

    # ----------------------------------------------------------------- batch
    def run_batch(self, queries, *, workers: int | None = None) -> list:
        """Serve a sequence of queries, optionally across a thread pool.

        See :func:`repro.engine.batch.run_batch` for the accepted query
        shapes and the returned :class:`~repro.engine.batch.BatchItem` list.
        """
        from repro.engine.batch import run_batch
        return run_batch(self, queries, workers=workers)

    # ------------------------------------------------------------------ stats
    def cache_stats(self) -> dict:
        """Size/hit/miss/eviction counters of the four engine caches."""
        return {
            "skyband": self._skybands.stats(),
            "utk1": self._utk1_cache.stats(),
            "utk2": self._utk2_cache.stats(),
            "k_skyband": self._traditional_skybands.stats(),
        }

    def statistics(self) -> dict:
        """Engine counters plus per-cache statistics, as one plain dict."""
        with self._stats_lock:
            merged = {"engine": self.stats.as_dict()}
        merged.update(self.cache_stats())
        return merged

    def evict(self, *, region: Region | None = None, k: int | None = None,
              predicate=None) -> dict:
        """Fine-grained cache eviction; returns per-cache eviction counts.

        Drops the cached skybands and results matching *all* supplied
        filters, leaving everything else warm — the surgical alternative to
        :meth:`clear_caches`:

        * ``k`` — only entries computed for exactly this ``k``;
        * ``region`` — only entries whose region is contained in ``region``
          (an umbrella region: everything answering queries inside it goes);
        * ``predicate`` — custom ``predicate(key, entry)`` over the skyband/
          result entries, combined (AND) with the filters above.

        The traditional per-``k`` skyband memo has no region, so it honours
        only the ``k`` filter (and is left untouched by region-or-predicate
        scoped evictions).  With no arguments every entry is evicted, like
        :meth:`clear_caches` but counted in the eviction statistics.
        """

        def matches(key, entry) -> bool:
            if k is not None and entry.k != k:
                return False
            if region is not None and not region_contains(region, entry.region):
                return False
            if predicate is not None and not predicate(key, entry):
                return False
            return True

        with self._lock:
            counts = {
                "skyband": self._skybands.evict_where(matches),
                "utk1": self._utk1_cache.evict_where(matches),
                "utk2": self._utk2_cache.evict_where(matches),
            }
            if region is None and predicate is None:
                counts["k_skyband"] = self._traditional_skybands.evict_where(
                    lambda key, _value: k is None or key == k
                )
            else:
                counts["k_skyband"] = 0
        return counts

    def clear_caches(self) -> None:
        """Drop every cached skyband and result (counters are preserved)."""
        with self._lock:
            self._skybands.clear()
            self._utk1_cache.clear()
            self._utk2_cache.clear()
            self._traditional_skybands.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        n, d = self._values.shape
        return (f"UTKEngine(n={n}, d={d}, indexed={self._tree is not None}, "
                f"queries={self.stats.queries})")
