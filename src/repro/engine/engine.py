"""The UTK query-serving engine.

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
   :class:`~repro.engine.cache.StripedCache` (one stripe by default; the
   serving tier splits it further) that evicts least-recently-used entries,
   with hit/miss/eviction statistics for capacity planning.

The records live in a :class:`~repro.dynamic.store.RecordStore` — the one
plug point.  ``store="memory"`` keeps them on the heap, ``"shm"`` in
shared-memory segments and ``"colstore"`` in memory-mapped column files;
each store also publishes the buffer and a copy of the R-tree's page array
to query worker processes (:meth:`UTKEngine.shared_descriptor`).  The engine
itself never asks which store it holds.

Every engine stays exact under record insertion and deletion: records keep
stable ids (tombstoned deletes), the shared R-tree is maintained in place,
every cached r-skyband is *repaired* through :mod:`repro.dynamic.maintenance`
(a provable no-op costs ``O(m)`` r-dominance tests, a real change patches the
member set and graph in place), and cached UTK1/UTK2 results are kept
whenever the update provably did not touch their region's r-skyband and
surgically evicted otherwise.  After any update sequence, every query equals
the answer of a fresh engine rebuilt from :meth:`UTKEngine.snapshot`.  An
engine bound to a pre-built read-only index (the colstore's paged R-tree)
rejects every update batch during validation.

Concurrency follows one protocol: serialized updates beside lock-free reads.
Cache reads take no engine lock (a cache locks only the stripe it touches)
and the counters sit under a small stats lock.  Only the paths that traverse
the R-tree — cold r-skyband filtering and the traditional k-skyband — run
under the engine lock, which updates also hold while they mutate the data.
One guard protects every cache write: a seqlock, ``_update_seq``, which an
update makes odd before its first mutation and even again after its last
cache sweep.  A query captures it before its first cache read and publishes
each derived entry through :meth:`StripedCache.put_if`, which re-checks under
the stripe lock that the value is still the same *even* number — so no
update started or finished in between, and the entry was derived from
current, fully swept state.  A query racing an update may still *serve* the
pre-update answer (it was correct at some moment between its admission and
completion) but can never poison a cache.

Batch workloads fan out over a thread pool via :meth:`UTKEngine.run_batch`.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.core.cell import Cell
from repro.core.dominance import RDominance
from repro.core.jaa import JAA
from repro.core.records import Dataset
from repro.core.region import Region
from repro.core.result import UTK1Result, UTK2Result, UTKPartition
from repro.core.rsa import RSA
from repro.core.rskyband import RSkyband, compute_r_skyband, refilter_r_skyband
from repro.core.scoring import LinearScoring, ScoringFunction
from repro.dynamic.engine import OP_DELETE, OP_INSERT
from repro.dynamic.maintenance import KIND_NOOP, SkybandRepair, repair_delete, repair_insert
from repro.dynamic.store import RecordStore
from repro.engine.cache import StripedCache, region_contains, region_signature
from repro.exceptions import InvalidQueryError
from repro.index.rtree import RTree
from repro.kernels.dominance import dominators_mask
from repro.obs import runtime as _obs
from repro.obs import names as _metric_names
from repro.obs.trace import span

#: How a query was answered; recorded per query and tallied in the stats.
SOURCE_RESULT_HIT = "hit"
SOURCE_CONTAINMENT = "containment"
SOURCE_SKYBAND_HIT = "skyband-hit"
SOURCE_SKYBAND_CONTAINMENT = "skyband-containment"
SOURCE_COLD = "cold"

#: Cache names in the order :meth:`UTKEngine.stripe_epochs` reports them.
CACHE_NAMES = ("skyband", "utk1", "utk2", "k_skyband")


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


@dataclass
class UpdateStatistics:
    """Counters describing the maintenance work of an engine's lifetime.

    ``entries_repaired``/``entries_noop`` count cached r-skybands patched vs
    proven unaffected; ``entries_evicted`` counts cached results (and
    traditional skybands) that had to be dropped; ``results_retained`` counts
    the cached results that survived an update untouched.
    """

    updates_applied: int = 0
    inserts: int = 0
    deletes: int = 0
    entries_repaired: int = 0
    entries_noop: int = 0
    entries_evicted: int = 0
    results_retained: int = 0

    def as_dict(self) -> dict:
        """Plain-dict view merged into :meth:`UTKEngine.statistics`."""
        return dataclasses.asdict(self)


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


def _open_store(kind: str, values: np.ndarray, store_dir) -> RecordStore:
    """The record store ``store=kind`` names, holding ``values`` as ids ``0..n-1``."""
    if kind == "memory":
        return RecordStore(values)
    if kind == "shm":
        from repro.serve.shm import SharedRecordStore

        return SharedRecordStore(values)
    if kind == "colstore":
        from repro.colstore.store import ColumnarRecordStore

        return ColumnarRecordStore(values, directory=store_dir)
    raise InvalidQueryError(f"unknown store backend {kind!r} (memory|shm|colstore)")


class UTKEngine:
    """Serve many UTK queries against one dataset, exact under updates.

    Parameters
    ----------
    data:
        A :class:`~repro.core.records.Dataset` or an ``(n, d)`` matrix.  The
        scoring transform is applied once at construction; record ``i``
        receives the stable id ``i`` and every insertion a fresh,
        never-reused id.  ``None`` when ``store`` is an already built store.
    scoring:
        Optional scoring function; defaults to the linear weighted sum.
    cache_size:
        Capacity of each of the four LRU caches (r-skybands, UTK1 results,
        UTK2 results, traditional k-skybands).
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
    store:
        Where the records live: ``"memory"`` (default, the heap),
        ``"shm"`` (shared-memory segments query workers attach zero-copy)
        or ``"colstore"`` (memory-mapped column files, no ``/dev/shm``
        usage); or an already built :class:`~repro.dynamic.store.RecordStore`
        holding transformed values, with the index over it as ``tree``,
        which the engine takes over.
    store_dir:
        Directory of the colstore backend.  Defaults to a private temp
        directory that is removed on :meth:`close`; pass an explicit path to
        persist the store past the engine.
    stripes:
        Stripe count of each engine cache (see
        :data:`~repro.engine.cache.DEFAULT_STRIPES` and the CONTRIBUTING
        notes on tuning).
    tree:
        A pre-built index over the store's ids (the colstore's
        :class:`~repro.colstore.pages.PagedRTree`) instead of a bulk-loaded
        in-memory R-tree.  The engine never mutates an index it did not
        build, so such an engine serves reads only.

    The engine is thread-safe (see the module docstring for the protocol),
    so :meth:`run_batch` can fan queries across a thread pool.  Concurrent
    identical queries may duplicate work (last write wins) but never produce
    wrong answers.  The process pool is shared across queries (and across
    batch threads), so concurrent heavy queries queue their shards onto one
    bounded pool instead of oversubscribing the machine.
    """

    def __init__(
        self,
        data,
        *,
        scoring: ScoringFunction | None = None,
        cache_size: int = 128,
        parallel_workers: int = 0,
        parallel_min_candidates: int = 48,
        store: str | RecordStore = "memory",
        store_dir=None,
        stripes: int = 1,
        tree=None,
    ):
        if parallel_workers < 0:
            raise InvalidQueryError("parallel_workers must be non-negative")
        self.scoring = scoring or LinearScoring()
        self._dataset = data if isinstance(data, Dataset) else None
        if isinstance(store, RecordStore):
            if data is not None:
                raise InvalidQueryError("pass the records as data or as a built store, not both")
            self._store = store
        else:
            matrix = data.values if isinstance(data, Dataset) else np.asarray(data, dtype=float)
            if matrix.ndim != 2:
                raise InvalidQueryError("engine data must be an (n, d) matrix")
            self._store = _open_store(store, self.scoring.transform(matrix), store_dir)
        self._values = self._store.matrix
        self._read_only = tree is not None
        self._tree = RTree(self._values) if tree is None else tree
        self._lock = threading.RLock()
        self._stats_lock = threading.Lock()
        self._update_seq = 0
        self._stripes = int(stripes)
        self._skybands = StripedCache(cache_size, stripes=self._stripes, name="skyband")
        self._utk1_cache = StripedCache(cache_size, stripes=self._stripes, name="utk1")
        self._utk2_cache = StripedCache(cache_size, stripes=self._stripes, name="utk2")
        self._traditional_skybands = StripedCache(cache_size, stripes=self._stripes,
                                                  name="k_skyband")
        self.stats = EngineStatistics()
        self.update_stats = UpdateStatistics()
        self.parallel_workers = int(parallel_workers)
        self.parallel_min_candidates = int(parallel_min_candidates)
        self._pool = None
        self._published: tuple[int, dict] | None = None  # (generation, tree manifest)

    # ------------------------------------------------------------------ basic
    @property
    def dataset(self) -> Dataset | None:
        """The bound dataset, when one was supplied (``None`` for raw arrays)."""
        return self._dataset

    @property
    def values(self) -> np.ndarray:
        """The transformed matrix the engine queries, indexed by record id
        (deleted rows stay in place, unreachable through the tree)."""
        return self._values

    @property
    def tree(self):
        """The shared R-tree (or the pre-built index passed as ``tree``)."""
        return self._tree

    @property
    def store(self) -> RecordStore:
        """The backing record store (stable ids, tombstoned deletes)."""
        return self._store

    def active_ids(self) -> np.ndarray:
        """Ids of the records currently in the dataset, ascending."""
        return self._store.active_ids()

    def snapshot(self) -> tuple[np.ndarray, np.ndarray]:
        """``(ids, values)`` of the live dataset in the *transformed* space.

        A fresh engine built from ``values`` (with the identity scoring —
        the transform is already applied) answers in row positions;
        ``ids[position]`` maps them back to this engine's stable ids.  The
        exactness tests and the dynamic benchmark rebuild from exactly this.
        """
        return self._store.snapshot()

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

        Runs over the engine's R-tree — the one-shot path bulk-loads a
        throwaway tree on every call — and is memoized per ``k``, so
        repeated skyband queries are a lookup.
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
        """Release the worker pool, the published tree, the store and a
        temporary ``store_dir`` (idempotent)."""
        with self._lock:
            pool, self._pool = self._pool, None
            self._published = None
            self._store.close()
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

    # --------------------------------------------------------------- updates
    def insert(self, row) -> int:
        """Insert one record (raw attribute space); returns its stable id."""
        return self.apply_updates([(OP_INSERT, row)])["inserted_ids"][0]

    def delete(self, record_id: int) -> None:
        """Delete the record with the given stable id."""
        self.apply_updates([(OP_DELETE, record_id)])

    def apply_updates(self, updates) -> dict:
        """Apply a batch of updates, repairing caches surgically.

        ``updates`` is an iterable of ``("insert", row)`` / ``("delete", id)``
        pairs or of mappings ``{"op": "insert", "values": [...]}`` /
        ``{"op": "delete", "id": ...}`` (the ``repro stream`` event shape).
        Returns a report with the counters accumulated over this batch
        (:meth:`UpdateStatistics.as_dict` keys) plus the ids assigned to
        inserted records, in order.

        The batch is validated before anything is applied (update shapes,
        record dimensionality/finiteness, delete targets live through the
        batch, an engine that can take updates at all), so a rejected batch
        raises without mutating any state.
        """
        normalized = [self._normalize_update(update) for update in updates]
        batch = UpdateStatistics()
        inserted_ids: list[int] = []
        with span("dynamic.apply_updates", updates=len(normalized)), self._lock:
            self._validate_batch(normalized)
            # Odd before the first mutation, even only after the last sweep:
            # an in-flight query that began against the pre-update state
            # must not write its (possibly stale) results into the caches.
            self._update_seq += 1
            try:
                for op, payload in normalized:
                    if op == OP_INSERT:
                        inserted_ids.append(self._apply_insert(payload, batch))
                        batch.inserts += 1
                    else:
                        self._apply_delete(payload, batch)
                        batch.deletes += 1
                    batch.updates_applied += 1
            finally:
                self._update_seq += 1
                # Even if an update fails unexpectedly mid-batch, the engine
                # counters must reflect the prefix that was applied.  The
                # fold is atomic to statistics() readers on query threads.
                with self._stats_lock:
                    for field in dataclasses.fields(UpdateStatistics):
                        setattr(self.update_stats, field.name,
                                getattr(self.update_stats, field.name)
                                + getattr(batch, field.name))
                self._publish_maintenance(batch)
        return {**batch.as_dict(), "inserted_ids": inserted_ids}

    @staticmethod
    def _publish_maintenance(batch: UpdateStatistics) -> None:
        """Fold one batch's maintenance tallies into the registry schema.

        The legacy ``UpdateStatistics`` keys map onto two labeled series:
        ``inserts``/``deletes`` ↔ ``repro_maintenance_updates_total{op}`` and
        ``entries_repaired``/``entries_noop``/``entries_evicted``/
        ``results_retained`` ↔ ``repro_maintenance_outcomes_total{kind}``.
        """
        if not _obs._ENABLED:
            return
        _metric_names.MAINTENANCE_UPDATES.inc(batch.inserts, op="insert")
        _metric_names.MAINTENANCE_UPDATES.inc(batch.deletes, op="delete")
        _metric_names.MAINTENANCE_OUTCOMES.inc(batch.entries_repaired, kind="repaired")
        _metric_names.MAINTENANCE_OUTCOMES.inc(batch.entries_noop, kind="noop")
        _metric_names.MAINTENANCE_OUTCOMES.inc(batch.entries_evicted, kind="evicted")
        _metric_names.MAINTENANCE_OUTCOMES.inc(batch.results_retained, kind="retained")

    def validate_updates(self, updates) -> None:
        """Run :meth:`apply_updates`'s up-front checks without applying.

        Callers that must persist an update *before* applying it (the
        serving tier's write-ahead log) use this to reject malformed events
        first, so nothing unapplyable is ever written to the log.  Raises
        exactly what :meth:`apply_updates` would have raised pre-mutation.
        """
        normalized = [self._normalize_update(update) for update in updates]
        with self._lock:
            self._validate_batch(normalized)

    def _validate_batch(self, normalized: list[tuple[str, object]]) -> None:
        """Reject a batch up front if any update could not be applied.

        Simulates record liveness through the batch: a delete may target an
        id that is active now or one the same batch inserts earlier; a
        repeated or dead target raises :class:`KeyError` before any state
        changed.  Insert rows are checked for shape and finiteness.
        """
        if self._read_only:
            raise InvalidQueryError(
                "this engine serves a pre-built read-only index and accepts no updates"
            )
        dimensionality = self._store.dimensionality
        virtual_next = self._store.high_water
        born: set[int] = set()
        dead: set[int] = set()
        for op, payload in normalized:
            if op == OP_INSERT:
                try:
                    row = np.asarray(payload, dtype=float).reshape(-1)
                except (TypeError, ValueError) as exc:
                    raise InvalidQueryError(f"insert row is not numeric: {exc}") from exc
                if row.shape[0] != dimensionality:
                    raise InvalidQueryError(
                        f"insert has {row.shape[0]} attributes, dataset holds {dimensionality}"
                    )
                if not np.all(np.isfinite(row)):
                    raise InvalidQueryError("insert contains NaN or infinite values")
                born.add(virtual_next)
                virtual_next += 1
            else:
                try:
                    record_id = int(payload)
                except (TypeError, ValueError) as exc:
                    raise InvalidQueryError(f"delete id is not an integer: {exc}") from exc
                alive = (self._store.is_active(record_id) or record_id in born)
                if not alive or record_id in dead:
                    raise KeyError(f"record {record_id} is not active")
                dead.add(record_id)

    @staticmethod
    def _normalize_update(update) -> tuple[str, object]:
        if isinstance(update, dict):
            op = update.get("op")
            if op == OP_INSERT and "values" in update:
                return OP_INSERT, update["values"]
            if op == OP_DELETE and "id" in update:
                return OP_DELETE, update["id"]
        elif isinstance(update, tuple) and len(update) == 2 and update[0] in (
            OP_INSERT, OP_DELETE
        ):
            return update
        raise InvalidQueryError(
            f"cannot interpret {update!r} as an update; expected "
            "('insert', row) / ('delete', id) or the equivalent mapping"
        )

    def _apply_insert(self, raw_row, batch: UpdateStatistics) -> int:
        row = np.asarray(raw_row, dtype=float).reshape(-1)
        transformed = self.scoring.transform(row.reshape(1, -1))[0]
        record_id = self._store.insert(transformed)
        self._values = self._tree.values = self._store.matrix
        stored = self._store.row(record_id)
        self._tree.insert(record_id, stored)

        # Repair every cached skyband against the pre-update state first …
        outcomes = {
            key: (entry, repair_insert(entry.skyband, record_id, stored, entry.k))
            for key, entry in self._skybands.scan()
        }

        # … classify cached results while the skyband caches still describe
        # the pre-update dataset (the classification proofs need that state).
        # The verdict depends on the entry only through its (signature, k)
        # key, so utk1/utk2 twins share one donor lookup and dominance pass.
        verdicts: dict = {}

        def survives(key, entry) -> bool:
            if key in verdicts:
                return verdicts[key]
            outcome = outcomes.get(key)
            if outcome is not None:
                verdict = not outcome[1].changed
            else:
                donor = self._find_containing(
                    self._skybands, entry.region, entry.k, allow_larger_k=True
                )
                verdict = donor is not None and int(
                    RDominance(donor.region)
                    .dominators_mask(stored[None, :], donor.skyband.values)
                    .sum()
                ) >= entry.k
            verdicts[key] = verdict
            return verdict

        self._sweep_results(survives, batch)
        self._commit_skybands(outcomes, batch)

        # Traditional (region-free) k-skybands: same membership test with
        # traditional dominance; entries the record provably cannot join are
        # kept, the rest evicted.
        def unaffected(key_k, indices) -> bool:
            rows = self._values[np.asarray(indices, dtype=int)]
            return int(dominators_mask(stored[None, :], rows).sum()) >= key_k

        batch.entries_evicted += self._traditional_skybands.evict_where(
            lambda key_k, indices: not unaffected(key_k, indices)
        )
        return record_id

    def _apply_delete(self, record_id, batch: UpdateStatistics) -> None:
        record_id = int(record_id)
        row = self._store.delete(record_id)  # raises KeyError when not active
        self._values = self._tree.values = self._store.matrix
        self._tree.delete(record_id, row)

        # The O(n) pool snapshot is only needed to re-filter skybands the
        # deleted record was a member of; the common non-member delete
        # never pays for it.
        pool = None
        outcomes = {}
        for key, entry in self._skybands.scan():
            if not entry.skyband.has_member(record_id):
                outcomes[key] = (entry, SkybandRepair(entry.skyband, False, KIND_NOOP))
                continue
            if pool is None:
                pool = self._store.snapshot()
            outcomes[key] = (
                entry,
                repair_delete(
                    entry.skyband, record_id, entry.k, pool_ids=pool[0], pool_rows=pool[1]
                ),
            )

        verdicts: dict = {}

        def survives(key, entry) -> bool:
            if key in verdicts:
                return verdicts[key]
            outcome = outcomes.get(key)
            if outcome is not None:
                verdict = not outcome[1].changed
            else:
                donor = self._find_containing(
                    self._skybands, entry.region, entry.k, allow_larger_k=True
                )
                # A containing skyband is a superset of the entry's: the
                # deleted record being no member there proves it was no
                # member here.
                verdict = donor is not None and not donor.skyband.has_member(record_id)
            verdicts[key] = verdict
            return verdict

        self._sweep_results(survives, batch)
        self._commit_skybands(outcomes, batch)

        batch.entries_evicted += self._traditional_skybands.evict_where(
            lambda _key_k, indices: bool(np.any(np.asarray(indices, dtype=int) == record_id))
        )

    def _sweep_results(self, survives, batch: UpdateStatistics) -> None:
        """Evict cached results an update may have invalidated; keep the rest."""
        for cache in (self._utk1_cache, self._utk2_cache):
            total = len(cache)
            evicted = cache.evict_where(lambda key, entry: not survives(key, entry))
            batch.entries_evicted += evicted
            batch.results_retained += total - evicted

    def _commit_skybands(self, outcomes: dict, batch: UpdateStatistics) -> None:
        """Swap repaired skybands into the cache and tally the outcome kinds.

        The swap is in place (:meth:`StripedCache.replace`, which also
        advances the stripe's epoch): maintenance must not record phantom
        cache hits or promote repaired entries over genuinely
        recently-queried ones in the recency order.
        """
        for key, (entry, outcome) in outcomes.items():
            if outcome.changed:
                self._skybands.replace(
                    key, _SkybandEntry(entry.region, entry.k, outcome.skyband)
                )
                batch.entries_repaired += 1
            else:
                batch.entries_noop += 1

    # --------------------------------------------------------- worker access
    def shared_descriptor(self) -> dict:
        """Attachment descriptor for zero-copy query workers.

        The store publishes a copy of the R-tree's pages afresh when (and
        only when) an update batch ran since the last publish, and retires
        the previous one — late workers holding its mapping finish fine, new
        attachments of a stale descriptor fail with :class:`FileNotFoundError`
        and retry with a fresh descriptor (see
        :func:`repro.serve.workers.worker_query`).  A read-only engine's
        paged index already is a page file, so its descriptor names that
        file.  The record buffer is already shared.
        """
        with self._lock:
            # Even here: an update holds the engine lock while it is odd.
            generation = self._update_seq
            if self._published is None or self._published[0] != generation:
                if self._read_only:
                    manifest = {"path": str(self._tree.path), "meta": self._tree.meta}
                else:
                    manifest = self._store.publish_tree(
                        self._tree.pages, self._tree.meta, generation)
                self._published = (generation, manifest)
            return {"generation": generation, "tree": self._published[1],
                    **self._store.worker_location()}

    def shm_segment_names(self) -> list[str]:
        """Every shared segment currently backing this engine, by name.

        The serving front-end persists this set alongside the WAL (the shm
        manifest) so a restart after ``SIGKILL`` can unlink the orphaned
        segments the dead process never cleaned up.
        """
        with self._lock:
            return self._store.segment_names()

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

    def stripe_epochs(self) -> dict[str, list[int]]:
        """Per-cache, per-stripe epoch snapshot (for metrics export)."""
        caches = (self._skybands, self._utk1_cache, self._utk2_cache,
                  self._traditional_skybands)
        return {name: cache.epochs() for name, cache in zip(CACHE_NAMES, caches)}

    def statistics(self) -> dict:
        """Engine, cache, update-maintenance and stripe counters as one dict."""
        with self._stats_lock:
            engine = self.stats.as_dict()
            dynamic = self.update_stats.as_dict()
        return {
            "engine": engine,
            **self.cache_stats(),
            "dynamic": dynamic,
            "serve": {
                "update_seq": self._update_seq,
                "stripes": self._stripes,
                "stripe_epochs": self.stripe_epochs(),
            },
        }

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
