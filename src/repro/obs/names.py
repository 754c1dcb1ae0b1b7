"""Canonical metric names — the one schema every subsystem reports through.

Before this module existed each subsystem invented its own stat-dict keys
(``EngineStatistics.as_dict``, ``UpdateStatistics``, ``summarize_batch``,
the per-run RSA/JAA counters).  Those dict views remain for backwards
compatibility, but the *registry* series below are the normalized schema:
one instrument per concept, labels for the axes the old dicts flattened
into key names.  ``repro metrics --schema`` prints this table; the README
"Observability" section documents how the legacy keys map onto it.

Importing this module registers every instrument in the default
:data:`~repro.obs.metrics.REGISTRY` exactly once, so instrumented modules
just do ``from repro.obs import names`` and use the module attributes.
"""

from __future__ import annotations

from repro.obs.metrics import LATENCY_BUCKETS, REGISTRY, SIZE_BUCKETS

# ------------------------------------------------------------ engine serving
#: Queries served, split by problem version (utk1/utk2) and the reuse path
#: that answered them (hit/containment/skyband-hit/skyband-containment/cold).
#: Normalizes EngineStatistics.{utk1_queries,utk2_queries,result_hits,
#: containment_hits,skyband_hits,skyband_containment_hits,cold_queries} and
#: the per-item "sources" histogram of summarize_batch.
QUERIES = REGISTRY.counter(
    "repro_queries_total",
    "UTK queries served, by problem version and reuse path",
    ("version", "source"),
)

#: End-to-end serve latency per problem version.
QUERY_SECONDS = REGISTRY.histogram(
    "repro_query_seconds",
    "End-to-end engine serve latency in seconds",
    ("version",),
    buckets=LATENCY_BUCKETS,
)

#: Size of freshly computed (cold) r-skybands — the best single predictor of
#: refinement cost.
SKYBAND_SIZE = REGISTRY.histogram(
    "repro_skyband_size",
    "r-skyband cardinality of cold filterings",
    (),
    buckets=SIZE_BUCKETS,
)

#: Queries routed to the region-partitioned parallel executor
#: (EngineStatistics.parallel_queries).
PARALLEL_QUERIES = REGISTRY.counter(
    "repro_parallel_queries_total",
    "Queries answered via the region-partitioned parallel executor",
    (),
)

#: Shard tasks fanned out by the parallel executor.
PARALLEL_SHARDS = REGISTRY.counter(
    "repro_parallel_shards_total",
    "Shard tasks executed by the parallel executor",
    (),
)

#: Batches served / queries inside them (EngineStatistics.batches,
#: EngineStatistics.batch_queries and summarize_batch "queries").
BATCHES = REGISTRY.counter("repro_batches_total", "Query batches served", ())
BATCH_QUERIES = REGISTRY.counter(
    "repro_batch_queries_total", "Queries served inside batches", ()
)

# ------------------------------------------------------------------- caches
#: LRU cache traffic, by cache name (skyband/utk1/utk2/k_skyband) and event.
#: Normalizes the per-cache hits/misses/evictions dicts of
#: UTKEngine.cache_stats.
CACHE_EVENTS = REGISTRY.counter(
    "repro_cache_events_total",
    "LRU cache events (hit/miss/eviction), by cache",
    ("cache", "event"),
)

# ----------------------------------------------------------------- geometry
#: Geometry-kernel invocations, by kind (lp/vertex_clip/enumeration/
#: fallback).  Normalizes the GeometryCounters thread-local telemetry that
#: RSA/JAA stats and summarize_batch["geometry"] expose as flat keys.
GEOMETRY_CALLS = REGISTRY.counter(
    "repro_geometry_calls_total",
    "Geometry kernel calls, by kind (lp, vertex_clip, enumeration, fallback)",
    ("kind",),
)

#: Refinement phase timings (rsa.skyband, rsa.refine, jaa.skyband, jaa.refine).
PHASE_SECONDS = REGISTRY.histogram(
    "repro_phase_seconds",
    "RSA/JAA phase durations in seconds",
    ("phase",),
    buckets=LATENCY_BUCKETS,
)

# -------------------------------------------------------------------- index
#: R-tree node touches, by operation (search/insert/delete).
RTREE_NODE_ACCESSES = REGISTRY.counter(
    "repro_rtree_node_accesses_total",
    "R-tree nodes visited, by operation",
    ("op",),
)

# ----------------------------------------------------------------- colstore
#: Paged R-tree buffer-pool traffic: lookups that hit a resident frame,
#: misses that loaded a page from the mapping, and LRU evictions of unpinned
#: frames.  hit + miss = lookups; miss - eviction = resident-set delta.
BUFFERPOOL_EVENTS = REGISTRY.counter(
    "repro_bufferpool_events_total",
    "Buffer-pool page events (hit/miss/eviction)",
    ("event",),
)

#: Pages currently resident in the paged R-tree buffer pool.
BUFFERPOOL_RESIDENT = REGISTRY.gauge(
    "repro_bufferpool_resident_pages",
    "Pages resident in the buffer pool",
)

# ------------------------------------------------------------ scenario matrix
#: Scenario-matrix cells executed, by cell coordinates and oracle outcome
#: (``ok``/``mismatch``/``skipped`` — see :mod:`repro.scenarios.matrix`).
MATRIX_CELLS = REGISTRY.counter(
    "repro_matrix_cells_total",
    "Scenario-matrix cells executed, by scenario, backend and oracle outcome",
    ("scenario", "backend", "oracle"),
)

#: Wall-clock duration of one matrix cell (the backend's full event replay).
MATRIX_CELL_SECONDS = REGISTRY.histogram(
    "repro_matrix_cell_seconds",
    "Wall-clock duration of one scenario-matrix cell in seconds",
    ("scenario", "backend"),
    buckets=(0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0),
)

# ------------------------------------------------------------------ serving
#: Requests handled by the ``repro serve`` socket front-end, by operation
#: (query/insert/delete/stats/ping) and outcome (ok/error).
SERVE_REQUESTS = REGISTRY.counter(
    "repro_serve_requests_total",
    "Requests handled by the serve front-end, by operation and outcome",
    ("op", "outcome"),
)

#: Requests currently in flight on the serve front-end, by operation.
SERVE_INFLIGHT = REGISTRY.gauge(
    "repro_serve_inflight",
    "Requests currently in flight on the serve front-end",
    ("op",),
)

#: Time spent waiting for a contended stripe lock of a striped engine cache.
#: Only contended acquisitions are recorded (the uncontended fast path costs
#: one ``acquire``), so a quiet serve run legitimately exports zero samples.
STRIPE_LOCK_WAIT_SECONDS = REGISTRY.histogram(
    "repro_stripe_lock_wait_seconds",
    "Contended stripe-lock wait of striped engine caches, by cache and stripe",
    ("cache", "stripe"),
    buckets=LATENCY_BUCKETS,
)

#: Current epoch of each cache stripe — the per-stripe successor of the
#: engine-wide generation counter.  Exported by the serve front-end on every
#: stats request and on drain, so snapshots show which region-hash classes
#: an update stream actually touched.
STRIPE_EPOCH = REGISTRY.gauge(
    "repro_stripe_epoch",
    "Current epoch of each striped-cache stripe",
    ("cache", "stripe"),
)

# ------------------------------------------------------------- resilience
#: Faults injected by the deterministic chaos harness (``repro soak
#: --chaos``), by kind (kill_worker/crash_server/drop_connection/
#: delay_connection/slow_update).
FAULTS_INJECTED = REGISTRY.counter(
    "repro_faults_injected_total",
    "Chaos-harness faults injected, by kind",
    ("kind",),
)

#: Client-side request retries, by operation and why the attempt was retried
#: (connection/timeout, or a retriable server code such as overloaded /
#: worker_crash / shutting_down).
RETRIES = REGISTRY.counter(
    "repro_retries_total",
    "Serve-client request retries, by operation and reason",
    ("op", "reason"),
)

#: Write-ahead-log records, by outcome: ``appended`` (durable before ack),
#: ``replayed`` (applied during recovery), ``discarded`` (torn/corrupt tail
#: cut when reopening a log).
WAL_RECORDS = REGISTRY.counter(
    "repro_wal_records_total",
    "Write-ahead-log records, by outcome (appended/replayed/discarded)",
    ("outcome",),
)

#: Latency of WAL fsync batches (the durable-ack critical path).
WAL_FSYNC_SECONDS = REGISTRY.histogram(
    "repro_wal_fsync_seconds",
    "Write-ahead-log fsync latency in seconds",
    (),
    buckets=LATENCY_BUCKETS,
)

#: Shared-worker pools respawned by the supervisor after a worker crash.
WORKER_RESTARTS = REGISTRY.counter(
    "repro_worker_restarts_total",
    "Shared query-worker pools respawned after a crash",
    (),
)

# ------------------------------------------------------------- maintenance
#: Updates applied by an engine's apply_updates (UpdateStatistics.
#: inserts/deletes).
MAINTENANCE_UPDATES = REGISTRY.counter(
    "repro_maintenance_updates_total",
    "Engine updates applied, by operation",
    ("op",),
)

#: Cache-entry outcomes of update maintenance (UpdateStatistics.
#: entries_repaired/entries_noop/entries_evicted/results_retained).
MAINTENANCE_OUTCOMES = REGISTRY.counter(
    "repro_maintenance_outcomes_total",
    "Cache-entry outcomes of update maintenance (repaired/noop/evicted/retained)",
    ("kind",),
)


def observe_phase(phase: str, closed_span) -> None:
    """Fold a closed phase span's duration into :data:`PHASE_SECONDS`.

    Call sites pass the span object their ``with`` block bound; while
    observability is off that is the no-op singleton and nothing is recorded,
    so phase timing needs no second clock read.
    """
    from repro.obs.trace import NOOP_SPAN

    if closed_span is NOOP_SPAN:
        return
    PHASE_SECONDS.observe(closed_span.duration, phase=phase)


def schema() -> list[dict]:
    """The metric reference table: name, kind, labels and help per instrument."""
    return [
        {
            "name": metric.name,
            "kind": metric.kind,
            "labels": ",".join(metric.labelnames) or "-",
            "help": metric.help,
        }
        for metric in REGISTRY.metrics()
    ]
