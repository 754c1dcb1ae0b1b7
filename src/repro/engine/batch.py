"""Batch execution of UTK query streams.

:func:`run_batch` fans a list of independent queries over a
:class:`concurrent.futures.ThreadPoolExecutor` (the engine's caches are
shared and thread-safe), preserving input order in the returned list.  When
the engine is configured with ``parallel_workers``, heavy cache-miss
queries are additionally routed to its shared worker-process pool by the
region-partitioned executor, while cache hits and light queries stay on the
thread-served fast path — the batch threads provide concurrency across
queries, the process pool parallelism within one heavy query.  The
per-query :class:`BatchItem` records which reuse path served the query and
its wall-clock time, and :func:`summarize_batch` aggregates a stream into the
throughput figures the CLI and benchmarks report.

Queries are accepted in several shapes: :class:`BatchQuery`, any object with
``region`` and ``k`` attributes (e.g. a workload
:class:`~repro.bench.workloads.QuerySpec`), a ``(region, k)`` or
``(region, k, version)`` tuple, or a mapping with those keys.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.core.region import Region
from repro.core.result import UTK1Result, UTK2Result
from repro.exceptions import InvalidQueryError
from repro.obs import names as _metric_names

#: Problem versions a batch query may request.
VERSIONS = ("utk1", "utk2", "both")

#: Geometry-telemetry counters carried by every RSA/JAA result's stats and
#: aggregated over a served stream by :func:`summarize_batch`.
GEOMETRY_COUNTER_KEYS = ("lp_calls", "vertex_clip_calls", "enumeration_calls",
                         "fallback_calls")


@dataclass(frozen=True)
class BatchQuery:
    """One query of a batch: region, ``k`` and the problem version to answer."""

    region: Region
    k: int
    version: str = "utk1"

    def __post_init__(self):
        if self.version not in VERSIONS:
            raise InvalidQueryError(f"unknown version {self.version!r}; expected one of {VERSIONS}")


@dataclass
class BatchItem:
    """Outcome of one batch query.

    ``sources`` maps the answered problem version(s) to the reuse path that
    served it (``"hit"``, ``"containment"``, ``"skyband-hit"``,
    ``"skyband-containment"`` or ``"cold"``).
    """

    query: BatchQuery
    utk1: UTK1Result | None
    utk2: UTK2Result | None
    sources: dict[str, str]
    seconds: float


def as_batch_query(query) -> BatchQuery:
    """Normalize any accepted query shape to a :class:`BatchQuery`."""
    if isinstance(query, BatchQuery):
        return query
    if isinstance(query, dict):
        return BatchQuery(
            region=query["region"], k=int(query["k"]), version=query.get("version", "utk1")
        )
    if isinstance(query, tuple):
        if len(query) == 2:
            return BatchQuery(region=query[0], k=int(query[1]))
        if len(query) == 3:
            return BatchQuery(region=query[0], k=int(query[1]), version=query[2])
        raise InvalidQueryError("query tuples must be (region, k[, version])")
    region = getattr(query, "region", None)
    k = getattr(query, "k", None)
    if region is None or k is None:
        raise InvalidQueryError(f"cannot interpret {query!r} as a batch query")
    return BatchQuery(region=region, k=int(k), version=getattr(query, "version", "utk1"))


def _serve_one(engine, query: BatchQuery) -> BatchItem:
    started = time.perf_counter()
    first = second = None
    sources: dict[str, str] = {}
    if query.version in ("utk2", "both"):
        second, sources["utk2"] = engine.serve_utk2(query.region, query.k)
    if query.version in ("utk1", "both"):
        first, sources["utk1"] = engine.serve_utk1(query.region, query.k)
    return BatchItem(
        query=query, utk1=first, utk2=second, sources=sources, seconds=time.perf_counter() - started
    )


def run_batch(engine, queries, *, workers: int | None = None) -> list[BatchItem]:
    """Serve ``queries`` on ``engine``, preserving input order.

    ``workers=None`` (or ``0``/``1``) runs sequentially; larger values fan
    the stream across a thread pool.  Answers are independent of the worker
    count — only the cache-path statistics may differ, because concurrent
    queries can race to populate an entry.
    """
    specs = [as_batch_query(query) for query in queries]
    with engine._stats_lock:
        engine.stats.batches += 1
        engine.stats.batch_queries += len(specs)
    _metric_names.BATCHES.inc()
    _metric_names.BATCH_QUERIES.inc(len(specs))
    if not specs:
        return []
    if workers is None or workers <= 1:
        return [_serve_one(engine, spec) for spec in specs]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda spec: _serve_one(engine, spec), specs))


def summarize_batch(items: list[BatchItem]) -> dict:
    """Aggregate a served stream: totals, throughput, sources and geometry.

    The ``geometry`` entry sums the ``lp_calls`` / ``vertex_clip_calls`` /
    ``enumeration_calls`` / ``fallback_calls`` telemetry over every served
    result.  The keys are legacy views of the registry schema
    (:mod:`repro.obs.names`): ``queries`` ↔ ``repro_batch_queries_total``,
    ``sources`` ↔ the ``source`` label of ``repro_queries_total``, and
    ``geometry`` ↔ ``repro_geometry_calls_total{kind=...}`` (the label drops
    the ``_calls`` suffix).  Cache hits
    re-serve a stored result, so their (already-counted) run counters repeat
    in the sum — the figure describes the work behind the *answers served*,
    not fresh computation.
    """
    total = sum(item.seconds for item in items)
    histogram: dict[str, int] = {}
    geometry = dict.fromkeys(GEOMETRY_COUNTER_KEYS, 0)
    for item in items:
        for source in item.sources.values():
            histogram[source] = histogram.get(source, 0) + 1
        for result in (item.utk1, item.utk2):
            if result is None:
                continue
            for key in GEOMETRY_COUNTER_KEYS:
                geometry[key] += int(result.stats.get(key, 0))
    return {
        "queries": len(items),
        "seconds": total,
        "queries_per_second": (len(items) / total) if total > 0 else float("inf"),
        "sources": dict(sorted(histogram.items())),
        "geometry": geometry,
    }
