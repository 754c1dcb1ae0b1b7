"""Region-partitioned parallel execution of RSA and JAA.

The executor answers a UTK query in four steps:

1. **Filter once** — compute (or accept) the r-skyband of the *full* query
   region; this is the same filtering step the serial algorithms run.
2. **Partition** — tile the region into ``shards`` sub-regions by
   longest-edge bisection (:mod:`repro.parallel.partition`).
3. **Fan out** — solve each sub-region in a worker process
   (:mod:`repro.parallel.worker`); every task ships only the skyband slice,
   and each worker rebuilds its shard's exact r-skyband from it.
4. **Merge** — combine the per-shard answers into one result for the full
   region (:mod:`repro.parallel.merge`): the UTK1 union and the concatenated
   UTK2 partitioning are exactly what the serial algorithms report (the
   UTK2 cells are carved differently along the cutting hyperplanes, but the
   covered top-k sets — and therefore the record union — are identical).

``workers <= 1`` (with default ``shards``) degenerates to the serial
algorithms, so callers can thread a single ``workers`` knob through without
branching.  The ``backend="serial"`` mode runs the full
partition/fan-out/merge machinery in-process — deterministic and
pool-free — which the agreement tests use to exercise the parallel code
path cheaply.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from repro.core.jaa import JAA
from repro.core.region import Region
from repro.core.result import UTK1Result, UTK2Result
from repro.core.rsa import RSA
from repro.core.rskyband import RSkyband, compute_r_skyband
from repro.exceptions import InvalidQueryError
from repro.index.rtree import RTree
from repro.obs import names as _metric_names
from repro.obs import runtime as _obs_runtime
from repro.obs.names import observe_phase as _observe_phase
from repro.obs.trace import span

from repro.parallel.merge import merge_outcomes
from repro.parallel.partition import subdivide_region
from repro.parallel.worker import ShardOutcome, ShardTask, run_shard

#: Execution backends: worker processes, or in-process (for tests/debugging).
BACKENDS = ("process", "serial")


def default_workers() -> int:
    """Worker count used when a caller asks for parallelism without a count."""
    return max(1, os.cpu_count() or 1)


def _run_tasks(
    tasks: list[ShardTask],
    *,
    workers: int,
    backend: str,
    pool: ProcessPoolExecutor | None,
) -> list[ShardOutcome]:
    """Execute shard tasks on the requested backend, preserving task order."""
    if backend == "serial":
        return [run_shard(task) for task in tasks]
    if pool is not None:
        return [future.result() for future in [pool.submit(run_shard, task) for task in tasks]]
    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as fresh_pool:
        return list(fresh_pool.map(run_shard, tasks))


def parallel_utk_query(
    values: np.ndarray,
    region: Region,
    k: int,
    *,
    workers: int | None = None,
    shards: int | None = None,
    algorithm: str = "both",
    skyband: RSkyband | None = None,
    tree: RTree | None = None,
    use_drill: bool = True,
    backend: str = "process",
    pool: ProcessPoolExecutor | None = None,
) -> tuple[UTK1Result | None, UTK2Result | None]:
    """Answer a UTK query by region-partitioned parallel execution.

    Parameters
    ----------
    values:
        ``(n, d)`` dataset matrix (already scoring-transformed).
    region, k:
        The UTK query.
    workers:
        Worker-process count; ``None`` uses :func:`default_workers`, values
        ``<= 1`` run the serial algorithms.
    shards:
        Sub-region count; defaults to ``workers``.  More shards than workers
        give the pool smaller units to balance over.
    algorithm:
        ``"rsa"`` (UTK1 only), ``"jaa"`` (UTK2 only) or ``"both"``.
    skyband:
        Optional pre-computed r-skyband of the full region (e.g. an engine
        cache entry); skips the filtering step.
    tree:
        Optional R-tree over ``values``, used only when filtering runs here.
    use_drill:
        RSA drill optimization toggle, forwarded to the shard workers.
    backend:
        ``"process"`` (default) or ``"serial"`` (in-process fan-out).
    pool:
        Optional existing :class:`~concurrent.futures.ProcessPoolExecutor`
        to submit to (not shut down afterwards); the engine shares one pool
        across queries this way.

    Returns
    -------
    ``(utk1, utk2)`` — entries are ``None`` for versions not requested.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise InvalidQueryError("values must be an (n, d) matrix")
    if k <= 0:
        raise InvalidQueryError("k must be positive")
    if region.dimension != values.shape[1] - 1:
        raise InvalidQueryError(
            f"region dimension {region.dimension} does not match "
            f"{values.shape[1]}-dimensional data"
        )
    if algorithm not in ("rsa", "jaa", "both"):
        raise InvalidQueryError(f"unknown algorithm {algorithm!r}")
    if backend not in BACKENDS:
        raise InvalidQueryError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    workers = default_workers() if workers is None else max(1, int(workers))
    shard_count = workers if shards is None else max(1, int(shards))

    if skyband is None:
        with span("parallel.filter", k=int(k)) as phase:
            skyband = compute_r_skyband(values, region, k, tree=tree)
        _observe_phase("parallel.filter", phase)

    # Degenerate cases keep the serial path: nothing to fan out.
    if shard_count <= 1 or skyband.size <= k:
        first = second = None
        if algorithm in ("rsa", "both"):
            first = RSA(values, region, int(k), skyband=skyband, use_drill=use_drill).run()
        if algorithm in ("jaa", "both"):
            second = JAA(values, region, int(k), skyband=skyband).run()
        return first, second

    subregions = subdivide_region(region, shard_count)
    if len(subregions) == 1:
        return parallel_utk_query(
            values, region, k, workers=1, algorithm=algorithm,
            skyband=skyband, use_drill=use_drill,
        )
    with span("parallel.query", shards=len(subregions), workers=workers, backend=backend):
        tasks = [
            ShardTask(
                shard_id=shard_id,
                algorithm=algorithm,
                region=subregion,
                k=int(k),
                candidate_indices=skyband.indices,
                candidate_rows=skyband.values,
                use_drill=use_drill,
                trace=_obs_runtime.enabled(),
            )
            for shard_id, subregion in enumerate(subregions)
        ]
        _metric_names.PARALLEL_SHARDS.inc(len(tasks))
        with span("parallel.fanout", shards=len(tasks)) as phase:
            outcomes = _run_tasks(tasks, workers=workers, backend=backend, pool=pool)
        _observe_phase("parallel.fanout", phase)
        # Merged while ``parallel.query`` is the current span, so the shards'
        # serialized traces graft directly under the coordinator span.
        first, second = merge_outcomes(outcomes, region, int(k))
    for result in (first, second):
        if result is None:
            continue
        result.stats["workers"] = workers
        result.stats["parent_skyband_size"] = skyband.size
        result.stats["filter_bbs_nodes_visited"] = skyband.stats.nodes_visited
        result.stats["filter_bbs_records_visited"] = skyband.stats.records_visited
    return first, second


def parallel_utk1(values, region: Region, k: int, **options) -> UTK1Result:
    """UTK1 via the parallel executor (see :func:`parallel_utk_query`)."""
    first, _ = parallel_utk_query(values, region, k, algorithm="rsa", **options)
    return first


def parallel_utk2(values, region: Region, k: int, **options) -> UTK2Result:
    """UTK2 via the parallel executor (see :func:`parallel_utk_query`)."""
    _, second = parallel_utk_query(values, region, k, algorithm="jaa", **options)
    return second
