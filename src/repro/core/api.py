"""Convenience API for UTK queries.

``utk1`` and ``utk2`` are the recommended entry points: they accept either a
raw matrix or a :class:`~repro.core.records.Dataset`, an optional scoring
function, and the query region, and they run the paper's RSA / JAA
algorithms.  ``utk_query`` answers both problem versions while computing the
shared filtering step only once.

Heavy queries can fan out across worker processes: ``workers=N`` (or
``parallel=True``) routes the refinement step through the region-partitioned
executor of :mod:`repro.parallel`, which splits the query region, solves
each sub-region in parallel, and merges the answers — same record sets,
same top-k sets as the serial run.

For repeated queries against the same dataset, pass an ``engine`` (built with
:func:`make_engine`): the call is then served through the persistent
:class:`~repro.engine.engine.UTKEngine`, which shares the scoring transform
and the R-tree across calls and reuses cached r-skybands and answers.
"""

from __future__ import annotations

import numpy as np

from repro.core.jaa import JAA
from repro.core.records import Dataset
from repro.core.region import Region
from repro.core.result import UTK1Result, UTK2Result
from repro.core.rsa import RSA
from repro.core.rskyband import compute_r_skyband
from repro.core.scoring import LinearScoring, ScoringFunction
from repro.exceptions import InvalidQueryError
from repro.index.rtree import RTree
from repro.obs.trace import span


def _as_matrix(data) -> np.ndarray:
    """Accept either a Dataset or an array-like and return the value matrix."""
    if isinstance(data, Dataset):
        return data.values
    return np.asarray(data, dtype=float)


def _check_engine_call(scoring, tree, workers=None, parallel=None) -> None:
    """Reject per-call options the engine cannot honour.

    An engine fixes its scoring transform, R-tree and parallel configuration
    at construction; silently ignoring a per-call override would return
    answers for the wrong query (or with the wrong execution plan).
    """
    if scoring is not None or tree is not None:
        raise InvalidQueryError(
            "scoring/tree cannot be overridden per call when engine= is "
            "given; configure them when building the engine (make_engine)"
        )
    if workers is not None or parallel is not None:
        raise InvalidQueryError(
            "workers/parallel cannot be overridden per call when engine= is "
            "given; configure parallel_workers when building the engine"
        )


def _resolve_workers(workers: int | None, parallel: bool | None) -> int:
    """Worker count from the ``workers``/``parallel`` knob pair.

    ``parallel=False`` forces the serial path regardless of ``workers``;
    ``parallel=True`` without a count uses one worker per CPU; otherwise the
    explicit ``workers`` (defaulting to 1, the serial path) wins.
    """
    if parallel is False:
        return 1
    if workers is None:
        if parallel:
            from repro.parallel import default_workers

            return default_workers()
        return 1
    return max(1, int(workers))


def make_engine(
    data,
    *,
    scoring: ScoringFunction | None = None,
    cache_size: int = 128,
    parallel_workers: int = 0,
    parallel_min_candidates: int | None = None,
    store: str = "memory",
    store_dir=None,
):
    """Bind a persistent :class:`~repro.engine.engine.UTKEngine` to ``data``.

    The engine applies the scoring transform and builds the shared R-tree
    once, then serves every subsequent ``utk1``/``utk2``/batch call through
    its caches.  ``parallel_workers`` enables the region-partitioned parallel
    path for heavy cache-miss queries (see :class:`UTKEngine`).  Imported
    lazily to keep the one-shot path dependency-free.

    ``store`` selects the storage backend.  ``"memory"`` (default) holds the
    dataset in RAM and ``"shm"`` in shared memory (see :class:`UTKEngine`).
    ``"colstore"`` binds to memory-mapped columnar storage under
    ``store_dir`` through its paged R-tree: when ``data`` is ``None`` the
    persisted store there is attached read-only together with its index
    (built on demand); otherwise ``data`` is first materialized into a fresh
    colstore at ``store_dir``.  Either way the engine serves reads only and
    queries the mmap views zero-copy, so it requires the identity (linear)
    scoring transform.
    """
    from repro.engine import UTKEngine

    options: dict = {}
    if parallel_min_candidates is not None:
        options["parallel_min_candidates"] = parallel_min_candidates
    if store == "colstore":
        from repro.core.scoring import LinearScoring
        from repro.colstore.attach import attach_engine_inputs

        if scoring is not None and not isinstance(scoring, LinearScoring):
            raise InvalidQueryError(
                "the colstore backend indexes raw attribute values; only the "
                "identity (linear) scoring transform is supported"
            )
        # The engine takes over the materialized (or re-attached) store and
        # its paged index as they are: no heap copy, no second tree.
        store, options["tree"] = attach_engine_inputs(data, store_dir)
        data = None
    return UTKEngine(
        data,
        scoring=scoring,
        cache_size=cache_size,
        parallel_workers=parallel_workers,
        store=store,
        **options,
    )


def k_skyband(
    data, k: int, *, scoring: ScoringFunction | None = None, tree: RTree | None = None, engine=None
) -> np.ndarray:
    """Indices of the traditional k-skyband of the (transformed) dataset.

    The one-shot path silently built (and threw away) an R-tree on every call
    for datasets above the index threshold; callers that issue repeated
    skyband queries should either pass a pre-built ``tree`` or — preferably —
    an ``engine``, whose cached R-tree and per-``k`` skyband memo are shared
    with the UTK query paths.

    Parameters
    ----------
    data:
        A :class:`~repro.core.records.Dataset` or an ``(n, d)`` matrix.
        Ignored when ``engine`` is given (the engine is already bound).
    k:
        Skyband parameter: records dominated by fewer than ``k`` others.
    scoring, tree:
        As in :func:`utk1`; rejected when ``engine`` is given.
    engine:
        Optional :class:`~repro.engine.engine.UTKEngine`; the skyband is then
        computed over the engine's transformed matrix with its cached R-tree
        and memoized per ``k``.
    """
    if engine is not None:
        _check_engine_call(scoring, tree)
        return engine.k_skyband(k)
    # Imported lazily (as make_engine does) to keep repro.core importable
    # independently of the skyline package.
    from repro.skyline.skyband import k_skyband as traditional_k_skyband

    scoring = scoring or LinearScoring()
    values = scoring.transform(_as_matrix(data))
    return traditional_k_skyband(values, k, tree=tree)


def utk1(
    data,
    region: Region,
    k: int,
    *,
    scoring: ScoringFunction | None = None,
    tree: RTree | None = None,
    use_drill: bool | None = None,
    workers: int | None = None,
    parallel: bool | None = None,
    engine=None,
) -> UTK1Result:
    """Answer a UTK1 query: which records may enter the top-k within ``region``.

    Parameters
    ----------
    data:
        A :class:`~repro.core.records.Dataset` or an ``(n, d)`` matrix.
        Ignored when ``engine`` is given (the engine is already bound).
    region:
        Convex preference region (dimension ``d - 1``).
    k:
        Top-k parameter.
    scoring:
        Optional scoring function from :mod:`repro.core.scoring`; defaults to
        the linear weighted sum.
    tree:
        Optional pre-built R-tree over the (transformed) data.
    use_drill:
        Enable the drill optimization (Section 4.3); defaults to enabled.
    workers:
        Fan the refinement out over this many worker processes via the
        region-partitioned executor (:mod:`repro.parallel`); ``None`` or
        ``1`` runs serially.  The answer is the same either way.
    parallel:
        ``True`` enables the parallel path with one worker per CPU when
        ``workers`` is not given; ``False`` forces the serial path.
    engine:
        Optional :class:`~repro.engine.engine.UTKEngine`; when given, the
        query is served through the engine's caches (fast path) and the
        per-call ``scoring``/``tree``/``use_drill``/``workers`` options are
        rejected — they are fixed at engine construction.
    """
    if engine is not None:
        _check_engine_call(scoring, tree, workers, parallel)
        if use_drill is not None:
            raise InvalidQueryError("use_drill cannot be overridden per call when engine= is given")
        return engine.utk1(region, k)
    scoring = scoring or LinearScoring()
    values = scoring.transform(_as_matrix(data))
    drill = True if use_drill is None else use_drill
    worker_count = _resolve_workers(workers, parallel)
    with span("query.utk1", k=int(k), workers=worker_count):
        if worker_count > 1:
            from repro.parallel import parallel_utk1

            return parallel_utk1(
                values, region, k, workers=worker_count, tree=tree, use_drill=drill
            )
        return RSA(values, region, k, tree=tree, use_drill=drill).run()


def utk2(
    data,
    region: Region,
    k: int,
    *,
    scoring: ScoringFunction | None = None,
    tree: RTree | None = None,
    workers: int | None = None,
    parallel: bool | None = None,
    engine=None,
) -> UTK2Result:
    """Answer a UTK2 query: the exact top-k set for every weight vector in ``region``.

    ``workers``/``parallel`` fan the arrangement construction out across
    worker processes (see :func:`utk1`); the merged partitioning covers the
    same top-k sets as the serial run.
    """
    if engine is not None:
        _check_engine_call(scoring, tree, workers, parallel)
        return engine.utk2(region, k)
    scoring = scoring or LinearScoring()
    values = scoring.transform(_as_matrix(data))
    worker_count = _resolve_workers(workers, parallel)
    with span("query.utk2", k=int(k), workers=worker_count):
        if worker_count > 1:
            from repro.parallel import parallel_utk2

            return parallel_utk2(values, region, k, workers=worker_count, tree=tree)
        return JAA(values, region, k, tree=tree).run()


def utk_query(
    data,
    region: Region,
    k: int,
    *,
    scoring: ScoringFunction | None = None,
    tree: RTree | None = None,
    workers: int | None = None,
    parallel: bool | None = None,
    engine=None,
) -> tuple[UTK1Result, UTK2Result]:
    """Answer both UTK versions, sharing the r-skyband filtering step.

    With ``workers=N`` (or ``parallel=True``) the shared filtering still runs
    once; the refinement of both problem versions is then solved per
    sub-region in one pool pass and merged.
    """
    if engine is not None:
        _check_engine_call(scoring, tree, workers, parallel)
        return engine.query(region, k)
    scoring = scoring or LinearScoring()
    values = scoring.transform(_as_matrix(data))
    worker_count = _resolve_workers(workers, parallel)
    with span("query.utk_query", k=int(k), workers=worker_count):
        with span("query.filter"):
            skyband = compute_r_skyband(values, region, k, tree=tree)
        if worker_count > 1:
            from repro.parallel import parallel_utk_query

            first, second = parallel_utk_query(
                values, region, k, workers=worker_count, skyband=skyband
            )
            return first, second
        first = RSA(values, region, k, tree=tree, skyband=skyband).run()
        second = JAA(values, region, k, tree=tree, skyband=skyband).run()
        return first, second
