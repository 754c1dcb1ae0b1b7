"""Command-line interface.

``python -m repro`` (or the installed ``repro`` script) exposes the two UTK
query versions, batch serving, and the benchmark experiments without writing
any code:

* ``query`` — run UTK1/UTK2 on a synthetic or simulated-real dataset for a
  hyper-rectangular preference region;
* ``batch`` — serve a JSON-lines file of queries through a persistent
  :class:`~repro.engine.engine.UTKEngine` and report results plus cache
  statistics;
* ``stream`` — serve a JSON-lines stream of interleaved
  ``insert``/``delete``/``query`` events through a
  :class:`~repro.engine.engine.UTKEngine`, whose caches are repaired per
  update instead of cleared;
* ``experiment`` — run one of the per-figure experiment generators and print
  the rows the paper's figure plots;
* ``metrics`` — print the observability metric schema, or summarize a
  metrics JSONL snapshot written by ``--metrics``;
* ``matrix`` — run the scenario × backend matrix (the CI/nightly entry
  point): every cell oracle-checked against the SQL pushdown, artifacts
  schema-versioned, ``--gates`` additionally runs the benchmark smoke gates;
* ``serve`` — run the serving tier: the engine over shared memory
  (:class:`~repro.serve.engine.ServeEngine`) behind an asyncio JSONL
  socket protocol, draining gracefully on ``SIGTERM``;
* ``soak`` — fire concurrent query and update clients at a running
  ``serve`` instance and verify every answer against a serial replay
  (zero stale answers allowed);
* ``trend`` — compare a ``BENCH_matrix.json`` against a baseline snapshot
  and fail on >20% gated-cell regressions.

Observability flags: ``query --trace out.json`` records a span tree of the
whole run and writes it as Chrome ``trace_event`` JSON (load it in
``chrome://tracing`` or https://ui.perfetto.dev); ``--metrics out.prom`` (or
``out.jsonl``) on ``query``/``batch``/``stream`` enables the metrics registry
for the run and writes a snapshot in Prometheus text or JSONL form.  Both
exports carry a provenance header (tool version + git describe).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

import numpy as np

from repro.bench import experiments as _experiments
from repro.bench.reporting import format_table
from repro.core.api import make_engine, utk1, utk2, utk_query
from repro.core.region import hyperrectangle
from repro.datasets.real import real_dataset
from repro.datasets.synthetic import DISTRIBUTIONS, synthetic_dataset
from repro.engine.batch import BatchQuery, summarize_batch
from repro.exceptions import InvalidQueryError
import repro.obs.provenance as _provenance
from repro.obs import runtime as _obs_runtime
from repro.obs import trace as _obs_trace
from repro.obs.metrics import REGISTRY
from repro.obs.names import schema as _metrics_schema

#: Experiment names accepted by ``python -m repro experiment``.
EXPERIMENTS = {
    "table1": _experiments.experiment_table1,
    "fig10": _experiments.experiment_fig10,
    "fig11": _experiments.experiment_fig11,
    "fig12": _experiments.experiment_fig12,
    "fig13": _experiments.experiment_fig13,
    "fig14": _experiments.experiment_fig14,
    "fig15": _experiments.experiment_fig15,
    "fig16": _experiments.experiment_fig16,
    "ablation-rsa": _experiments.experiment_ablation_rsa,
    "ablation-jaa": _experiments.experiment_ablation_jaa,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Uncertain top-k (UTK) queries — reproduction of Mouratidis & Tang, PVLDB 2018",
    )
    parser.add_argument(
        "--version", action="version", version=_provenance.version_string(),
        help="print the tool version (with git describe when available) and exit",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    query = subparsers.add_parser("query", help="run a UTK query on a generated dataset")
    query.add_argument(
        "--dataset", default="IND", help="IND, COR, ANTI, HOTEL, HOUSE or NBA (default IND)"
    )
    query.add_argument(
        "--cardinality", type=int, default=2000, help="number of records to generate (default 2000)"
    )
    query.add_argument(
        "--dimensionality",
        type=int,
        default=3,
        help="attributes for synthetic datasets (default 3)",
    )
    query.add_argument("--k", type=int, default=3, help="top-k parameter (default 3)")
    query.add_argument(
        "--lower",
        type=float,
        nargs="+",
        required=True,
        help="lower corner of the preference region (d-1 values)",
    )
    query.add_argument(
        "--upper",
        type=float,
        nargs="+",
        required=True,
        help="upper corner of the preference region (d-1 values)",
    )
    query.add_argument(
        "--version",
        choices=["utk1", "utk2", "both"],
        default="both",
        help="which UTK problem version to answer",
    )
    query.add_argument("--seed", type=int, default=0, help="dataset seed")
    query.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the region-partitioned parallel executor "
             "(default 1 = serial; the answer is identical either way)",
    )
    query.add_argument(
        "--stats",
        action="store_true",
        help="include per-run algorithm statistics (arrangement counters plus "
             "the lp_calls/vertex_clip_calls/enumeration_calls/fallback_calls "
             "geometry telemetry)",
    )
    query.add_argument("--json", action="store_true", help="emit JSON instead of text")
    query.add_argument(
        "--trace", metavar="PATH", default=None,
        help="record a span trace of the run and write it as Chrome "
             "trace_event JSON to PATH (open in chrome://tracing or Perfetto)",
    )
    query.add_argument(
        "--metrics", metavar="PATH", default=None,
        help="enable the metrics registry for the run and write a snapshot "
             "to PATH (.prom = Prometheus text, anything else = JSONL)",
    )
    query.add_argument(
        "--store",
        choices=["memory", "colstore"],
        default="memory",
        help="storage backend: memory (default) or colstore (memory-mapped "
             "columnar files + paged R-tree; see `repro build`)",
    )
    query.add_argument(
        "--store-dir", metavar="DIR", default=None,
        help="colstore directory; attaches an existing store there (dataset "
             "flags are then ignored) or materializes the generated dataset "
             "first",
    )

    build = subparsers.add_parser(
        "build",
        help="materialize a dataset into a colstore directory (records + paged R-tree)",
    )
    build.add_argument("--dataset", default="IND",
                       help="IND, COR, ANTI, CLUS, HOTEL, HOUSE or NBA (default IND)")
    build.add_argument("--cardinality", type=int, default=100_000,
                       help="records to generate (default 100000)")
    build.add_argument("--dimensionality", type=int, default=3,
                       help="attributes for synthetic datasets (default 3)")
    build.add_argument("--seed", type=int, default=0, help="dataset seed")
    build.add_argument("--store-dir", metavar="DIR", required=True,
                       help="target colstore directory")
    build.add_argument("--chunk-rows", type=int, default=1 << 18,
                       help="rows generated and ingested per chunk (default 262144)")
    build.add_argument("--max-entries", type=int, default=None,
                       help="R-tree page fanout (default 64)")
    build.add_argument("--budget-rows", type=int, default=None,
                       help="rows the streaming STR sort may touch per pass "
                            "(default 1048576)")
    build.add_argument("--json", action="store_true", help="emit JSON instead of text")

    inspect = subparsers.add_parser(
        "inspect",
        help="print store/index layout statistics for a colstore directory",
    )
    inspect.add_argument("--store-dir", metavar="DIR", required=True,
                         help="colstore directory to inspect")
    inspect.add_argument("--json", action="store_true", help="emit JSON instead of text")

    batch = subparsers.add_parser(
        "batch", help="serve a JSON-lines query file through a persistent engine"
    )
    batch.add_argument("--input", required=True,
                       help="JSON-lines query file, or '-' for stdin; each line "
                            "is {\"lower\": [...], \"upper\": [...], \"k\": int, "
                            "\"version\": \"utk1\"|\"utk2\"|\"both\"}")
    batch.add_argument(
        "--dataset", default="IND", help="IND, COR, ANTI, HOTEL, HOUSE or NBA (default IND)"
    )
    batch.add_argument(
        "--cardinality", type=int, default=2000, help="number of records to generate (default 2000)"
    )
    batch.add_argument(
        "--dimensionality",
        type=int,
        default=3,
        help="attributes for synthetic datasets (default 3)",
    )
    batch.add_argument("--seed", type=int, default=0, help="dataset seed")
    batch.add_argument(
        "--workers",
        type=int,
        default=1,
        help="thread-pool size for independent queries (default 1)",
    )
    batch.add_argument(
        "--cache-size", type=int, default=128, help="capacity of each engine cache (default 128)"
    )
    batch.add_argument(
        "--parallel-workers",
        type=int,
        default=0,
        help="worker-process pool for heavy cache-miss queries "
             "(default 0; values below 2 keep every query serial)",
    )
    batch.add_argument(
        "--parallel-min-candidates",
        type=int,
        default=48,
        help="r-skyband size from which a query is routed to the parallel path (default 48)",
    )
    batch.add_argument(
        "--output", default="-", help="file to write the JSON report to (default stdout)"
    )
    batch.add_argument(
        "--metrics", metavar="PATH", default=None,
        help="enable the metrics registry for the run and write a snapshot "
             "to PATH (.prom = Prometheus text, anything else = JSONL)",
    )

    stream = subparsers.add_parser(
        "stream", help="serve an interleaved insert/delete/query event stream"
    )
    stream.add_argument(
        "--input", required=True,
        help="JSON-lines event file, or '-' for stdin; each line is "
             "{\"op\": \"insert\", \"values\": [...]}, "
             "{\"op\": \"delete\", \"id\": int} or "
             "{\"op\": \"query\", \"lower\": [...], \"upper\": [...], "
             "\"k\": int, \"version\": \"utk1\"|\"utk2\"|\"both\"}"
    )
    stream.add_argument(
        "--dataset", default="IND", help="IND, COR, ANTI, HOTEL, HOUSE or NBA (default IND)"
    )
    stream.add_argument(
        "--cardinality", type=int, default=2000,
        help="initial number of records (default 2000; ids 0..n-1)",
    )
    stream.add_argument(
        "--dimensionality",
        type=int,
        default=3,
        help="attributes for synthetic datasets (default 3)",
    )
    stream.add_argument("--seed", type=int, default=0, help="dataset seed")
    stream.add_argument(
        "--cache-size", type=int, default=128, help="capacity of each engine cache (default 128)"
    )
    stream.add_argument(
        "--output", default="-", help="file to write the JSON report to (default stdout)"
    )
    stream.add_argument(
        "--metrics", metavar="PATH", default=None,
        help="enable the metrics registry for the run and write a snapshot "
             "to PATH (.prom = Prometheus text, anything else = JSONL)",
    )

    experiment = subparsers.add_parser(
        "experiment", help="regenerate one of the paper's experiments"
    )
    experiment.add_argument(
        "name", choices=sorted(EXPERIMENTS), help="experiment identifier (e.g. fig12)"
    )
    experiment.add_argument(
        "--scale",
        type=json.loads,
        default=None,
        help="JSON dict overriding the quick-scale parameters",
    )

    metrics = subparsers.add_parser(
        "metrics", help="print the metric schema or summarize a metrics snapshot"
    )
    metrics.add_argument(
        "--input", default=None,
        help="metrics JSONL snapshot (written by --metrics) to summarize; "
             "omitted: print the registry's metric schema",
    )

    matrix = subparsers.add_parser(
        "matrix", help="run the scenario x backend matrix (CI/nightly entry point)"
    )
    matrix.add_argument(
        "--scenario", action="append", default=None, metavar="NAME",
        help="scenario cell selection (repeatable; default: all registered)",
    )
    matrix.add_argument(
        "--backend", action="append", default=None, metavar="NAME",
        help="backend cell selection (repeatable; default: all registered)",
    )
    matrix.add_argument(
        "--smoke", action="store_true",
        help="use each scenario's reduced smoke sizing (the CI configuration)",
    )
    matrix.add_argument(
        "--no-oracle", action="store_true",
        help="skip the SQL pushdown cross-check of every cell",
    )
    matrix.add_argument(
        "--sql-backend", choices=["auto", "duckdb", "sqlite"], default="auto",
        help="embedded SQL engine for the oracle and the sql backend (default auto)",
    )
    matrix.add_argument(
        "--output-dir", default=".",
        help="directory for BENCH_matrix.json and per-cell METRICS_*.jsonl (default .)",
    )
    matrix.add_argument(
        "--report", choices=["text", "md", "json"], default="text",
        help="report format printed to stdout (default text)",
    )
    matrix.add_argument(
        "--gates", action="store_true",
        help="also run the consolidated benchmark smoke gates "
             "(the six bench_*.py gates CI used to list by hand)",
    )

    serve = subparsers.add_parser(
        "serve", help="serve UTK queries and updates over a JSONL socket protocol"
    )
    serve.add_argument(
        "--dataset", default="IND", help="IND, COR, ANTI, HOTEL, HOUSE or NBA (default IND)"
    )
    serve.add_argument(
        "--cardinality", type=int, default=2000,
        help="initial number of records (default 2000; ids 0..n-1)",
    )
    serve.add_argument(
        "--dimensionality", type=int, default=3,
        help="attributes for synthetic datasets (default 3)",
    )
    serve.add_argument("--seed", type=int, default=0, help="dataset seed")
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    serve.add_argument(
        "--port", type=int, default=0,
        help="bind port (default 0 = pick a free port; see --ready-file)",
    )
    serve.add_argument(
        "--ready-file", default=None, metavar="PATH",
        help="write {\"host\", \"port\", \"pid\"} JSON to PATH once listening",
    )
    serve.add_argument(
        "--cache-size", type=int, default=128,
        help="capacity of each engine cache (default 128)",
    )
    serve.add_argument(
        "--query-threads", type=int, default=4,
        help="concurrent query evaluations (default 4)",
    )
    serve.add_argument(
        "--shared-workers", type=int, default=0,
        help="query worker processes attaching the dataset via shared memory "
             "(default 0 = evaluate queries in-process)",
    )
    serve.add_argument(
        "--wal-dir", default=None, metavar="DIR",
        help="write-ahead log directory: every update is appended (and fsynced) "
             "before it is acked, and an existing log is replayed at startup so "
             "a killed server restarts to its exact acked prefix",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=64,
        help="query admission bound; beyond it requests get a retriable "
             "\"overloaded\" error with a retry_after hint (default 64)",
    )
    serve.add_argument(
        "--fault-plan", default=None, metavar="PATH",
        help="JSON fault plan (repro.resilience.faults) whose slow_update "
             "entries stall the update executor — chaos-lane use only",
    )
    serve.add_argument(
        "--metrics", metavar="PATH", default=None,
        help="enable the metrics registry and write a snapshot to PATH on shutdown",
    )
    serve.add_argument(
        "--trace", metavar="PATH", default=None,
        help="record a span trace and write Chrome trace_event JSON on shutdown",
    )

    soak = subparsers.add_parser(
        "soak", help="concurrent query+update load against a running serve instance, "
                     "every answer verified against a serial replay"
    )
    soak.add_argument("--host", default="127.0.0.1", help="server address (default 127.0.0.1)")
    soak.add_argument("--port", type=int, default=None, help="server port")
    soak.add_argument(
        "--ready-file", default=None, metavar="PATH",
        help="read host/port from a serve --ready-file instead of --port",
    )
    soak.add_argument(
        "--dataset", default="IND",
        help="initial dataset — must match the server's --dataset (default IND)",
    )
    soak.add_argument(
        "--cardinality", type=int, default=2000,
        help="must match the server's --cardinality (default 2000)",
    )
    soak.add_argument(
        "--dimensionality", type=int, default=3,
        help="must match the server's --dimensionality (default 3)",
    )
    soak.add_argument("--seed", type=int, default=0, help="must match the server's --seed")
    soak.add_argument(
        "--events", type=int, default=120,
        help="length of the generated zipf-churn event stream (default 120)",
    )
    soak.add_argument(
        "--stream-seed", type=int, default=1,
        help="seed of the generated event stream (default 1)",
    )
    soak.add_argument(
        "--clients", type=int, default=4,
        help="concurrent query connections (default 4; one extra applies updates)",
    )
    soak.add_argument(
        "--timeout", type=float, default=300.0,
        help="per-thread load timeout in seconds (default 300)",
    )
    soak.add_argument(
        "--report", default=None, metavar="PATH",
        help="write the full soak report (stale details included) as JSON to PATH",
    )
    soak.add_argument(
        "--chaos", action="store_true",
        help="chaos mode: spawn the server as a subprocess and inject a "
             "deterministic seeded fault schedule (worker kills, server "
             "crash+restart, connection drops/delays, slow updates) while "
             "the serial-replay oracle still requires zero stale answers "
             "and zero lost acked updates; --host/--port are ignored",
    )
    soak.add_argument(
        "--schedule", default="mixed",
        help="chaos fault schedule: worker-kill, conn-drop, server-crash, "
             "slow-update or mixed (default mixed)",
    )
    soak.add_argument(
        "--chaos-seed", type=int, default=None,
        help="fault-plan seed (default: --seed); same schedule + seed + "
             "workload shape → identical fault plan",
    )
    soak.add_argument(
        "--workdir", default=None, metavar="DIR",
        help="chaos artifact directory — WAL, fault plan, per-start server "
             "logs (default chaos-<schedule>-<seed>)",
    )
    soak.add_argument(
        "--shared-workers", type=int, default=None,
        help="shared query workers for the chaos server (default: 2 when "
             "the schedule kills workers, else 0)",
    )

    trend = subparsers.add_parser(
        "trend", help="compare a BENCH_matrix.json against a baseline snapshot"
    )
    trend.add_argument(
        "--current", default="BENCH_matrix.json",
        help="current BENCH_matrix.json (default ./BENCH_matrix.json)",
    )
    trend.add_argument(
        "--baseline", default="benchmarks/baselines/BENCH_matrix.json",
        help="baseline snapshot (default benchmarks/baselines/BENCH_matrix.json)",
    )
    trend.add_argument(
        "--threshold", type=float, default=None,
        help="relative throughput loss that fails a gated cell (default 0.2)",
    )
    trend.add_argument(
        "--report", choices=["text", "md"], default="text",
        help="report format printed to stdout (default text)",
    )
    trend.add_argument(
        "--output", default=None, metavar="PATH",
        help="also write the markdown report to PATH "
             "(e.g. $GITHUB_STEP_SUMMARY in CI)",
    )
    return parser


def _obs_start() -> None:
    """Enable observability for this process with clean trace/metric state."""
    REGISTRY.reset()
    _obs_trace.reset()
    _obs_runtime.enable()


def _write_metrics(path: str) -> None:
    """Export the registry snapshot: ``.prom`` → Prometheus text, else JSONL."""
    header = _provenance.provenance()
    if path.endswith(".prom"):
        REGISTRY.write_prometheus(path, header=header)
    else:
        REGISTRY.write_jsonl(path, header=header)
    print(f"metrics written to {path}", file=sys.stderr)


def _load_dataset(name: str, cardinality: int, dimensionality: int, seed: int):
    key = name.upper()
    if key in DISTRIBUTIONS:
        return synthetic_dataset(key, cardinality, dimensionality, seed)
    return real_dataset(key, cardinality, seed)


def _run_query(args: argparse.Namespace) -> int:
    engine = None
    if args.store == "colstore":
        if args.store_dir is None:
            print("error: --store colstore needs --store-dir", file=sys.stderr)
            return 2
        from pathlib import Path

        attached = (Path(args.store_dir) / "manifest.json").exists()
        data = None
        if not attached:
            data = _load_dataset(
                args.dataset, args.cardinality, args.dimensionality, args.seed
            ).values
        engine = make_engine(data, store="colstore", store_dir=args.store_dir)
        n, d = engine.values.shape
        payload: dict = {
            "dataset": "colstore" if attached else args.dataset.upper(),
            "n": int(n), "d": int(d), "k": args.k,
            "store": "colstore", "store_dir": args.store_dir,
        }
    else:
        data = _load_dataset(args.dataset, args.cardinality, args.dimensionality, args.seed)
        payload = {
            "dataset": args.dataset.upper(), "n": data.size, "d": data.dimensionality,
            "k": args.k,
        }
    region = hyperrectangle(args.lower, args.upper)
    if args.workers > 1:
        payload["workers"] = args.workers
    result = partitioning = None
    observing = args.trace is not None or args.metrics is not None
    if observing:
        _obs_start()
    try:
        with _obs_trace.capture() as captured:
            if engine is not None:
                # Colstore path: the engine traverses the paged R-tree over
                # the store's mmap views (workers stay serial here).
                if args.version in ("utk1", "both"):
                    result = engine.utk1(region, args.k)
                if args.version in ("utk2", "both"):
                    partitioning = engine.utk2(region, args.k)
            elif args.version == "both":
                # One utk_query call shares the r-skyband filtering (and, with
                # workers > 1, a single pool pass) across both problem versions.
                result, partitioning = utk_query(data, region, args.k, workers=args.workers)
            elif args.version == "utk1":
                result = utk1(data, region, args.k, workers=args.workers)
            else:
                partitioning = utk2(data, region, args.k, workers=args.workers)
    finally:
        if observing:
            _obs_runtime.disable()
    if args.trace is not None:
        _obs_trace.write_chrome_trace(args.trace, captured, metadata=_provenance.provenance())
        print(f"trace written to {args.trace}", file=sys.stderr)
    if args.metrics is not None:
        _write_metrics(args.metrics)
    if result is not None:
        payload["utk1"] = {
            "records": result.indices,
            "witnesses": {str(i): np.round(result.witness_of(i), 6).tolist()
                          for i in result.indices},
        }
        if args.stats:
            payload["utk1"]["stats"] = result.stats
    if partitioning is not None:
        payload["utk2"] = {
            "partitions": len(partitioning),
            "distinct_top_k_sets": [sorted(s) for s in partitioning.distinct_top_k_sets],
        }
        if args.stats:
            payload["utk2"]["stats"] = partitioning.stats
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    print(f"{payload['dataset']}: n={payload['n']}, d={payload['d']}, k={payload['k']}")
    if "utk1" in payload:
        print(f"UTK1 ({len(payload['utk1']['records'])} records): " f"{payload['utk1']['records']}")
    if "utk2" in payload:
        print(f"UTK2: {payload['utk2']['partitions']} partitions, "
              f"{len(payload['utk2']['distinct_top_k_sets'])} distinct top-k sets")
        for top in payload["utk2"]["distinct_top_k_sets"]:
            print(f"  {top}")
    for version in ("utk1", "utk2"):
        stats = payload.get(version, {}).get("stats")
        if stats:
            print(f"{version.upper()} stats: "
                  + " ".join(f"{key}={value}" for key, value in stats.items()))
    return 0


def _run_build(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.colstore import INDEX_NAME, ColumnarRecordStore, build_paged_rtree
    from repro.datasets.synthetic import synthetic_chunks

    started = time.perf_counter()
    key = args.dataset.upper()
    if key in DISTRIBUTIONS:
        chunks = synthetic_chunks(
            key, args.cardinality, args.dimensionality, args.seed,
            chunk_rows=args.chunk_rows,
        )
        store = ColumnarRecordStore.from_chunks(chunks, args.store_dir)
    else:
        store = ColumnarRecordStore(
            real_dataset(key, args.cardinality, args.seed).values,
            directory=args.store_dir,
        )
    options: dict = {}
    if args.max_entries is not None:
        options["max_entries"] = args.max_entries
    if args.budget_rows is not None:
        options["budget_rows"] = args.budget_rows
    meta = build_paged_rtree(store, Path(args.store_dir) / INDEX_NAME, **options)
    store.close()
    payload = {
        "store_dir": args.store_dir,
        "dataset": key,
        "records": int(meta["size"]),
        "dimensionality": args.dimensionality,
        "index": meta,
        "seconds": round(time.perf_counter() - started, 3),
    }
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    print(f"built colstore at {args.store_dir}: {payload['records']} records "
          f"({key}), {meta['n_pages']} index pages (height {meta['height']}, "
          f"fanout {meta['fanout']}) in {payload['seconds']}s")
    return 0


def _run_inspect(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.colstore import INDEX_NAME, ColumnarRecordStore, PagedRTree
    from repro.exceptions import StorageError

    try:
        store = ColumnarRecordStore.open(args.store_dir, mode="r")
    except StorageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = {
        "store_dir": args.store_dir,
        "records": int(store.high_water),
        "active": len(store),
        "tombstones": int(store.high_water) - len(store),
        "capacity": store.manifest()["capacity"],
        "generation": store.generation,
        "column_dtypes": store.column_dtypes(),
    }
    index_path = Path(args.store_dir) / INDEX_NAME
    if index_path.exists():
        tree = PagedRTree(index_path, store.matrix)
        tree.read_root()  # touch the root so the pool is warm
        payload["index"] = {
            "pages": int(tree.meta["n_pages"]),
            "leaves": int(tree.meta["n_leaves"]),
            "height": tree.height(),
            "fanout": tree.max_entries,
            "fill_factor": round(tree.fill_factor(), 4),
            "page_size": int(tree.meta["page_size"]),
            "resident_pages": tree.pool.resident(),
            "pool_capacity": tree.pool.capacity,
        }
    else:
        payload["index"] = None
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    print(f"colstore {args.store_dir} (generation {payload['generation']})")
    print(f"  records: {payload['records']} ({payload['active']} active, "
          f"{payload['tombstones']} tombstones, capacity {payload['capacity']})")
    print(f"  columns: {len(payload['column_dtypes'])} × "
          f"{payload['column_dtypes'][0] if payload['column_dtypes'] else '-'}")
    index = payload["index"]
    if index is None:
        print("  index: none (run `repro build` or attach once to create it)")
    else:
        print(f"  index: {index['pages']} pages ({index['leaves']} leaves), "
              f"height {index['height']}, fanout {index['fanout']}, "
              f"fill {index['fill_factor']}, page size {index['page_size']}B")
        print(f"  buffer pool: {index['resident_pages']}/{index['pool_capacity']} "
              f"pages resident")
    return 0


def _parse_batch_line(payload: dict, number: int) -> BatchQuery:
    """One JSON-lines query: corners + k (+ optional problem version)."""
    missing = {"lower", "upper", "k"} - set(payload)
    if missing:
        raise InvalidQueryError(f"line {number}: missing field(s) {sorted(missing)}")
    region = hyperrectangle(payload["lower"], payload["upper"])
    return BatchQuery(region=region, k=int(payload["k"]), version=payload.get("version", "utk1"))


def _read_jsonl(source: str) -> list[tuple[int, dict]]:
    """Parse a JSON-lines file (or stdin for ``-``) into numbered objects."""
    if source == "-":
        lines = sys.stdin.read().splitlines()
    else:
        with open(source, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    objects = []
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise InvalidQueryError(f"line {number}: invalid JSON ({exc})") from exc
        objects.append((number, payload))
    return objects


def _read_batch_queries(source: str) -> list[BatchQuery]:
    return [_parse_batch_line(payload, number) for number, payload in _read_jsonl(source)]


def _write_report(report: dict, output: str) -> None:
    """Serialize a JSON report to stdout (``-``) or a file."""
    text = json.dumps(report, indent=2)
    if output == "-":
        print(text)
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")


def _batch_item_payload(item) -> dict:
    payload: dict = {
        "k": item.query.k,
        "version": item.query.version,
        "sources": item.sources,
        "seconds": round(item.seconds, 6),
    }
    if item.utk1 is not None:
        payload["utk1"] = {"records": item.utk1.indices}
    if item.utk2 is not None:
        payload["utk2"] = {
            "partitions": len(item.utk2),
            "distinct_top_k_sets": sorted(sorted(s) for s in
                                          item.utk2.distinct_top_k_sets),
        }
    return payload


def _run_batch(args: argparse.Namespace) -> int:
    queries = _read_batch_queries(args.input)
    if not queries:
        print("no queries supplied", file=sys.stderr)
        return 1
    data = _load_dataset(args.dataset, args.cardinality, args.dimensionality, args.seed)
    engine = make_engine(
        data,
        cache_size=args.cache_size,
        parallel_workers=args.parallel_workers,
        parallel_min_candidates=args.parallel_min_candidates,
    )
    if args.metrics is not None:
        _obs_start()
    started = time.perf_counter()
    try:
        items = engine.run_batch(queries, workers=args.workers)
    finally:
        engine.close()
        if args.metrics is not None:
            _obs_runtime.disable()
    elapsed = time.perf_counter() - started
    if args.metrics is not None:
        _write_metrics(args.metrics)
    summary = summarize_batch(items)
    report = {
        "dataset": args.dataset.upper(),
        "n": data.size,
        "d": data.dimensionality,
        "workers": args.workers,
        "parallel_workers": args.parallel_workers,
        "queries": summary["queries"],
        "wall_seconds": round(elapsed, 6),
        "queries_per_second": round(summary["queries"] / elapsed, 3)
                              if elapsed > 0 else float("inf"),
        "sources": summary["sources"],
        "geometry": summary["geometry"],
        "cache": engine.statistics(),
        "results": [_batch_item_payload(item) for item in items],
    }
    _write_report(report, args.output)
    return 0


def _read_stream_events(source: str) -> list[dict]:
    """Parse a JSON-lines event file into the ``serve_events`` shape."""
    events = []
    for number, event in _read_jsonl(source):
        if not isinstance(event, dict) or "op" not in event:
            raise InvalidQueryError(f"line {number}: events must be objects with an \"op\" field")
        events.append(event)
    return events


def _run_stream(args: argparse.Namespace) -> int:
    from repro.dynamic import serve_events

    events = _read_stream_events(args.input)
    if not events:
        print("no events supplied", file=sys.stderr)
        return 1
    data = _load_dataset(args.dataset, args.cardinality, args.dimensionality, args.seed)
    engine = make_engine(data, cache_size=args.cache_size)
    if args.metrics is not None:
        _obs_start()
    started = time.perf_counter()
    try:
        results = serve_events(engine, events)
    finally:
        engine.close()
        if args.metrics is not None:
            _obs_runtime.disable()
    elapsed = time.perf_counter() - started
    if args.metrics is not None:
        _write_metrics(args.metrics)
    statistics = engine.statistics()
    # The maintenance counters get their own top-level key; keep the cache
    # block free of a second copy.
    dynamic = statistics.pop("dynamic")
    queries = sum(1 for event in events if event.get("op") == "query")
    sources: dict[str, int] = {}
    for record in results:
        for source in record.get("sources", {}).values():
            sources[source] = sources.get(source, 0) + 1
    report = {
        "dataset": args.dataset.upper(),
        "n_initial": data.size,
        "n_final": len(engine.store),
        "events": len(events),
        "queries": queries,
        "updates": len(events) - queries,
        "wall_seconds": round(elapsed, 6),
        "events_per_second": round(len(events) / elapsed, 3) if elapsed > 0 else float("inf"),
        "sources": dict(sorted(sources.items())),
        "dynamic": dynamic,
        "cache": statistics,
        "results": results,
    }
    _write_report(report, args.output)
    return 0


def _summarize_metric_record(record: dict) -> list[list]:
    """Table rows (labels / value) for one JSONL metric record."""
    rows = []
    for sample in record.get("samples", []):
        labels = ",".join(f"{key}={value}" for key, value in sorted(sample["labels"].items()))
        if record.get("kind") == "histogram":
            count = sample.get("count", 0)
            total = sample.get("sum", 0.0)
            mean = (total / count) if count else 0.0
            value = f"count={count} sum={round(total, 6)} mean={round(mean, 6)}"
        else:
            value = sample.get("value", 0)
        rows.append([record["name"], record.get("kind", "?"), labels or "-", value])
    return rows


def _run_metrics(args: argparse.Namespace) -> int:
    if args.input is None:
        rows = [[entry["name"], entry["kind"], entry["labels"], entry["help"]]
                for entry in _metrics_schema()]
        print(format_table(["name", "kind", "labels", "help"], rows,
                           title="observability metric schema"))
        return 0
    header: dict = {}
    rows = []
    for number, record in _read_jsonl(args.input):
        if not isinstance(record, dict) or "record" not in record:
            raise InvalidQueryError(
                f"line {number}: not a metrics snapshot record (missing \"record\")"
            )
        if record["record"] == "header":
            header = {key: value for key, value in record.items() if key != "record"}
        elif record["record"] == "metric":
            rows.extend(_summarize_metric_record(record))
    for key, value in header.items():
        print(f"# {key}: {value}")
    if rows:
        print(format_table(["name", "kind", "labels", "value"], rows,
                           title=f"metrics snapshot {args.input}"))
    else:
        print("no metric records in snapshot")
    return 0


def _run_experiment(args: argparse.Namespace) -> int:
    rows = EXPERIMENTS[args.name](args.scale)
    if not rows:
        print("no rows produced")
        return 1
    headers = list(rows[0].keys())
    print(format_table(headers, [[row[h] for h in headers] for row in rows],
                       title=f"experiment {args.name}"))
    return 0


def _run_matrix(args: argparse.Namespace) -> int:
    from repro.scenarios import markdown_report, run_gates, run_matrix, text_report

    result = run_matrix(
        args.scenario,
        args.backend,
        smoke=args.smoke,
        oracle=not args.no_oracle,
        sql_backend=args.sql_backend,
        output_dir=args.output_dir,
        progress=lambda line: print(line, file=sys.stderr),
    )
    gate_results: dict = {}
    if args.gates:
        gate_results = run_gates(smoke=args.smoke,
                                 progress=lambda line: print(line, file=sys.stderr))
    if args.report == "json":
        print(json.dumps(result.payload, indent=2))
    elif args.report == "md":
        print(markdown_report(result.payload))
    else:
        print(text_report(result.payload))
    failed_gates = sorted(name for name, outcome in gate_results.items()
                          if not outcome["passed"])
    if failed_gates:
        print(f"benchmark gate(s) failed: {', '.join(failed_gates)}", file=sys.stderr)
    if not result.ok:
        failed_cells = sorted(name for name, passed in result.gates.items()
                              if name.startswith("oracle:") and not passed)
        print(f"oracle mismatch in: {', '.join(failed_cells)}", file=sys.stderr)
    return 0 if result.ok and not failed_gates else 1


def _run_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.serve import ServeEngine
    from repro.serve.server import UTKServer

    data = _load_dataset(args.dataset, args.cardinality, args.dimensionality, args.seed)
    observing = args.metrics is not None or args.trace is not None
    if observing:
        _obs_start()
    engine_kwargs = {"cache_size": args.cache_size}
    wal = None
    recovered = 0
    recovered_txids: dict = {}
    if args.wal_dir is not None:
        from repro.resilience.recovery import recover

        recovery = recover(data, args.wal_dir, engine_kwargs=engine_kwargs)
        engine = recovery.engine
        wal = recovery.wal
        recovered = recovery.replayed
        recovered_txids = recovery.txids
        if recovered or recovery.orphans_removed or recovery.truncated_reason:
            print(
                f"recovered {recovered} update(s) from {args.wal_dir}"
                + (f", removed {len(recovery.orphans_removed)} orphan shm segment(s)"
                   if recovery.orphans_removed else "")
                + (f", WAL tail truncated: {recovery.truncated_reason}"
                   if recovery.truncated_reason else ""),
                file=sys.stderr,
            )
    else:
        engine = ServeEngine(data, **engine_kwargs)
    fault_plan = None
    if args.fault_plan is not None:
        from repro.resilience.faults import FaultPlan

        fault_plan = FaultPlan.from_file(args.fault_plan)
    server = UTKServer(
        engine,
        host=args.host,
        port=args.port,
        query_threads=args.query_threads,
        shared_workers=args.shared_workers,
        wal=wal,
        recovered=recovered,
        recovered_txids=recovered_txids,
        max_inflight=args.max_inflight,
        fault_plan=fault_plan,
    )

    async def run() -> None:
        host, port = await server.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, server.request_stop)
        print(f"serving {args.dataset.upper()} n={data.size} on {host}:{port}",
              file=sys.stderr)
        if args.ready_file is not None:
            import os

            with open(args.ready_file, "w", encoding="utf-8") as handle:
                json.dump({"host": host, "port": port, "pid": os.getpid(),
                           "recovered": recovered}, handle)
        await server.serve_until_stopped()

    try:
        with _obs_trace.capture() as captured:
            asyncio.run(run())
    finally:
        engine.close()
        if wal is not None:
            wal.close()
        if observing:
            _obs_runtime.disable()
    if args.trace is not None:
        _obs_trace.write_chrome_trace(args.trace, captured,
                                      metadata=_provenance.provenance())
        print(f"trace written to {args.trace}", file=sys.stderr)
    if args.metrics is not None:
        _write_metrics(args.metrics)
    print(
        f"drained: {server.requests_served} requests, "
        f"{server.updates_finished} updates, "
        f"{server.update_failures} update failures",
        file=sys.stderr,
    )
    return 0


def _run_soak(args: argparse.Namespace) -> int:
    from repro.serve.client import ServeError, ServeTimeout
    from repro.serve.soak import run_soak

    from repro.datasets.synthetic import update_stream

    data = _load_dataset(args.dataset, args.cardinality, args.dimensionality, args.seed)
    events = update_stream(
        data, args.events,
        insert_prob=0.18, delete_prob=0.12, k_choices=(2, 3),
        sigma=0.08, hot_regions=3, hot_prob=0.7, seed=args.stream_seed,
    )

    if args.chaos:
        from repro.resilience.chaos import run_chaos
        from repro.resilience.faults import SCHEDULES

        if args.schedule not in SCHEDULES:
            print(f"unknown --schedule {args.schedule!r}; "
                  f"choose one of {', '.join(SCHEDULES)}", file=sys.stderr)
            return 2
        chaos_seed = args.seed if args.chaos_seed is None else args.chaos_seed
        workdir = args.workdir or f"chaos-{args.schedule}-{chaos_seed}"
        runner = functools.partial(
            run_chaos, data, events,
            schedule=args.schedule, seed=chaos_seed, workdir=workdir,
            server_args={
                "dataset": args.dataset,
                "cardinality": args.cardinality,
                "dimensionality": args.dimensionality,
                "seed": args.seed,
            },
            clients=args.clients, timeout=args.timeout,
            shared_workers=args.shared_workers,
        )
    else:
        host, port = args.host, args.port
        if args.ready_file is not None:
            with open(args.ready_file, encoding="utf-8") as handle:
                ready = json.load(handle)
            host, port = ready["host"], int(ready["port"])
        if port is None:
            print("either --port or --ready-file is required", file=sys.stderr)
            return 2
        runner = functools.partial(run_soak, host, port, data, events,
                                   clients=args.clients, timeout=args.timeout)

    try:
        report = runner()
    except (ServeTimeout, ServeError, ConnectionError, OSError, TimeoutError) as error:
        # The server died (or never answered) in a way the load threads
        # could not absorb: emit what we know and fail loudly instead of
        # tracebacking — the partial report is still useful for triage.
        report = {
            "ok": False,
            "aborted": f"{type(error).__name__}: {error}",
            "events": len(events),
            "errors": [f"soak aborted: {type(error).__name__}: {error}"],
            "stale": None,
            "stale_details": [],
        }
        if args.report is not None:
            with open(args.report, "w", encoding="utf-8") as handle:
                json.dump(report, handle, indent=2)
        print(json.dumps({k: v for k, v in report.items()
                          if k != "stale_details"}, indent=2))
        print(
            f"soak aborted: lost the server ({type(error).__name__}: {error}); "
            "check that `repro serve` is still running and reachable",
            file=sys.stderr,
        )
        return 1
    if args.report is not None:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
    summary = {key: value for key, value in report.items() if key != "stale_details"}
    print(json.dumps(summary, indent=2))
    if not report["ok"]:
        for detail in report["stale_details"]:
            print(f"stale: {json.dumps(detail)}", file=sys.stderr)
        for error in report["errors"]:
            print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


def _run_trend(args: argparse.Namespace) -> int:
    from repro.bench.trend import DEFAULT_THRESHOLD, compare_files

    threshold = DEFAULT_THRESHOLD if args.threshold is None else args.threshold
    report = compare_files(args.current, args.baseline, threshold=threshold)
    print(report.markdown() if args.report == "md" else report.text())
    if args.output:
        with open(args.output, "a", encoding="utf-8") as handle:
            handle.write(report.markdown())
    return 0 if report.ok else 1


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro`` (returns a process exit code)."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "query":
        return _run_query(args)
    if args.command == "build":
        return _run_build(args)
    if args.command == "inspect":
        return _run_inspect(args)
    if args.command == "batch":
        return _run_batch(args)
    if args.command == "stream":
        return _run_stream(args)
    if args.command == "metrics":
        return _run_metrics(args)
    if args.command == "matrix":
        return _run_matrix(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "soak":
        return _run_soak(args)
    if args.command == "trend":
        return _run_trend(args)
    return _run_experiment(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
