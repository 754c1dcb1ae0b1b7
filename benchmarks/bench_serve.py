"""Serving-tier cold start: shared-memory attach vs per-worker rebuild.

The parallel executor's historical cost model ships the record matrix to
every worker and rebuilds an R-tree per spawn.  The serving tier instead
packs the owner's store and tree into ``multiprocessing.shared_memory``
segments once and workers attach zero-copy
(:func:`repro.serve.workers.worker_query`).  This benchmark measures both
cold-start paths in *fresh spawn processes* (median over several rounds,
one single-worker pool per round so every probe pays the true per-spawn
cost) and cross-checks answers three ways: owner engine, attached worker,
rebuilt worker.

Gate: identical answers everywhere and attach setup at least
``--required-speedup`` times faster than ship-and-rebuild.  Results land in
``BENCH_serve.json`` via :func:`repro.bench.reporting.write_bench_json`.

Usage::

    python benchmarks/bench_serve.py [--smoke]
        [--output BENCH_serve.json] [--required-speedup 3.0]
"""

import argparse
import multiprocessing as mp
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

# Make the shared benchmark helpers importable no matter where the
# benchmark is launched from (pytest, CI smoke step, or repo root).
sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import emit_metrics_artifact, print_rows

from repro import obs
from repro.bench.reporting import write_bench_json
from repro.core.region import hyperrectangle
from repro.datasets.synthetic import synthetic_dataset
from repro.engine import UTKEngine
from repro.serve.workers import (
    worker_attach_probe,
    worker_query,
    worker_query_rebuild,
    worker_rebuild_probe,
)

#: Required attach-vs-rebuild setup speedup (the PR's acceptance bar).
#: Attach is O(1) in dataset size; rebuild pays pickling plus an STR bulk
#: load, so the measured factor is normally far above this floor.
REQUIRED_SPEEDUP = 3.0

SETTINGS = {
    "default": {"cardinality": 6000, "dimensionality": 3, "seed": 17, "rounds": 5},
    "smoke": {"cardinality": 3000, "dimensionality": 3, "seed": 17, "rounds": 3},
}

#: Probe queries (hot hyper-rectangles inside the weight simplex).
QUERIES = (
    {"lower": [0.10, 0.10], "upper": [0.25, 0.25], "k": 3},
    {"lower": [0.30, 0.20], "upper": [0.42, 0.32], "k": 2},
    {"lower": [0.05, 0.40], "upper": [0.17, 0.52], "k": 3},
)


def _fresh_pool() -> ProcessPoolExecutor:
    return ProcessPoolExecutor(1, mp_context=mp.get_context("spawn"))


def measure_setups(descriptor, values, rounds):
    """Median per-spawn setup seconds for both cold-start paths."""
    attach, rebuild = [], []
    for round_index in range(rounds):
        with _fresh_pool() as pool:
            probe = pool.submit(worker_attach_probe, descriptor).result()
            assert not probe.get("stale"), "descriptor went stale mid-benchmark"
            attach.append(probe["setup_seconds"])
        with _fresh_pool() as pool:
            probe = pool.submit(worker_rebuild_probe, round_index, values).result()
            rebuild.append(probe["setup_seconds"])
    return statistics.median(attach), statistics.median(rebuild)


def compare_answers(engine, descriptor, values):
    """Answers from owner, attached worker and rebuilt worker must agree."""
    mismatches = 0
    with _fresh_pool() as attach_pool, _fresh_pool() as rebuild_pool:
        for query in QUERIES:
            region = hyperrectangle(query["lower"], query["upper"])
            expected = sorted(int(i) for i in engine.utk1(region, query["k"]).indices)
            attached = attach_pool.submit(
                worker_query, descriptor, query["lower"], query["upper"],
                query["k"], "utk1",
            ).result()
            rebuilt = rebuild_pool.submit(
                worker_query_rebuild, 0, values, query["lower"], query["upper"],
                query["k"], "utk1",
            ).result()
            if attached.get("stale") or attached["utk1"] != expected:
                mismatches += 1
            if rebuilt["utk1"] != expected:
                mismatches += 1
    return mismatches


def run_benchmark(setting, required_speedup=REQUIRED_SPEEDUP):
    """Measure both cold-start paths; returns ``(rows, gates)``."""
    data = synthetic_dataset(
        "IND", setting["cardinality"], setting["dimensionality"], seed=setting["seed"]
    )
    engine = UTKEngine(data, store="shm")
    try:
        share_started = time.perf_counter()
        descriptor = engine.shared_descriptor()
        pack_seconds = time.perf_counter() - share_started
        values = engine.store.matrix.copy()

        attach_seconds, rebuild_seconds = measure_setups(
            descriptor, values, setting["rounds"]
        )
        mismatches = compare_answers(engine, descriptor, values)
    finally:
        engine.close()

    speedup = rebuild_seconds / attach_seconds if attach_seconds > 0 else float("inf")
    rows = [
        {
            "path": "rebuild",
            "cardinality": setting["cardinality"],
            "rounds": setting["rounds"],
            "setup_seconds": round(rebuild_seconds, 5),
            "speedup": 1.0,
        },
        {
            "path": "attach",
            "cardinality": setting["cardinality"],
            "rounds": setting["rounds"],
            "setup_seconds": round(attach_seconds, 5),
            "speedup": round(speedup, 2),
        },
    ]
    gates = {
        "answer_mismatches": mismatches,
        "all_answers_identical": mismatches == 0,
        "owner_pack_seconds": round(pack_seconds, 5),
        "required_speedup": required_speedup,
        "speedup": round(speedup, 2),
    }
    gates["passed"] = gates["all_answers_identical"] and speedup >= required_speedup
    return rows, gates


def test_serve_gate():
    """Pytest entry point: smoke-sized run asserting the smoke gate."""
    rows, gates = run_benchmark(SETTINGS["smoke"])
    print_rows("Serving tier — per-spawn rebuild vs shared-memory attach", rows)
    assert gates["all_answers_identical"], gates
    assert gates["passed"], gates


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="small, CI-sized workload")
    parser.add_argument(
        "--output",
        default="BENCH_serve.json",
        help="path of the BENCH JSON artifact (default: %(default)s)",
    )
    parser.add_argument(
        "--required-speedup",
        type=float,
        default=REQUIRED_SPEEDUP,
        help="fail when attach setup is not this much faster than rebuild",
    )
    args = parser.parse_args(argv)
    mode = "smoke" if args.smoke else "default"
    obs.REGISTRY.reset()
    with obs.activated():
        rows, gates = run_benchmark(SETTINGS[mode], required_speedup=args.required_speedup)
    print_rows("Serving tier — per-spawn rebuild vs shared-memory attach", rows)
    write_bench_json(args.output, "serve_cold_start", rows, gates=gates, meta={"mode": mode})
    print(f"\nwrote {args.output}")
    print(f"wrote {emit_metrics_artifact(args.output, 'serve_cold_start', mode)}")
    if not gates["passed"]:
        print(f"FAIL: serve smoke gate not met: {gates}", file=sys.stderr)
        return 1
    print(
        f"attach setup {gates['speedup']}x faster than ship-and-rebuild "
        f"(required: {gates['required_speedup']}x), "
        f"{gates['answer_mismatches']} answer mismatches"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
