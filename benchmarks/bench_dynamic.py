"""Dynamic-data maintenance: in-place engine updates vs rebuild-from-scratch.

Serves the same low-churn interleaved insert/delete/query stream twice:

* **rebuild** — the status quo for a static engine: every update discards
  the engine (R-tree bulk load, caches cold) and queries pay the full
  filtering + refinement cost again;
* **dynamic** — one :class:`~repro.engine.engine.UTKEngine` absorbs
  the updates, repairing its R-tree and cached r-skybands incrementally and
  evicting only the results an update actually invalidated.

Every query answer (UTK1 record set, UTK2 distinct top-k sets, both mapped
into the stable id space) is compared between the two paths; any mismatch is
a stale-cache answer and fails the gate.  Results are written to
``BENCH_dynamic.json`` via :func:`repro.bench.reporting.write_bench_json`.

The run doubles as the CI dynamic smoke gate: it fails (exit code 1) when
any answer differs, or when the dynamic path's speedup over the rebuild
path falls below the required factor (default 5x).

Usage::

    python benchmarks/bench_dynamic.py [--smoke]
        [--output BENCH_dynamic.json] [--required-speedup 5.0]
"""

import argparse
import sys
import time
from pathlib import Path

# Make the shared benchmark helpers importable no matter where the
# benchmark is launched from (pytest, CI smoke step, or repo root).
sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import emit_metrics_artifact, print_rows

import numpy as np

from repro import obs
from repro.bench.reporting import write_bench_json
from repro.core.region import hyperrectangle
from repro.datasets.synthetic import synthetic_dataset, update_stream
from repro.dynamic import serve_events
from repro.engine import UTKEngine

#: Required dynamic-vs-rebuild speedup (the PR's acceptance bar).
REQUIRED_SPEEDUP = 5.0

#: Workload sizes.  Low churn (~15% updates), hot-region queries: the
#: serving pattern where cache warmth matters and every update used to cost
#: a full rebuild.
SETTINGS = {
    "default": {
        "cardinality": 4000,
        "dimensionality": 3,
        "events": 100,
        "insert_prob": 0.06,
        "delete_prob": 0.06,
        "k_choices": (3,),
        "sigma": 0.08,
        "hot_regions": 3,
        "seed": 11,
    },
    "smoke": {
        "cardinality": 2500,
        "dimensionality": 3,
        "events": 80,
        "insert_prob": 0.07,
        "delete_prob": 0.07,
        "k_choices": (3,),
        "sigma": 0.08,
        "hot_regions": 3,
        "seed": 11,
    },
}


def build_stream(setting):
    """The event stream plus interned regions for the rebuild path."""
    data = synthetic_dataset(
        "IND", setting["cardinality"], setting["dimensionality"], seed=setting["seed"]
    )
    events = update_stream(
        data,
        setting["events"],
        insert_prob=setting["insert_prob"],
        delete_prob=setting["delete_prob"],
        k_choices=setting["k_choices"],
        sigma=setting["sigma"],
        hot_regions=setting["hot_regions"],
        hot_prob=1.0,
        seed=setting["seed"],
    )
    regions = {}
    memo = {}
    for position, event in enumerate(events):
        if event["op"] != "query":
            continue
        key = (tuple(event["lower"]), tuple(event["upper"]))
        if key not in memo:
            memo[key] = hyperrectangle(event["lower"], event["upper"])
        regions[position] = memo[key]
    return data, events, regions


def query_fingerprint(version, utk1_records, utk2_top_k_sets):
    """Comparable answer summary in the stable id space."""
    parts = []
    if version in ("utk2", "both"):
        parts.append(tuple(sorted(tuple(s) for s in utk2_top_k_sets)))
    if version in ("utk1", "both"):
        parts.append(tuple(sorted(utk1_records)))
    return tuple(parts)


def run_rebuild(data, events, regions):
    """Serve the stream rebuilding a static engine after every update."""
    ids = list(range(data.size))
    rows = {i: data.values[i] for i in ids}
    next_id = len(ids)
    engine = None
    rebuilds = 0
    answers = []
    started = time.perf_counter()
    for position, event in enumerate(events):
        if event["op"] == "insert":
            rows[next_id] = np.asarray(event["values"], dtype=float)
            ids.append(next_id)
            next_id += 1
            engine = None
        elif event["op"] == "delete":
            ids.remove(event["id"])
            rows.pop(event["id"])
            engine = None
        else:
            if engine is None:
                engine = UTKEngine(np.vstack([rows[i] for i in ids]))
                rebuilds += 1
            version = event["version"]
            utk1_records = []
            utk2_sets = []
            if version in ("utk2", "both"):
                result = engine.utk2(regions[position], event["k"])
                utk2_sets = [
                    sorted(ids[p] for p in s) for s in result.distinct_top_k_sets
                ]
            if version in ("utk1", "both"):
                result = engine.utk1(regions[position], event["k"])
                utk1_records = [ids[p] for p in result.indices]
            answers.append(query_fingerprint(version, utk1_records, utk2_sets))
    return time.perf_counter() - started, answers, rebuilds


def run_dynamic(data, events):
    """Serve the stream through one engine that applies every update.

    Engine construction is inside the timer: the rebuild path pays for its
    first (equivalent) engine build inside its own timed loop, so excluding
    this one would bias the speedup gate.
    """
    started = time.perf_counter()
    engine = UTKEngine(data)
    reports = serve_events(engine, events)
    seconds = time.perf_counter() - started
    answers = []
    for report in reports:
        if report["op"] != "query":
            continue
        utk1_records = report.get("utk1", {}).get("records", [])
        utk2_sets = report.get("utk2", {}).get("distinct_top_k_sets", [])
        answers.append(query_fingerprint(report["version"], utk1_records, utk2_sets))
    return seconds, answers, engine


def run_benchmark(setting, required_speedup=REQUIRED_SPEEDUP):
    """Measure both paths; returns ``(rows, gates)``."""
    data, events, regions = build_stream(setting)
    updates = sum(1 for event in events if event["op"] != "query")
    queries = len(events) - updates

    rebuild_seconds, rebuild_answers, rebuilds = run_rebuild(data, events, regions)
    dynamic_seconds, dynamic_answers, engine = run_dynamic(data, events)
    stale = sum(1 for a, b in zip(dynamic_answers, rebuild_answers) if a != b)
    maintenance = engine.statistics()["dynamic"]

    speedup = rebuild_seconds / dynamic_seconds if dynamic_seconds > 0 else float("inf")
    rows = [
        {
            "path": "rebuild",
            "events": len(events),
            "updates": updates,
            "queries": queries,
            "rebuilds": rebuilds,
            "seconds": round(rebuild_seconds, 4),
            "speedup": 1.0,
        },
        {
            "path": "dynamic",
            "events": len(events),
            "updates": updates,
            "queries": queries,
            "rebuilds": 0,
            "seconds": round(dynamic_seconds, 4),
            "speedup": round(speedup, 2),
        },
    ]
    gates = {
        "stale_answers": stale,
        "all_answers_identical": stale == 0,
        "required_speedup": required_speedup,
        "speedup": round(speedup, 2),
        "entries_repaired": maintenance["entries_repaired"],
        "entries_noop": maintenance["entries_noop"],
        "entries_evicted": maintenance["entries_evicted"],
        "results_retained": maintenance["results_retained"],
    }
    gates["passed"] = gates["all_answers_identical"] and speedup >= required_speedup
    return rows, gates


def test_dynamic_gate():
    """Pytest entry point: smoke-sized run asserting the smoke gate."""
    rows, gates = run_benchmark(SETTINGS["smoke"])
    print_rows("Dynamic maintenance — rebuild-per-update vs in-place updates", rows)
    assert gates["all_answers_identical"], gates
    assert gates["passed"], gates


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="small, CI-sized workload")
    parser.add_argument(
        "--output",
        default="BENCH_dynamic.json",
        help="path of the BENCH JSON artifact (default: %(default)s)",
    )
    parser.add_argument(
        "--required-speedup",
        type=float,
        default=REQUIRED_SPEEDUP,
        help="fail when the dynamic path's speedup falls below this factor",
    )
    args = parser.parse_args(argv)
    mode = "smoke" if args.smoke else "default"
    obs.REGISTRY.reset()
    with obs.activated():
        rows, gates = run_benchmark(SETTINGS[mode], required_speedup=args.required_speedup)
    print_rows("Dynamic maintenance — rebuild-per-update vs in-place updates", rows)
    write_bench_json(args.output, "dynamic_maintenance", rows, gates=gates, meta={"mode": mode})
    print(f"\nwrote {args.output}")
    print(f"wrote {emit_metrics_artifact(args.output, 'dynamic_maintenance', mode)}")
    if not gates["passed"]:
        print(f"FAIL: dynamic smoke gate not met: {gates}", file=sys.stderr)
        return 1
    print(
        f"dynamic speedup {gates['speedup']}x over rebuild-per-update "
        f"(required: {gates['required_speedup']}x), {gates['stale_answers']} stale answers"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
