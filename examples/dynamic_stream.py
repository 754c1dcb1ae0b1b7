"""Dynamic data: serving an interleaved insert/delete/query stream.

A production recommender cannot drop its warm caches every time a record is
added or retired.  A :class:`~repro.engine.engine.UTKEngine` applies each
update in place: it maintains the R-tree incrementally, repairs every cached
r-skyband (provable no-ops cost a handful of r-dominance tests) and evicts
only the cached results an update actually invalidated.  This demo serves
the same event stream twice — rebuilding a fresh engine after every update
vs. one engine that applies them — and cross-checks that both report
identical answers.

Run with:  python examples/dynamic_stream.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import UTKEngine, hyperrectangle
from repro.datasets import synthetic_dataset, update_stream
from repro.dynamic import serve_events


def rebuild_baseline(values: np.ndarray, events: list[dict]) -> tuple[float, list]:
    """Serve the stream with a full engine rebuild after every update."""
    ids = list(range(values.shape[0]))
    rows = {i: values[i] for i in ids}
    next_id = len(ids)
    engine = None
    answers = []
    started = time.perf_counter()
    for event in events:
        if event["op"] == "insert":
            rows[next_id] = np.asarray(event["values"], dtype=float)
            ids.append(next_id)
            next_id += 1
            engine = None  # the baseline discards its engine on every update
        elif event["op"] == "delete":
            ids.remove(event["id"])
            rows.pop(event["id"])
            engine = None
        else:
            if engine is None:
                engine = UTKEngine(np.vstack([rows[i] for i in ids]))
            region = hyperrectangle(event["lower"], event["upper"])
            result = engine.utk1(region, event["k"])
            answers.append(sorted(ids[position] for position in result.indices))
    return time.perf_counter() - started, answers


def main() -> None:
    data = synthetic_dataset("IND", 1200, 3, seed=11)
    # Low churn, hot-region queries: the serving pattern where cache warmth
    # matters — and where every update used to cost a full rebuild.
    events = update_stream(
        data, 60, insert_prob=0.08, delete_prob=0.08, k_choices=(3,), sigma=0.07,
        hot_prob=0.95, seed=11
    )
    # The baseline compares UTK1 answers, so serve every query as UTK1.
    for event in events:
        if event["op"] == "query":
            event["version"] = "utk1"
    updates = sum(1 for event in events if event["op"] != "query")
    print(f"stream: {len(events)} events ({updates} updates), n={data.size} initial records")

    cold_seconds, cold_answers = rebuild_baseline(data.values, events)
    print(f"rebuild-per-update : {cold_seconds:.2f}s")

    engine = UTKEngine(data)
    started = time.perf_counter()
    results = serve_events(engine, events)
    warm_seconds = time.perf_counter() - started
    warm_answers = [sorted(r["utk1"]["records"]) for r in results if r["op"] == "query"]
    print(f"in-place updates   : {warm_seconds:.2f}s "
          f"— {cold_seconds / warm_seconds:.1f}x faster")
    assert warm_answers == cold_answers, "dynamic and rebuild answers must agree"
    print("answers identical across all queries")

    stats = engine.statistics()
    print(f"maintenance        : {stats['dynamic']}")
    print(f"skyband cache      : {stats['skyband']}")


if __name__ == "__main__":
    main()
