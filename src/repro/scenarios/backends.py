"""Execution backends of the scenario matrix.

Every backend replays the same scenario event list (queries, inserts,
deletes) and reports its query answers in the *stable id space* — record ids
that survive churn, assigned the way :class:`repro.engine.UTKEngine`
assigns them (initial records ``0..n-1``, inserts take the next id, ids are
never reused).  That shared contract is what makes answers comparable across
backends and checkable against the SQL oracle:

* ``serial`` — the one-shot baseline: every query pays filtering plus
  refinement on the current dataset state, no caches;
* ``engine`` — a persistent :class:`~repro.engine.engine.UTKEngine`; updates
  discard it (rebuild-per-update), queries enjoy result/skyband reuse;
* ``parallel`` — the engine with the region-partitioned process pool
  enabled and a low routing threshold, so heavy queries fan out;
* ``dynamic`` — one :class:`~repro.engine.engine.UTKEngine` absorbing
  updates in place with surgical cache repair;
* ``colstore`` — the same engine over memory-mapped column files
  (:class:`~repro.colstore.store.ColumnarRecordStore`), so a storage swap
  that changed an answer would show;
* ``serve`` — the serving tier end to end: a
  :class:`~repro.serve.engine.ServeEngine` behind the asyncio JSONL socket
  protocol, every event a real client round trip (engine caches, seqlock
  cache guard and shared-memory store all on the hot path);
* ``sql`` — the cold-dataset offload path: r-skyband candidate filtering is
  pushed down as window-function SQL (:mod:`repro.scenarios.sql`) and only
  the returned candidates are refined in Python.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.jaa import JAA
from repro.core.records import Dataset
from repro.core.rsa import RSA
from repro.core.rskyband import skyband_from_candidates
from repro.exceptions import InvalidQueryError
from repro.scenarios.sql import SQLOracle

#: Registry of backend names, in presentation order.
BACKENDS: dict[str, type] = {}


def register_backend(cls):
    """Class decorator adding an execution backend to the registry."""
    if cls.name in BACKENDS:
        raise InvalidQueryError(f"backend {cls.name!r} is already registered")
    BACKENDS[cls.name] = cls
    return cls


def select_backends(names=None) -> list[type]:
    """Resolve a backend name list (``None`` = all registered, in order)."""
    if names is None:
        return list(BACKENDS.values())
    missing = [name for name in names if name not in BACKENDS]
    if missing:
        raise InvalidQueryError(f"unknown backend(s) {missing}; registered: {sorted(BACKENDS)}")
    return [BACKENDS[name] for name in names]


@dataclass
class CellOutcome:
    """What one backend produced for one scenario's event list."""

    #: Per query event (in stream order): ``{"event", "version", "utk1",
    #: "utk2"}`` with ids/sets in the stable id space (``None`` for the
    #: problem version the query did not ask for).
    answers: list[dict] = field(default_factory=list)
    #: Backend-specific counters (engine cache stats, maintenance counters).
    stats: dict = field(default_factory=dict)

    def fingerprint(self) -> tuple:
        """Order-insensitive answer summary for cross-backend agreement."""
        parts = []
        for answer in self.answers:
            utk1 = tuple(sorted(answer["utk1"])) if answer["utk1"] is not None else None
            utk2 = (
                tuple(sorted(tuple(sorted(s)) for s in answer["utk2"]))
                if answer["utk2"] is not None
                else None
            )
            parts.append((answer["event"], answer["version"], utk1, utk2))
        return tuple(parts)


class _StateTracker:
    """Stable-id bookkeeping shared by the rebuild-style backends.

    Mirrors the id-assignment convention of the dynamic engine so answers
    from rebuilt matrices can be mapped back into the stable id space:
    ``ids`` stays sorted ascending (inserts append the next fresh id), which
    also keeps positional tie-breaks aligned with id order.
    """

    def __init__(self, data: Dataset):
        values = data.values
        self.ids: list[int] = list(range(values.shape[0]))
        self.rows: dict[int, np.ndarray] = {i: values[i] for i in self.ids}
        self.next_id = len(self.ids)
        self.dirty = False

    def apply(self, event: dict) -> None:
        if event["op"] == "insert":
            self.rows[self.next_id] = np.asarray(event["values"], dtype=float)
            self.ids.append(self.next_id)
            self.next_id += 1
        elif event["op"] == "delete":
            self.ids.remove(int(event["id"]))
            self.rows.pop(int(event["id"]))
        else:
            raise InvalidQueryError(f"unknown update op {event['op']!r}")
        self.dirty = True

    def matrix(self) -> np.ndarray:
        self.dirty = False
        return np.vstack([self.rows[i] for i in self.ids])


def _answer(event_index: int, version: str, ids: list[int], utk1, utk2) -> dict:
    """One stable-id answer record (``ids`` maps positions to stable ids)."""
    record: dict = {"event": event_index, "version": version, "utk1": None, "utk2": None}
    if utk1 is not None:
        record["utk1"] = sorted(int(ids[p]) for p in utk1.indices)
    if utk2 is not None:
        record["utk2"] = sorted(
            sorted(int(ids[p]) for p in top) for top in utk2.distinct_top_k_sets
        )
    return record


def _split_versions(version: str) -> tuple[bool, bool]:
    if version not in ("utk1", "utk2", "both"):
        raise InvalidQueryError(f"unknown problem version {version!r}")
    return version in ("utk1", "both"), version in ("utk2", "both")


@register_backend
class SerialBackend:
    """One-shot RSA/JAA per query on the current dataset state (no caches)."""

    name = "serial"
    description = "one-shot RSA/JAA per query, no caches"

    def run(self, data: Dataset, events: list[dict]) -> CellOutcome:
        tracker = _StateTracker(data)
        matrix = tracker.matrix()
        outcome = CellOutcome()
        for index, event in enumerate(events):
            if event["op"] != "query":
                tracker.apply(event)
                continue
            if tracker.dirty:
                matrix = tracker.matrix()
            want1, want2 = _split_versions(event["version"])
            region, k = event["region"], int(event["k"])
            first = second = None
            if want1 and want2:
                first = RSA(matrix, region, k).run()
                second = JAA(matrix, region, k, skyband=None).run()
            elif want1:
                first = RSA(matrix, region, k).run()
            else:
                second = JAA(matrix, region, k).run()
            outcome.answers.append(_answer(index, event["version"], tracker.ids, first, second))
        return outcome


@register_backend
class EngineBackend:
    """Persistent :class:`UTKEngine` with rebuild-per-update on churn."""

    name = "engine"
    description = "cached UTKEngine, rebuilt on every update"

    def _make_engine(self, matrix: np.ndarray):
        from repro.engine import UTKEngine

        return UTKEngine(matrix)

    def run(self, data: Dataset, events: list[dict]) -> CellOutcome:
        tracker = _StateTracker(data)
        engine = self._make_engine(tracker.matrix())
        outcome = CellOutcome()
        try:
            for index, event in enumerate(events):
                if event["op"] != "query":
                    tracker.apply(event)
                    continue
                if tracker.dirty:
                    engine.close()
                    engine = self._make_engine(tracker.matrix())
                want1, want2 = _split_versions(event["version"])
                region, k = event["region"], int(event["k"])
                first = engine.utk1(region, k) if want1 else None
                second = engine.utk2(region, k) if want2 else None
                outcome.answers.append(
                    _answer(index, event["version"], tracker.ids, first, second)
                )
            outcome.stats = engine.statistics()
        finally:
            engine.close()
        return outcome


@register_backend
class ParallelBackend(EngineBackend):
    """Engine routing heavy queries to the region-partitioned process pool."""

    name = "parallel"
    description = "UTKEngine with a 2-worker region-partitioned process pool"
    workers = 2
    min_candidates = 16

    def _make_engine(self, matrix: np.ndarray):
        from repro.engine import UTKEngine

        return UTKEngine(
            matrix,
            parallel_workers=self.workers,
            parallel_min_candidates=self.min_candidates,
        )


@register_backend
class DynamicBackend:
    """Update-aware engine: in-place maintenance, surgical cache repair."""

    name = "dynamic"
    description = "UTKEngine absorbing updates with incremental r-skyband repair"

    def _make_engine(self, data: Dataset):
        from repro.engine import UTKEngine

        return UTKEngine(data)

    def run(self, data: Dataset, events: list[dict]) -> CellOutcome:
        from repro.dynamic import serve_events

        engine = self._make_engine(data)
        outcome = CellOutcome()
        try:
            reports = serve_events(engine, events)
            for index, report in enumerate(reports):
                if report["op"] != "query":
                    continue
                record = {
                    "event": index,
                    "version": report["version"],
                    "utk1": None,
                    "utk2": None,
                }
                if "utk1" in report:
                    record["utk1"] = sorted(int(i) for i in report["utk1"]["records"])
                if "utk2" in report:
                    record["utk2"] = sorted(
                        sorted(int(i) for i in s) for s in report["utk2"]["distinct_top_k_sets"]
                    )
                outcome.answers.append(record)
            outcome.stats = engine.statistics()
        finally:
            engine.close()
        return outcome


@register_backend
class ColstoreBackend(DynamicBackend):
    """The ``dynamic`` cell's engine over memory-mapped columnar storage.

    Identical event semantics to ``dynamic`` — only the record bytes move
    from RAM into a :class:`~repro.colstore.store.ColumnarRecordStore` in a
    temp directory the engine removes on close — so the SQL oracle checks
    that the storage backend swap changes no answer.
    """

    name = "colstore"
    description = "UTKEngine over a ColumnarRecordStore (mmap column files)"

    def _make_engine(self, data: Dataset):
        from repro.engine import UTKEngine

        return UTKEngine(data, store="colstore")


@register_backend
class ServeBackend:
    """The socket serving tier, replayed sequentially so answers are exact.

    Each event is one JSONL round trip through a live
    :class:`~repro.serve.server.UTKServer` on a background thread; the
    oracle check therefore covers the whole serving stack — protocol,
    engine caches, seqlock write guard, shared-memory record store —
    not just the engine.  (Concurrent-client staleness is the soak lane's
    job; here the oracle needs deterministic per-event answers.)
    """

    name = "serve"
    description = "ServeEngine behind the JSONL socket protocol, one client"

    def run(self, data: Dataset, events: list[dict]) -> CellOutcome:
        from repro.resilience.retry import RetryPolicy
        from repro.serve import ServeEngine
        from repro.serve.client import ServeClient
        from repro.serve.server import ServerThread

        engine = ServeEngine(data)
        thread = ServerThread(engine, query_threads=2)
        outcome = CellOutcome()
        try:
            host, port = thread.start()
            # A bounded deadline + a couple of retries: a wedged server
            # fails the cell with a ServeTimeout instead of hanging CI.
            with ServeClient(host, port, timeout=60.0,
                             retry=RetryPolicy(max_attempts=3)) as client:
                for index, event in enumerate(events):
                    if event["op"] != "query":
                        client.send_event(
                            {key: value for key, value in event.items()
                             if key != "region"}
                        )
                        continue
                    response = client.query(
                        event["lower"], event["upper"], event["k"], event["version"]
                    )
                    record = {
                        "event": index,
                        "version": event["version"],
                        "utk1": None,
                        "utk2": None,
                    }
                    if "utk1" in response:
                        record["utk1"] = sorted(
                            int(i) for i in response["utk1"]["records"]
                        )
                    if "utk2" in response:
                        record["utk2"] = sorted(
                            sorted(int(i) for i in s)
                            for s in response["utk2"]["distinct_top_k_sets"]
                        )
                    outcome.answers.append(record)
                outcome.stats = client.stats()
        finally:
            thread.stop()
            engine.close()
        return outcome


@register_backend
class SQLBackend:
    """Cold-dataset offload: SQL-pushdown filtering, Python refinement.

    The r-skyband is computed by the embedded SQL engine
    (:class:`~repro.scenarios.sql.SQLOracle`); RSA/JAA then refine only the
    returned candidates, so Python never scans the full dataset.  Updates
    re-register the table (the offload path targets cold, mostly-static
    datasets; churn-heavy cells measure exactly that cost).
    """

    name = "sql"
    description = "window-function SQL candidate filtering + Python refinement"

    def __init__(self, sql_backend: str = "auto"):
        self.sql_backend = sql_backend

    def run(self, data: Dataset, events: list[dict]) -> CellOutcome:
        tracker = _StateTracker(data)
        outcome = CellOutcome()
        oracle = matrix = positions = None
        pushed_candidates = 0
        try:
            for index, event in enumerate(events):
                if event["op"] != "query":
                    tracker.apply(event)
                    continue
                if oracle is None or tracker.dirty:
                    if oracle is not None:
                        oracle.close()
                    matrix = tracker.matrix()
                    oracle = SQLOracle(
                        matrix, ids=np.asarray(tracker.ids), backend=self.sql_backend
                    )
                    positions = {record_id: pos for pos, record_id in enumerate(tracker.ids)}
                want1, want2 = _split_versions(event["version"])
                region, k = event["region"], int(event["k"])
                member_ids = oracle.r_skyband(region, k)
                member_positions = np.asarray([positions[i] for i in member_ids], dtype=int)
                pushed_candidates += int(member_positions.shape[0])
                skyband = skyband_from_candidates(
                    member_positions, matrix[member_positions], region, k
                )
                first = RSA(matrix, region, k, skyband=skyband).run() if want1 else None
                second = JAA(matrix, region, k, skyband=skyband).run() if want2 else None
                outcome.answers.append(
                    _answer(index, event["version"], tracker.ids, first, second)
                )
            outcome.stats = {
                "sql_backend": oracle.backend if oracle is not None else self.sql_backend,
                "pushed_candidates": pushed_candidates,
            }
        finally:
            if oracle is not None:
                oracle.close()
        return outcome
