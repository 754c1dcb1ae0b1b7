"""The benchmark's two workloads.

Each workload draws all of its inputs from the seed when it is constructed,
before anything is timed, and then runs one *pass*: set-ups and timed
windows, followed by the answer checks.  A pass is a fixed amount of work
for a given ``(seed, seconds)`` -- the work is sized from ``seconds`` with
rates measured on a 2-vCPU VM -- so the exact counts of a traced pass repeat
run after run.

Timing is closed loop with one caller.  The timed window's length is the
sum of its operations' latencies, so the benchmark's own bookkeeping
between operations is never measured.

* ``storm-colstore`` -- sessions of ``make_engine(store="colstore")`` over
  a fresh IND dataset whose paged index outgrows the buffer pool, replaying
  an ``engine_query_stream`` session each: paged filtering and reuse paths.
* ``churn-serve`` -- sessions of a :class:`~repro.serve.engine.ServeEngine`
  behind an in-process :class:`~repro.serve.server.ServerThread` with a
  fsync-per-append WAL, driven through one
  :class:`~repro.serve.client.ServeClient` with an ``update_stream`` after a
  warm-up that fills the skyband cache.
"""

from __future__ import annotations

import math
import os
import shutil
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.bench.workloads import engine_query_stream
from repro.core.api import make_engine
from repro.core.region import hyperrectangle
from repro.datasets.synthetic import synthetic_dataset, update_stream
from repro import obs
from repro.obs import REGISTRY, take_finished
from repro.obs.trace import span
from repro.resilience.wal import WriteAheadLog, wal_segments
from repro.serve.client import ServeClient, ServeError
from repro.serve.engine import ServeEngine
from repro.serve.server import ServerThread

from perfbench.checks import State, check_answer
from perfbench.layers import registry_figures


@dataclass
class Pass:
    """What one pass over a workload measured and found."""

    setup_s: list = field(default_factory=list)
    #: Length of the timed window: the sum of its operations' latencies.
    busy_s: float = 0.0
    #: Per-operation latencies in seconds: ``query``, ``insert``, ``delete``.
    latencies: dict = field(default_factory=lambda: {"query": [], "insert": [], "delete": []})
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    disk_bytes_per_record: float = 0.0
    #: Buffer-pool ``hits``/``misses``/``evictions`` summed over sessions.
    pool: dict = field(default_factory=lambda: {"hits": 0, "misses": 0, "evictions": 0})
    wal_bytes: int = 0
    wal_updates: int = 0
    #: A traced window's root spans and registry figures, taken as it closes.
    spans: list = field(default_factory=list)
    registry: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)


@contextmanager
def _window(out: Pass, traced: bool):
    """Run the timed part of a pass; observe it when ``traced``.

    A traced window starts from no finished spans and a reset registry, and
    its spans and registry figures are taken as it closes: before any answer
    check runs, so the checks' one-shot oracle calls add nothing to them.
    """
    if not traced:
        yield
        return
    take_finished()
    REGISTRY.reset()
    with obs.activated():
        yield
    out.spans = take_finished()
    out.registry = registry_figures()


def _run_queries(engine, queries, out: Pass) -> list:
    """Time each query of one session in-process; returns what to check.

    Each entry is ``(region, k, version, result, source)``.
    """
    served = []
    for region, k, version in queries:
        serve = engine.serve_utk1 if version == "utk1" else engine.serve_utk2
        out.attempted += 1
        started = time.perf_counter()
        try:
            with span(f"bench.serve_{version}", k=int(k)):
                result, source = serve(region, k)
        except Exception:  # a failed operation is counted, and the pass goes on
            out.busy_s += time.perf_counter() - started
            out.fail(traceback.format_exc(limit=3))
            continue
        elapsed = time.perf_counter() - started
        out.busy_s += elapsed
        out.latencies["query"].append(elapsed)
        served.append((region, k, version, result, source))
    return served


def _check_session(state: State, served, out: Pass) -> None:
    started = time.perf_counter()
    for region, k, version, result, source in served:
        if version == "utk1":
            problems = check_answer(state, region, k, "utk1", source,
                                    utk1=result.indices, witnesses=result.witnesses)
        else:
            problems = check_answer(state, region, k, "utk2", source,
                                    utk2_sets=result.distinct_top_k_sets)
        if problems:
            out.fail(f"{version} k={k}: {', '.join(problems)}")
    out.notes["check_s"] = out.notes.get("check_s", 0.0) + time.perf_counter() - started


# ------------------------------------------------------------- storm-colstore
@dataclass(frozen=True)
class StormSize:
    records: int = 100_000
    queries_per_session: int = 88


class StormColstore:
    """Query storms over a colstore whose paged index outgrows its buffer pool."""

    name = "storm-colstore"
    #: Sessions per measured second; each session builds a fresh colstore engine.
    SESSIONS_PER_SECOND = 0.45

    def __init__(self, seed: int, seconds: float, workdir: Path, size=StormSize()):
        self.workdir = workdir
        self.sessions = []
        for index in range(max(1, math.ceil(seconds * self.SESSIONS_PER_SECOND))):
            data = synthetic_dataset("IND", size.records, 3,
                                     seed=np.random.default_rng([seed, index]))
            self.sessions.append((data, self._versioned(engine_query_stream(
                3, size.queries_per_session, k_choices=(2, 3, 5), sigma=0.015, parents=4,
                repeat_prob=0.15, subregion_prob=0.15, seed=seed * 1000 + index,
            ))))

    @staticmethod
    def _versioned(stream) -> list:
        """Anchors ask UTK2; a repeat keeps the version of the query it repeats.

        The anchors' cached UTK2 partitionings are what drill-downs of either
        version clip, and an exact repeat is only a result-cache hit when it
        asks the same version again.  Every other query alternates versions.
        """
        first: dict = {}
        queries = []
        for position, spec in enumerate(stream):
            key = (id(spec.region), spec.k)
            version = first.setdefault(
                key, "utk2" if position < 4 else ("utk1", "utk2")[position % 2])
            queries.append((spec.region, spec.k, version))
        return queries

    def run(self, traced: bool, check: bool = True) -> Pass:
        out = Pass()
        store_dir = self.workdir / "store"
        checks = []
        with _window(out, traced):
            for data, queries in self.sessions:
                shutil.rmtree(store_dir, ignore_errors=True)
                started = time.perf_counter()
                with span("bench.setup", store="colstore"):
                    engine = make_engine(data, store="colstore", store_dir=store_dir)
                out.setup_s.append(time.perf_counter() - started)
                checks.append((data.values, _run_queries(engine, queries, out)))
                for event, count in engine.tree.pool.stats.items():
                    out.pool[event] += count
        files = [path for path in store_dir.iterdir() if path.is_file()]
        out.disk_bytes_per_record = sum(path.stat().st_size for path in files) / len(data)
        shutil.rmtree(store_dir, ignore_errors=True)
        for values, served in checks if check else ():
            _check_session(State(np.arange(values.shape[0]), values), served, out)
        return out


# ---------------------------------------------------------------- churn-serve
@contextmanager
def _one_cpu():
    """Confine this thread, and every thread it starts, to one CPU.

    The client and the server threads hand each request over.  Spread over
    the two vCPUs of a shared host, every hand-over waits whenever the other
    vCPU is descheduled, so the hit latency followed the host's steal time
    (0.42 to 0.97 ms at p50 as steal went from 0.1% to 16%); on one CPU the
    hand-over is a local thread switch.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


@dataclass(frozen=True)
class ChurnSize:
    records: int = 400
    #: Capacity of each engine cache; a session's warm-up fills the skyband cache.
    cache_size: int = 32
    #: Each session: a fresh dataset, stream and serving stack.
    sessions: int = 12


class _Served:
    """One serving stack: engine, WAL, server thread and client."""

    def __init__(self, data, cache_size: int, wal_dir: Path):
        self.wal_dir = wal_dir
        self.engine = ServeEngine(data, cache_size=cache_size)
        self.wal = WriteAheadLog(wal_dir)
        self.thread = ServerThread(self.engine, wal=self.wal)
        host, port = self.thread.start()
        self.client = ServeClient(host, port)

    def close(self) -> None:
        self.client.close()
        self.thread.stop()
        self.wal.close()
        self.engine.close()


class _Mirror:
    """The client's copy of the served data state, updated from the acks.

    The stream's deletes name ids assuming inserts get consecutive new ids,
    as the dynamic engine assigns them; an ack with another id is a failure.
    """

    def __init__(self, data):
        self.rows = dict(enumerate(np.asarray(data.values, dtype=float)))
        self.next_id = len(self.rows)
        self._state = None

    def apply(self, event: dict, ack: dict) -> str | None:
        """Mirror one acked update; returns a problem, or ``None``."""
        self._state = None
        if event["op"] == "delete":
            del self.rows[int(event["id"])]
            return None
        record, self.next_id = int(ack["record"]), self.next_id + 1
        self.rows[record] = np.asarray(event["values"], dtype=float)
        if record != self.next_id - 1:
            return f"insert acked as record {record}, expected {self.next_id - 1}"
        return None

    def state(self) -> State:
        if self._state is None:
            self._state = State(list(self.rows), list(self.rows.values()))
        return self._state


def _request(client, event: dict, position: int) -> dict:
    """Send one stream event.  Updates carry a txid made from the event's
    stream position, so the WAL's bytes repeat exactly for a seed."""
    if event["op"] == "query":
        return client.query(event["lower"], event["upper"], event["k"], event["version"])
    return client.request({**event, "txid": f"e{position:07d}"})


class ChurnServe:
    """Queries beside inserts and deletes, over the wire, with a durable WAL."""

    name = "churn-serve"
    WARMUP_MAX = 2000
    #: Timed events per measured second, over all sessions.
    EVENTS_PER_SECOND = 160.0

    def __init__(self, seed: int, seconds: float, workdir: Path, size=ChurnSize()):
        self.size = size
        self.workdir = workdir
        self.window = max(1, round(seconds * self.EVENTS_PER_SECOND / size.sessions))
        self.sessions = []
        for index in range(size.sessions):
            rng = np.random.default_rng([seed, index])
            data = synthetic_dataset("IND", size.records, 3, seed=rng)
            events = update_stream(data, self.WARMUP_MAX + self.window, insert_prob=0.25,
                                   delete_prob=0.20, hot_prob=0.85, seed=rng)
            self.sessions.append((data, events))

    def run(self, traced: bool, check: bool = True) -> Pass:
        out = Pass()
        live = 0
        served = []
        with _one_cpu(), _window(out, traced):
            out.notes["cpus"] = sorted(os.sched_getaffinity(0))
            for index, (data, events) in enumerate(self.sessions):
                started = time.perf_counter()
                with span("bench.setup", store="shm"):
                    stack = _Served(data, self.size.cache_size, self.workdir / f"wal-{index}")
                out.setup_s.append(time.perf_counter() - started)
                mirror = _Mirror(data)
                try:
                    served += self._session(stack, mirror, events, out)
                finally:
                    stack.close()
                live += len(mirror.rows)
                out.wal_updates += stack.wal.appended
                out.wal_bytes += sum(path.stat().st_size
                                     for path in wal_segments(stack.wal_dir))
        out.disk_bytes_per_record = out.wal_bytes / live
        started = time.perf_counter()
        regions: dict = {}
        for index, (state, event, response) in enumerate(served if check else ()):
            self._check(state, event, response, regions, out)
            served[index] = None  # a checked state's oracle tree can go
        out.notes["check_s"] = time.perf_counter() - started
        return out

    def _session(self, stack: _Served, mirror: _Mirror, events, out: Pass) -> list:
        """Warm up, then run the timed window; returns ``(state, query, response)``."""
        client = stack.client
        capacity = client.stats()["skyband"]["maxsize"]
        position = 0
        warm_start = time.perf_counter()
        with obs.activated(False):
            while position < self.WARMUP_MAX:
                event = events[position]
                ack = _request(client, event, position)
                position += 1
                if event["op"] != "query":
                    mirror.apply(event, ack)
                # Only a query adds a cached skyband, so only a query can fill the cache.
                elif client.stats()["skyband"]["size"] >= capacity:
                    break
        out.notes.setdefault("warmup_events", []).append(position)
        out.notes["warmup_s"] = out.notes.get("warmup_s", 0.0) + time.perf_counter() - warm_start
        served = []
        for position in range(position, position + self.window):
            event = events[position]
            op = event["op"]
            out.attempted += 1
            started = time.perf_counter()
            try:
                with span("bench.request", op=op):
                    response = _request(client, event, position)
            except (ServeError, OSError) as error:
                out.busy_s += time.perf_counter() - started
                out.fail(f"{op}: {type(error).__name__}: {error}")
            else:
                elapsed = time.perf_counter() - started
                out.busy_s += elapsed
                out.latencies[op].append(elapsed)
                if op == "query":
                    served.append((mirror.state(), event, response))
                else:
                    problem = mirror.apply(event, response)
                    if problem:
                        out.fail(problem)
        return served

    @staticmethod
    def _check(state: State, event: dict, response: dict, regions: dict, out: Pass) -> None:
        """Check one served query; ``regions`` memoizes its boxes, since
        building a region solves an LP and the hot boxes recur."""
        box = (tuple(event["lower"]), tuple(event["upper"]))
        if box not in regions:
            regions[box] = hyperrectangle(*box)
        region = regions[box]
        k = int(event["k"])
        problems = []
        sources = response["sources"]
        if "utk1" in sources:
            problems += check_answer(state, region, k, "utk1", sources["utk1"],
                                     utk1=response["utk1"]["records"])
        if "utk2" in sources:
            problems += check_answer(state, region, k, "utk2", sources["utk2"],
                                     utk2_sets=response["utk2"]["distinct_top_k_sets"])
        if problems:
            out.fail(f"query k={k}: {', '.join(problems)}")


WORKLOADS = {cls.name: cls for cls in (StormColstore, ChurnServe)}
