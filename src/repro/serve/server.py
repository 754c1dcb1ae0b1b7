"""Asyncio JSONL front-end over a :class:`~repro.serve.engine.ServeEngine`.

One line in, one line out: requests are JSON objects carrying an ``op``
(``query`` / ``insert`` / ``delete`` / ``stats`` / ``ping`` / ``shutdown``)
plus the same fields the ``repro stream`` event format uses, and an optional
``rid`` echoed back for correlation.  Responses are ``{"rid", "ok", ...}``;
failures carry ``{"ok": false, "error", "code"}`` — ``code`` is the
machine-readable error class (``bad_request`` / ``overloaded`` /
``worker_crash`` / ``shutting_down``) clients key their retry decisions on
— and never tear down the connection.

Concurrency model:

* the event loop owns admission and the update counters; queries fan out to
  a thread pool (or, with ``shared_workers``, to a supervised spawn process
  pool that attaches the engine's shared-memory descriptor zero-copy and
  survives worker ``SIGKILL``);
* updates serialize through a dedicated single-thread executor, so the
  stream order of any one updater connection is the order applied;
* every query response carries ``{"seq": {"lo", "hi"}}`` — the number of
  updates *finished* when the query was admitted and *started* when it
  completed.  The engine guarantees the answer matches the dataset at some
  update prefix within that window, which is exactly what the soak
  checker's serial replay verifies (zero stale answers).

Durability (``wal=`` given): each update is validated, appended to the
write-ahead log, *then* applied, and only acked after both — so every acked
update survives a ``SIGKILL`` (replayed by
:func:`repro.resilience.recovery.recover`).  Updates carrying a ``txid``
are deduplicated against a bounded cache seeded from the recovery replay,
making client retries exactly-once even across a crash: a WAL'd-but-unacked
update that recovery re-applied acks the retry with its original position.

``SIGTERM``/``SIGINT`` trigger a graceful drain: stop accepting, let
in-flight requests finish, exit 0.
"""

from __future__ import annotations

import asyncio
import collections
import contextlib
import functools
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.core.region import Region, hyperrectangle
from repro.exceptions import ReproError
from repro.obs import names as _metric_names
from repro.resilience.supervisor import SupervisedPool, WorkerCrashError
from repro.serve.engine import ServeEngine

#: Update ops accepted on the wire (same shapes as the stream event format).
_UPDATE_OPS = ("insert", "delete")

#: Most recent txid→ack payloads kept for exactly-once update retries.
_TXID_CACHE = 4096


class OverloadedError(ReproError):
    """Admission refused: too many queries in flight (client should back off)."""

    def __init__(self, message: str, *, retry_after: float = 0.05):
        super().__init__(message)
        self.retry_after = float(retry_after)


class ShuttingDownError(ReproError):
    """The server is draining and no longer admits work."""


def _error_code(error: Exception) -> tuple[str, dict]:
    """Map an exception to the wire ``code`` plus extra response fields."""
    if isinstance(error, OverloadedError):
        return "overloaded", {"retry_after": error.retry_after}
    if isinstance(error, ShuttingDownError):
        return "shutting_down", {}
    if isinstance(error, WorkerCrashError):
        return "worker_crash", {}
    return "bad_request", {}


class UTKServer:
    """The serving loop: admission, dispatch, drain (see module docstring)."""

    def __init__(
        self,
        engine: ServeEngine,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        query_threads: int = 4,
        shared_workers: int = 0,
        wal=None,
        recovered: int = 0,
        recovered_txids: dict | None = None,
        max_inflight: int = 64,
        fault_plan=None,
    ):
        self._engine = engine
        self._host = host
        self._port = int(port)
        self._query_pool = ThreadPoolExecutor(
            max_workers=max(1, int(query_threads)), thread_name_prefix="serve-query"
        )
        self._update_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-update"
        )
        self._shared_workers = int(shared_workers)
        self._process_pool: SupervisedPool | None = None
        self._regions: dict[tuple, Region] = {}
        self._regions_lock = threading.Lock()
        self._descriptor: dict | None = None
        self._wal = wal
        self._fault_plan = fault_plan
        self._max_inflight = max(1, int(max_inflight))
        self._inflight_queries = 0  # event-loop thread only
        # txid → the ack payload its first application produced; bounded
        # LRU-ish (insertion order) and seeded from the recovery replay.
        self._txids: collections.OrderedDict[str, dict] = collections.OrderedDict(
            recovered_txids or {}
        )
        while len(self._txids) > _TXID_CACHE:
            self._txids.popitem(last=False)
        self._inflight_txids: dict[str, asyncio.Future] = {}
        # Owned by the event-loop thread; read (racily but monotonically)
        # by query threads via the admission/completion snapshots.
        self.recovered = int(recovered)
        self.updates_started = self.recovered
        self.updates_finished = self.recovered
        self.update_failures = 0
        self.requests_served = 0
        # Applied-update count maintained *inside* the single update
        # executor: the fault plan's stall positions key off it, and unlike
        # updates_finished it never lags the executor's own progress.
        self._apply_count = self.recovered
        self._manifest_names = (
            sorted(engine.shm_segment_names()) if wal is not None else None
        )
        self._server: asyncio.AbstractServer | None = None
        self._stop = asyncio.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self.address: tuple[str, int] | None = None

    # ------------------------------------------------------------- lifecycle
    async def start(self) -> tuple[str, int]:
        self._loop = asyncio.get_running_loop()
        if self._shared_workers > 0:
            self._process_pool = SupervisedPool(self._shared_workers)
            self._descriptor = self._engine.shared_descriptor()
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port
        )
        self.address = self._server.sockets[0].getsockname()[:2]
        return self.address

    async def serve_until_stopped(self) -> None:
        """Run until :meth:`request_stop`; then drain and shut down."""
        async with self._server:
            await self._server.start_serving()
            await self._stop.wait()
            self._server.close()
            await self._server.wait_closed()
        # Connection handlers exit on their own once readers hit EOF or the
        # in-flight request finishes; executor shutdown waits for the rest.
        await asyncio.get_running_loop().run_in_executor(None, self._shutdown_pools)
        if self._wal is not None:
            self._wal.sync()

    def _shutdown_pools(self) -> None:
        self._query_pool.shutdown(wait=True)
        self._update_pool.shutdown(wait=True)
        if self._process_pool is not None:
            self._process_pool.shutdown(wait=True)

    def request_stop(self) -> None:
        """Begin a graceful drain; safe from signal handlers and other threads."""
        if self._loop is None:
            return
        self._loop.call_soon_threadsafe(self._stop.set)

    # ------------------------------------------------------------ connection
    async def _handle_connection(self, reader, writer) -> None:
        try:
            while not self._stop.is_set():
                line = await reader.readline()
                if not line:
                    break
                response = await self._dispatch_line(line)
                writer.write(json.dumps(response).encode() + b"\n")
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _dispatch_line(self, line: bytes) -> dict:
        try:
            request = json.loads(line)
            if not isinstance(request, dict):
                raise ValueError("request must be a JSON object")
        except ValueError as error:
            _metric_names.SERVE_REQUESTS.inc(op="invalid", outcome="error")
            return {"rid": None, "ok": False, "code": "bad_request",
                    "error": f"bad request: {error}"}
        rid = request.get("rid")
        op = request.get("op")
        _metric_names.SERVE_INFLIGHT.inc(op=str(op))
        try:
            payload = await self._dispatch(op, request)
        except (ReproError, KeyError, TypeError, ValueError) as error:
            _metric_names.SERVE_REQUESTS.inc(op=str(op), outcome="error")
            code, extra = _error_code(error)
            return {"rid": rid, "ok": False, "op": op, "code": code,
                    "error": f"{type(error).__name__}: {error}", **extra}
        finally:
            _metric_names.SERVE_INFLIGHT.inc(-1, op=str(op))
        _metric_names.SERVE_REQUESTS.inc(op=str(op), outcome="ok")
        self.requests_served += 1
        return {"rid": rid, "ok": True, "op": op, **payload}

    async def _dispatch(self, op, request: dict) -> dict:
        if self._stop.is_set() and op not in ("ping", "stats", "shutdown"):
            raise ShuttingDownError("server is draining")
        if op == "query":
            return await self._handle_query(request)
        if op in _UPDATE_OPS:
            return await self._handle_update(op, request)
        if op == "ping":
            return {}
        if op == "stats":
            stats = await asyncio.get_running_loop().run_in_executor(
                self._query_pool, self._engine.statistics
            )
            stats["server"] = {
                "updates_started": self.updates_started,
                "updates_finished": self.updates_finished,
                "update_failures": self.update_failures,
                "requests_served": self.requests_served,
                "shared_workers": self._shared_workers,
                "recovered": self.recovered,
                "max_inflight": self._max_inflight,
                "txids_cached": len(self._txids),
            }
            if self._wal is not None:
                stats["wal"] = {
                    "last_seq": self._wal.last_seq,
                    "appended": self._wal.appended,
                    "segments": [path.name for path in self._wal.segment_paths()],
                }
            if self._process_pool is not None:
                stats["workers"] = {
                    "pids": self._process_pool.worker_pids(),
                    "restarts": self._process_pool.restarts,
                }
            return {"stats": stats}
        if op == "shutdown":
            self._stop.set()
            return {"draining": True}
        raise ValueError(f"unknown op {op!r}")

    # --------------------------------------------------------------- updates
    async def _handle_update(self, op: str, request: dict) -> dict:
        event = {"op": op}
        if op == "insert":
            event["values"] = request["values"]
        else:
            event["id"] = request["id"]
        txid = request.get("txid")
        if txid is not None:
            cached = self._txids.get(txid)
            if cached is not None:
                # Retry of an update already applied (possibly before a
                # crash, replayed from the WAL): ack with the original
                # outcome, never apply twice.
                self._txids.move_to_end(txid)
                return {**cached, "deduplicated": True}
            pending = self._inflight_txids.get(txid)
            if pending is not None:
                payload = await asyncio.shield(pending)
                return {**payload, "deduplicated": True}

        def apply() -> tuple[dict, dict | None]:
            # Validate before the WAL append so nothing unapplyable is ever
            # logged; the single-thread executor makes validate → append →
            # apply atomic with respect to every other update.
            self._engine.validate_updates([event])
            if self._wal is not None:
                self._wal.append(event, txid=txid)
            if self._fault_plan is not None:
                stall = self._fault_plan.stall_for_update(self._apply_count)
                if stall > 0:
                    _metric_names.FAULTS_INJECTED.inc(kind="slow_update")
                    time.sleep(stall)
            outcome = self._engine.apply_updates([event])
            self._apply_count += 1
            # Repack the shared descriptor in the same executor task: the
            # swap below must happen before updates_finished ticks, so a
            # query admitted at sequence n always reaches workers with a
            # descriptor of generation >= n (never a pre-update tree).
            descriptor = (
                self._engine.shared_descriptor()
                if self._process_pool is not None else None
            )
            if self._wal is not None:
                names = sorted(self._engine.shm_segment_names())
                if names != self._manifest_names:
                    from repro.resilience.recovery import write_shm_manifest

                    write_shm_manifest(self._wal.directory, names)
                    self._manifest_names = names
            return outcome, descriptor

        waiter: asyncio.Future | None = None
        if txid is not None:
            waiter = asyncio.get_running_loop().create_future()
            self._inflight_txids[txid] = waiter
        self.updates_started += 1  # event-loop thread: admission order
        try:
            outcome, descriptor = await asyncio.get_running_loop().run_in_executor(
                self._update_pool, apply
            )
        except Exception as error:
            self.update_failures += 1
            if waiter is not None:
                self._inflight_txids.pop(txid, None)
                if not waiter.done():
                    waiter.set_exception(error)
                    waiter.exception()  # mark retrieved if nobody awaits
            raise
        if descriptor is not None:
            self._descriptor = descriptor
        self.updates_finished += 1
        payload = {
            "applied": self.updates_finished,
            "entries_repaired": outcome["entries_repaired"],
            "entries_evicted": outcome["entries_evicted"],
        }
        if op == "insert":
            payload["record"] = int(outcome["inserted_ids"][0])
        else:
            payload["record"] = int(event["id"])
        if txid is not None:
            self._txids[txid] = payload
            while len(self._txids) > _TXID_CACHE:
                self._txids.popitem(last=False)
            self._inflight_txids.pop(txid, None)
            if not waiter.done():
                waiter.set_result(payload)
        return payload

    # --------------------------------------------------------------- queries
    def _region_for(self, lower, upper) -> Region:
        key = (
            tuple(float(v) for v in lower),
            tuple(float(v) for v in upper),
        )
        with self._regions_lock:
            cached = self._regions.get(key)
        if cached is None:
            cached = hyperrectangle(lower, upper)
            with self._regions_lock:
                cached = self._regions.setdefault(key, cached)
        return cached

    def _query_inline(self, lower, upper, k: int, version: str) -> dict:
        region = self._region_for(lower, upper)
        k = int(k)
        payload: dict = {"sources": {}}
        if version in ("utk2", "both"):
            result, payload["sources"]["utk2"] = self._engine.serve_utk2(region, k)
            payload["utk2"] = {
                "partitions": len(result),
                "distinct_top_k_sets": sorted(
                    sorted(int(i) for i in s) for s in result.distinct_top_k_sets
                ),
            }
        if version in ("utk1", "both"):
            result, payload["sources"]["utk1"] = self._engine.serve_utk1(region, k)
            payload["utk1"] = {"records": [int(i) for i in result.indices]}
        return payload

    def _query_shared(self, lower, upper, k: int, version: str) -> dict:
        """Route one query through the zero-copy worker pool.

        A stale descriptor (the engine retired a segment after an update)
        is refreshed and the query retried; the descriptor call itself
        re-packs at most once per dataset generation.  A crashed worker
        (``SIGKILL`` mid-query) is absorbed by the supervised pool, which
        respawns and retries before surfacing ``WorkerCrashError``.
        """
        from repro.serve.workers import worker_query

        for _attempt in range(3):
            descriptor = self._descriptor
            answer = self._process_pool.run(
                worker_query, descriptor, lower, upper, k, version
            )
            if not answer.get("stale"):
                payload: dict = {"sources": {}}
                if "utk1" in answer:
                    payload["utk1"] = {"records": answer["utk1"]}
                    payload["sources"]["utk1"] = "shared-worker"
                if "utk2" in answer:
                    payload["utk2"] = {
                        "partitions": answer["utk2_partitions"],
                        "distinct_top_k_sets": answer["utk2"],
                    }
                    payload["sources"]["utk2"] = "shared-worker"
                return payload
            self._descriptor = self._engine.shared_descriptor()
        raise ReproError("shared-memory descriptor kept going stale")

    async def _handle_query(self, request: dict) -> dict:
        version = request.get("version", "utk1")
        if version not in ("utk1", "utk2", "both"):
            raise ValueError(f"unknown problem version {version!r}")
        lower, upper, k = request["lower"], request["upper"], int(request["k"])
        if self._inflight_queries >= self._max_inflight:
            raise OverloadedError(
                f"{self._inflight_queries} queries in flight (max "
                f"{self._max_inflight}); retry after backoff"
            )
        lo = self.updates_finished  # admission snapshot (event-loop thread)
        runner = (
            self._query_shared
            if self._process_pool is not None
            else self._query_inline
        )
        self._inflight_queries += 1
        try:
            payload = await asyncio.get_running_loop().run_in_executor(
                self._query_pool, functools.partial(runner, lower, upper, k, version)
            )
        finally:
            self._inflight_queries -= 1
        payload["k"] = k
        payload["version"] = version
        payload["seq"] = {"lo": lo, "hi": self.updates_started}
        return payload


class ServerThread:
    """A :class:`UTKServer` on a background thread (tests, scenario backend).

    ``start`` returns the bound address; ``stop`` drains gracefully and
    joins.  The engine's lifetime stays with the caller.
    """

    def __init__(self, engine: ServeEngine, **server_kwargs):
        self._server = UTKServer(engine, **server_kwargs)
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._failure: BaseException | None = None

    @property
    def server(self) -> UTKServer:
        return self._server

    def start(self, timeout: float = 30.0) -> tuple[str, int]:
        self._thread = threading.Thread(target=self._run, name="serve", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout):
            raise TimeoutError("server did not come up")
        if self._failure is not None:
            raise RuntimeError("server failed to start") from self._failure
        return self._server.address

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as error:  # surfaced by start()/stop()
            self._failure = error
            self._ready.set()

    async def _main(self) -> None:
        await self._server.start()
        self._ready.set()
        await self._server.serve_until_stopped()

    def stop(self, timeout: float = 30.0) -> None:
        self._server.request_stop()
        if self._thread is not None:
            self._thread.join(timeout)
            if self._thread.is_alive():
                raise TimeoutError("server did not drain in time")
            self._thread = None
        if self._failure is not None:
            raise RuntimeError("server thread failed") from self._failure
