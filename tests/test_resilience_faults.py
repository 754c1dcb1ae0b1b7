"""Retry policies, fault plans, error codes, supervision and client retry.

Covers the request/response half of the resilience story: deterministic
backoff schedules and fault plans, the machine-readable error ``code``
field on every failure response, client deadlines (:class:`ServeTimeout`),
the supervised worker pool surviving ``SIGKILL``, and transparent
client-side retry with exactly-once updates (txid dedup).
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import signal
import socket
import threading

import pytest

from repro.datasets.synthetic import synthetic_dataset
from repro.resilience.faults import (
    QUERY_KINDS,
    SCHEDULES,
    UPDATE_KINDS,
    FaultPlan,
    build_plan,
)
from repro.resilience.retry import (
    CHAOS_RETRY,
    DEFAULT_RETRY,
    NO_RETRY,
    RETRIABLE_CODES,
    RetryPolicy,
)
from repro.resilience.supervisor import SupervisedPool, WorkerCrashError
from repro.serve.client import ServeClient, ServeError, ServeTimeout
from repro.serve.engine import ServeEngine
from repro.serve.server import ServerThread, UTKServer


class TestRetryPolicy:
    def test_delays_are_deterministic_and_bounded(self):
        policy = RetryPolicy(max_attempts=6, base_delay=0.1, max_delay=1.0,
                             multiplier=2.0, jitter=0.5)
        first = policy.delays(random.Random(7))
        second = policy.delays(random.Random(7))
        assert first == second
        assert len(first) == 5  # one fewer than attempts
        assert all(0 < delay <= 1.0 for delay in first)

    def test_backoff_grows_until_the_cap(self):
        policy = RetryPolicy(max_attempts=8, base_delay=0.1, max_delay=0.8,
                             multiplier=2.0, jitter=0.0)
        rng = random.Random(0)
        delays = [policy.delay(attempt, rng) for attempt in range(6)]
        assert delays == [0.1, 0.2, 0.4, 0.8, 0.8, 0.8]

    def test_presets(self):
        assert NO_RETRY.max_attempts == 1
        assert CHAOS_RETRY.max_attempts > DEFAULT_RETRY.max_attempts
        assert RETRIABLE_CODES == {"overloaded", "worker_crash", "shutting_down"}


class TestFaultPlan:
    def test_build_is_deterministic_per_schedule_and_seed(self):
        for schedule in SCHEDULES:
            one = build_plan(schedule, 42, 30, 80)
            two = build_plan(schedule, 42, 30, 80)
            assert one.to_payload() == two.to_payload()
            assert len(one) > 0

    def test_different_seeds_move_the_faults(self):
        payloads = {
            json.dumps(build_plan("mixed", seed, 40, 90).to_payload())
            for seed in range(6)
        }
        assert len(payloads) > 1

    def test_unknown_schedule_rejected(self):
        with pytest.raises(ValueError, match="unknown fault schedule"):
            build_plan("nope", 1, 10, 10)

    def test_file_roundtrip_and_position_queries(self, tmp_path):
        plan = build_plan("mixed", 3, 30, 80)
        path = tmp_path / "plan.json"
        plan.to_file(path)
        loaded = FaultPlan.from_file(path)
        assert loaded.to_payload() == plan.to_payload()
        for event in plan:
            if event.kind in UPDATE_KINDS and event.kind != "slow_update":
                assert event in loaded.updates_due(event.at)
            if event.kind in QUERY_KINDS:
                assert event in loaded.queries_due(event.at)
        stalls = [e for e in plan if e.kind == "slow_update"]
        assert all(plan.stall_for_update(e.at) >= e.seconds for e in stalls)
        assert plan.needs_shared_workers()  # mixed kills a worker
        assert all(e.kind == "slow_update" for e in plan.server_side_events())


@pytest.fixture
def data():
    return synthetic_dataset("IND", 80, 3, seed=3)


@pytest.fixture
def served(data):
    engine = ServeEngine(data)
    thread = ServerThread(engine, query_threads=2)
    host, port = thread.start()
    yield host, port, engine
    thread.stop()
    engine.close()


def _dispatch(server: UTKServer, payload: dict) -> dict:
    return asyncio.run(server._dispatch_line(json.dumps(payload).encode()))


class TestErrorCodes:
    def test_bad_request_family(self, data):
        engine = ServeEngine(data)
        server = UTKServer(engine, query_threads=1)
        try:
            assert _dispatch(server, {"op": "frobnicate"})["code"] == "bad_request"
            assert _dispatch(server, {"op": "delete", "id": 99999})["code"] == \
                "bad_request"
            raw = asyncio.run(server._dispatch_line(b"not json"))
            assert raw["ok"] is False and raw["code"] == "bad_request"
        finally:
            server._shutdown_pools()
            engine.close()

    def test_overloaded_carries_retry_after(self, data):
        engine = ServeEngine(data)
        server = UTKServer(engine, query_threads=1, max_inflight=1)
        try:
            server._inflight_queries = 1  # saturate admission
            response = _dispatch(server, {
                "op": "query", "lower": [0.1, 0.1], "upper": [0.3, 0.3], "k": 2,
            })
            assert response["ok"] is False
            assert response["code"] == "overloaded"
            assert response["retry_after"] > 0
        finally:
            server._shutdown_pools()
            engine.close()

    def test_shutting_down_refuses_new_work_but_answers_pings(self, data):
        engine = ServeEngine(data)
        server = UTKServer(engine, query_threads=1)
        try:
            server._stop.set()
            update = _dispatch(server, {"op": "insert", "values": [1, 1, 1]})
            assert update["code"] == "shutting_down"
            assert _dispatch(server, {"op": "ping"})["ok"] is True
        finally:
            server._shutdown_pools()
            engine.close()


class TestClientDeadlines:
    def test_unresponsive_server_raises_serve_timeout(self):
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        host, port = listener.getsockname()
        accepted = []

        def sit_on_it() -> None:
            conn, _ = listener.accept()
            accepted.append(conn)  # keep it open, never answer

        thread = threading.Thread(target=sit_on_it, daemon=True)
        thread.start()
        try:
            client = ServeClient(host, port, timeout=0.3, retry=NO_RETRY)
            with pytest.raises(ServeTimeout):
                client.ping()
            client.close()
        finally:
            for conn in accepted:
                conn.close()
            listener.close()

    def test_timeout_is_a_serve_error_and_a_timeout(self):
        assert issubclass(ServeTimeout, ServeError)
        assert issubclass(ServeTimeout, TimeoutError)


def _worker_pid() -> int:
    return os.getpid()


class TestSupervisedPool:
    def test_respawns_after_worker_sigkill(self):
        pool = SupervisedPool(1, max_crash_retries=2)
        try:
            victim = pool.run(_worker_pid)
            assert pool.worker_pids() == [victim]
            os.kill(victim, signal.SIGKILL)
            survivor = pool.run(_worker_pid)
            assert survivor != victim
            assert pool.restarts >= 1
        finally:
            pool.shutdown()

    def test_worker_crash_error_is_retriable_by_code(self):
        # The server maps WorkerCrashError → code "worker_crash", which the
        # client's policy treats as transient.
        assert "worker_crash" in RETRIABLE_CODES
        assert issubclass(WorkerCrashError, Exception)


class TestClientRetry:
    def test_dropped_connection_before_send_is_transparent(self, served):
        host, port, _engine = served
        with ServeClient(host, port, retry=DEFAULT_RETRY,
                         rng=random.Random(0)) as client:
            client.inject_fault("before_send")
            assert client.ping()
            assert client.retries_total >= 1

    def test_lost_ack_after_send_applies_exactly_once(self, served):
        host, port, engine = served
        with ServeClient(host, port, retry=DEFAULT_RETRY,
                         rng=random.Random(0)) as client:
            before = len(engine.store)
            client.inject_fault("after_send")
            response = client.insert([6.0, 6.0, 6.0])
            # The first attempt reached the server; the retried request was
            # deduplicated by txid, so exactly one record appeared.
            assert response["applied"] == 1
            assert response.get("deduplicated") is True
            assert len(engine.store) == before + 1

    def test_explicit_txid_dedup(self, served):
        host, port, _engine = served
        with ServeClient(host, port) as client:
            first = client.request(
                {"op": "insert", "values": [2.0, 2.0, 2.0], "txid": "tx-a"}
            )
            second = client.request(
                {"op": "insert", "values": [2.0, 2.0, 2.0], "txid": "tx-a"}
            )
            assert second["applied"] == first["applied"]
            assert second["record"] == first["record"]
            assert second["deduplicated"] is True

    def test_non_retriable_error_raises_immediately(self, served):
        host, port, _engine = served
        with ServeClient(host, port) as client:
            with pytest.raises(ServeError) as failure:
                client.query([0.1, 0.1], [0.3, 0.3], 2, "utk9")
            assert failure.value.code == "bad_request"
            assert client.retries_total == 0

    def test_injected_fault_mode_is_validated(self, served):
        host, port, _engine = served
        with ServeClient(host, port) as client:
            with pytest.raises(ValueError, match="unknown fault mode"):
                client.inject_fault("sideways")
