"""The JSONL serving front-end: protocol, drain, and concurrent correctness.

Every test runs a real :class:`~repro.serve.server.UTKServer` on a
background thread and talks to it over a real socket.  The mini-soak is the
in-suite version of the CI serve-soak lane: a mixed concurrent client load
whose every answer must be explainable by a serial update prefix within its
admission window (zero stale answers).
"""

from __future__ import annotations

import json
import socket

import pytest

from repro.core.region import hyperrectangle
from repro.datasets.synthetic import synthetic_dataset, update_stream
from repro.engine import UTKEngine
from repro.serve.client import ServeClient, ServeError
from repro.serve.engine import ServeEngine
from repro.serve.server import ServerThread
from repro.serve.soak import run_soak


@pytest.fixture
def data():
    return synthetic_dataset("IND", 80, 3, seed=3)


@pytest.fixture
def served(data):
    engine = ServeEngine(data, stripes=4)
    thread = ServerThread(engine, query_threads=2)
    host, port = thread.start()
    yield host, port, engine
    thread.stop()
    engine.close()


class TestProtocol:
    def test_ping_and_rid_echo(self, served):
        host, port, _engine = served
        with ServeClient(host, port) as client:
            assert client.ping()
            response = client.request({"op": "ping"})
            assert response["ok"] and response["op"] == "ping"

    def test_query_both_versions(self, served):
        host, port, engine = served
        with ServeClient(host, port) as client:
            response = client.query([0.1, 0.1], [0.3, 0.3], 2, "both")
        region = hyperrectangle([0.1, 0.1], [0.3, 0.3])
        assert response["seq"] == {"lo": 0, "hi": 0}
        assert response["utk1"]["records"] == sorted(
            int(i) for i in engine.utk1(region, 2).indices
        )
        reference = engine.utk2(region, 2)
        expected = sorted(
            sorted(int(i) for i in s) for s in reference.distinct_top_k_sets
        )
        assert response["utk2"]["distinct_top_k_sets"] == expected
        assert response["utk2"]["partitions"] == len(reference)
        assert set(response["sources"]) == {"utk1", "utk2"}

    def test_insert_delete_roundtrip(self, served):
        host, port, engine = served
        with ServeClient(host, port) as client:
            inserted = client.insert([5.0, 5.0, 5.0])
            assert inserted["applied"] == 1
            record = inserted["record"]
            assert engine.store.is_active(record)
            deleted = client.delete(record)
            assert deleted["applied"] == 2
            assert deleted["record"] == record
            assert not engine.store.is_active(record)

    def test_errors_keep_the_connection_alive(self, served):
        host, port, _engine = served
        with ServeClient(host, port) as client:
            with pytest.raises(ServeError, match="unknown op"):
                client.request({"op": "frobnicate"})
            with pytest.raises(ServeError, match="version"):
                client.query([0.1, 0.1], [0.3, 0.3], 2, "utk3")
            with pytest.raises(ServeError):  # delete of a never-assigned id
                client.delete(10_000)
            assert client.ping()  # the connection survived all three

    def test_malformed_json_is_rejected_not_fatal(self, served):
        host, port, _engine = served
        with socket.create_connection((host, port), timeout=30) as sock:
            stream = sock.makefile("rwb")
            stream.write(b"this is not json\n")
            stream.flush()
            response = json.loads(stream.readline())
            assert response["ok"] is False
            assert "bad request" in response["error"]
            stream.write(json.dumps({"rid": 7, "op": "ping"}).encode() + b"\n")
            stream.flush()
            assert json.loads(stream.readline())["ok"] is True

    def test_stats_reports_server_and_stripe_state(self, served):
        host, port, _engine = served
        with ServeClient(host, port) as client:
            client.query([0.1, 0.1], [0.3, 0.3], 2)
            client.insert([4.0, 4.0, 4.0])
            stats = client.stats()
        assert stats["server"]["updates_finished"] == 1
        assert stats["server"]["requests_served"] >= 2
        assert stats["serve"]["update_seq"] == 2
        assert len(stats["serve"]["stripe_epochs"]["skyband"]) == 4


class TestDrain:
    def test_shutdown_op_drains_gracefully(self, data):
        engine = ServeEngine(data, stripes=4)
        thread = ServerThread(engine, query_threads=2)
        host, port = thread.start()
        try:
            with ServeClient(host, port) as client:
                assert client.query([0.1, 0.1], [0.3, 0.3], 2)["ok"]
                assert client.shutdown()["draining"] is True
            thread.stop(timeout=30)
            with pytest.raises(OSError):
                socket.create_connection((host, port), timeout=2)
        finally:
            engine.close()


class TestMiniSoak:
    def test_concurrent_load_has_zero_stale_answers(self, data):
        engine = ServeEngine(data, stripes=4)
        thread = ServerThread(engine, query_threads=3)
        host, port = thread.start()
        try:
            events = update_stream(
                data, 50, insert_prob=0.2, delete_prob=0.15,
                k_choices=(2, 3), seed=21,
            )
            report = run_soak(host, port, data, events, clients=3, timeout=120)
        finally:
            thread.stop()
            engine.close()
        assert report["errors"] == []
        assert report["stale"] == 0
        assert report["queries"] == sum(
            1 for e in events if e["op"] == "query"
        )
        assert report["ok"]

    def test_soak_requires_a_pristine_server(self, served, data):
        host, port, _engine = served
        with ServeClient(host, port) as client:
            client.insert([3.0, 3.0, 3.0])
        with pytest.raises(ValueError, match="freshly started"):
            run_soak(host, port, data, [], clients=1)


class TestSharedWorkers:
    def test_shared_worker_answers_match_serial_replay(self, data):
        """The zero-copy pool path: updates repack, queries never go stale."""
        engine = ServeEngine(data, stripes=4)
        thread = ServerThread(engine, query_threads=2, shared_workers=1)
        host, port = thread.start()
        try:
            region_args = ([0.1, 0.1], [0.3, 0.3])
            with ServeClient(host, port, timeout=120) as client:
                first = client.query(*region_args, 2)
                assert first["sources"]["utk1"] == "shared-worker"
                client.insert([9.0, 9.0, 9.0])
                second = client.query(*region_args, 2)
                assert second["seq"]["lo"] == 1
        finally:
            thread.stop(timeout=60)
        reference = UTKEngine(data)
        try:
            region = hyperrectangle(*region_args)
            before = sorted(int(i) for i in reference.utk1(region, 2).indices)
            assert first["utk1"]["records"] == before
            reference.apply_updates([{"op": "insert", "values": [9.0, 9.0, 9.0]}])
            after = sorted(int(i) for i in reference.utk1(region, 2).indices)
            assert second["utk1"]["records"] == after
        finally:
            reference.close()
            engine.close()
