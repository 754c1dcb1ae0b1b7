"""Crash the real server and prove nothing durable is lost.

These tests run actual ``python -m repro serve`` subprocesses through
:class:`~repro.resilience.chaos.ServerProcess`: the SIGKILL is a real
``SIGKILL`` (no finalizers, no flushes), the restart a real recovery from
the surviving WAL directory.  The regression at the core: a killed server,
restarted on the same WAL, must answer exactly like a serial engine that
applied the same updates without interruption — and must have cleaned up
the ``/dev/shm`` segments its predecessor leaked.
"""

from __future__ import annotations

import pytest

from repro.core.region import hyperrectangle
from repro.datasets.synthetic import synthetic_dataset, update_stream
from repro.engine import UTKEngine
from repro.resilience.chaos import ServerProcess, run_chaos, shm_leftovers
from repro.resilience.recovery import read_shm_manifest
from repro.resilience.retry import CHAOS_RETRY
from repro.serve.client import ServeClient

_DATASET = {"dataset": "IND", "cardinality": 60, "dimensionality": 3, "seed": 5}

_UPDATES = [
    {"op": "insert", "values": [9.0, 9.0, 9.0]},
    {"op": "delete", "id": 3},
    {"op": "insert", "values": [0.5, 8.5, 4.0]},
    {"op": "delete", "id": 60},
]


@pytest.fixture
def data():
    return synthetic_dataset("IND", 60, 3, seed=5)


def _segment_exists(name: str) -> bool:
    from repro.serve.shm import _attach_untracked

    try:
        segment = _attach_untracked(name)
    except FileNotFoundError:
        return False
    segment.close()
    return True


class TestSigkillRecovery:
    def test_killed_server_restarts_to_the_exact_acked_prefix(self, tmp_path,
                                                              data):
        server = ServerProcess(workdir=tmp_path, **_DATASET)
        try:
            host, port = server.start()
            with ServeClient(host, port, retry=CHAOS_RETRY) as client:
                for event in _UPDATES:
                    client.send_event(event)
            orphans = read_shm_manifest(server.wal_dir)
            assert orphans

            server.sigkill()  # no finalizers: the segments leak ...
            assert any(_segment_exists(name) for name in orphans)

            host, port = server.start()  # ... until recovery cleans them up
            assert not any(_segment_exists(name) for name in orphans)
            with ServeClient(host, port, retry=CHAOS_RETRY) as client:
                stats = client.stats()
                assert stats["server"]["recovered"] == len(_UPDATES)
                assert stats["server"]["updates_finished"] == len(_UPDATES)
                answer = client.query([0.1, 0.1], [0.4, 0.4], 2)
                assert answer["seq"]["lo"] == len(_UPDATES)

            serial = UTKEngine(data)
            try:
                serial.apply_updates(_UPDATES)
                region = hyperrectangle([0.1, 0.1], [0.4, 0.4])
                expected = sorted(int(i) for i in serial.utk1(region, 2).indices)
            finally:
                serial.close()
            assert answer["utk1"]["records"] == expected

            assert server.terminate() == 0
        finally:
            server.ensure_stopped()
        assert shm_leftovers(server.wal_dir) == []

    def test_update_acked_by_retry_counts_once_across_the_crash(self, tmp_path):
        """A txid WAL'd pre-crash must dedup, not double-apply, post-crash."""
        server = ServerProcess(workdir=tmp_path, **_DATASET)
        try:
            host, port = server.start()
            with ServeClient(host, port, retry=CHAOS_RETRY) as client:
                first = client.request({
                    "op": "insert", "values": [7.0, 7.0, 7.0], "txid": "tx-crash",
                })
            server.sigkill()
            host, port = server.start()
            with ServeClient(host, port, retry=CHAOS_RETRY) as client:
                # The client never saw a crash: re-sending the same txid
                # acks the original application at its original position.
                again = client.request({
                    "op": "insert", "values": [7.0, 7.0, 7.0], "txid": "tx-crash",
                })
                assert again["applied"] == first["applied"] == 1
                assert again["deduplicated"] is True
                assert client.stats()["server"]["updates_finished"] == 1
            assert server.terminate() == 0
        finally:
            server.ensure_stopped()


class TestChaosSoak:
    """Small in-suite chaos soaks; the CI lane runs the larger schedules."""

    def _events(self, data, count, seed):
        return update_stream(
            data, count, insert_prob=0.2, delete_prob=0.15,
            k_choices=(2, 3), sigma=0.08, hot_regions=3, hot_prob=0.7,
            seed=seed,
        )

    def test_conn_drop_schedule_is_invisible_to_the_oracle(self, tmp_path,
                                                           data):
        report = run_chaos(
            data, self._events(data, 40, seed=11),
            schedule="conn-drop", seed=7, workdir=tmp_path,
            server_args=_DATASET, clients=2, timeout=120.0,
        )
        assert report["ok"], (report["errors"], report["stale_details"])
        assert report["stale"] == 0
        assert report["faults"]  # the schedule actually fired
        assert report["client_retries"] >= 1
        assert report["server_exit"] == 0
        assert report["shm_leaked"] == []

    def test_server_crash_schedule_recovers_and_stays_linearizable(
            self, tmp_path, data):
        report = run_chaos(
            data, self._events(data, 40, seed=13),
            schedule="server-crash", seed=3, workdir=tmp_path,
            server_args=_DATASET, clients=2, timeout=180.0,
        )
        assert report["ok"], (report["errors"], report["stale_details"])
        assert report["stale"] == 0
        assert report["server_starts"] == 2  # the crash really restarted it
        assert report["recovered"] > 0  # ... replaying a non-empty WAL
        assert any(f["kind"] == "crash_server" for f in report["faults"])
        assert report["server_exit"] == 0
        assert report["shm_leaked"] == []
