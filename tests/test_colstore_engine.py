"""Colstore wired through the stack: api, serve tier, matrix, CLI.

Every integration point must preserve answers exactly: ``make_engine``'s
colstore backend (build and attach paths), the serve tier's mmap-file
descriptor protocol (including staleness after a growth retired the files),
the scenario-matrix colstore backend, and the ``repro build`` /
``repro inspect`` / ``repro query --store colstore`` commands.
"""

import json
import sys

import numpy as np
import pytest

from repro.cli import main
from repro.colstore.attach import attach_engine_inputs
from repro.core.api import make_engine
from repro.core.region import hyperrectangle
from repro.core.scoring import PowerScoring
from repro.datasets.synthetic import synthetic_dataset
from repro.engine import UTKEngine
from repro.exceptions import InvalidQueryError, StorageError
from repro.scenarios import BACKENDS, SCENARIOS
from repro.serve.engine import ServeEngine
from repro.serve.workers import reset_worker_state, worker_query


@pytest.fixture
def data():
    return synthetic_dataset("IND", 150, 3, seed=4)


def region():
    return hyperrectangle([0.1, 0.1], [0.3, 0.3])


class TestMakeEngine:
    def test_build_then_attach_matches_memory_backend(self, tmp_path, data):
        reference = make_engine(data)
        built = make_engine(data, store="colstore", store_dir=tmp_path)
        attached = make_engine(None, store="colstore", store_dir=tmp_path)
        for k in (2, 3):
            expected = sorted(map(int, reference.utk1(region(), k).indices))
            assert sorted(map(int, built.utk1(region(), k).indices)) == expected
            assert sorted(map(int, attached.utk1(region(), k).indices)) == expected
            want = sorted(sorted(map(int, s))
                          for s in reference.utk2(region(), k).distinct_top_k_sets)
            got = sorted(sorted(map(int, s))
                         for s in attached.utk2(region(), k).distinct_top_k_sets)
            assert got == want

    def test_materialized_files_are_on_disk(self, tmp_path, data):
        make_engine(data, store="colstore", store_dir=tmp_path)
        assert (tmp_path / "manifest.json").exists()
        assert (tmp_path / "rtree.pages").exists()

    def test_attach_without_store_dir_is_rejected(self):
        with pytest.raises(StorageError):
            make_engine(None, store="colstore", store_dir=None)

    def test_non_linear_scoring_is_rejected(self, tmp_path, data):
        with pytest.raises(InvalidQueryError, match="linear"):
            make_engine(data, store="colstore", store_dir=tmp_path,
                        scoring=PowerScoring(2.0))

    def test_unknown_store_is_rejected(self, data):
        with pytest.raises(InvalidQueryError, match="store"):
            make_engine(data, store="rocksdb")


class TestThreadedBatch:
    def test_threads_share_the_buffer_pool_safely(self, tmp_path):
        """Cold filterings of a threaded batch all page through one
        unlocked buffer pool; the engine lock must serialize them.  A tiny
        pool and a tiny switch interval make an unserialized traversal
        corrupt the pool (KeyError, broken stats) in most rounds."""
        data = synthetic_dataset("IND", 5000, 3, seed=8)
        values, tree = attach_engine_inputs(data, tmp_path, pool_pages=4)
        rng = np.random.default_rng(8)
        lowers = rng.uniform(0.05, 0.45, size=(40, 2))
        queries = [(hyperrectangle(lower, lower + 0.02), 3) for lower in lowers]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            # Each round is a fresh engine, so every query filters cold.
            rounds = [UTKEngine(values, tree=tree).run_batch(queries, workers=4)
                      for _ in range(4)]
        finally:
            sys.setswitchinterval(interval)
        expected = [item.utk1.indices for item in UTKEngine(data).run_batch(queries)]
        for threaded in rounds:
            assert [item.utk1.indices for item in threaded] == expected
        pool = tree.pool
        assert pool.resident() == pool.stats["misses"] - pool.stats["evictions"]


class TestServeColstore:
    def test_worker_answers_match_engine(self, tmp_path, data):
        engine = ServeEngine(data, store_backend="colstore", store_dir=tmp_path)
        try:
            descriptor = engine.shared_descriptor()
            assert descriptor["kind"] == "colstore"
            assert engine.shm_segment_names() == []
            for k in (2, 3):
                answer = worker_query(descriptor, [0.1, 0.1], [0.3, 0.3], k, "both")
                assert not answer.get("stale")
                assert answer["utk1"] == sorted(
                    int(i) for i in engine.utk1(region(), k).indices
                )
                assert answer["utk2"] == sorted(
                    sorted(int(i) for i in s)
                    for s in engine.utk2(region(), k).distinct_top_k_sets
                )
        finally:
            reset_worker_state()
            engine.close()

    def test_descriptor_tracks_updates_and_goes_stale(self, tmp_path, data):
        engine = ServeEngine(data, store_backend="colstore", store_dir=tmp_path)
        try:
            before = engine.shared_descriptor()
            # Enough inserts to outgrow the initial capacity generation.
            engine.apply_updates([
                {"op": "insert", "values": list(row)}
                for row in np.random.default_rng(1).random((200, 3))
            ])
            after = engine.shared_descriptor()
            assert after["generation"] > before["generation"]
            assert after["buffer"]["columns_file"] != before["buffer"]["columns_file"]
            answer = worker_query(after, [0.1, 0.1], [0.3, 0.3], 2)
            assert not answer.get("stale")
            # A process attaching the retired descriptor afresh must see it
            # as stale (files unlinked), triggering the refresh protocol.
            reset_worker_state()
            assert worker_query(before, [0.1, 0.1], [0.3, 0.3], 2)["stale"]
        finally:
            reset_worker_state()
            engine.close()

    def test_temporary_store_dir_is_cleaned_up(self, data):
        engine = ServeEngine(data, store_backend="colstore")
        directory = engine.shared_descriptor()["buffer"]["directory"]
        import os
        assert os.path.isdir(directory)
        reset_worker_state()
        engine.close()
        assert not os.path.isdir(directory)

    def test_unknown_backend_is_rejected(self, data):
        with pytest.raises(InvalidQueryError, match="backend"):
            ServeEngine(data, store_backend="lsm")


class TestMatrixBackend:
    def test_colstore_backend_is_registered(self):
        assert "colstore" in BACKENDS

    def test_agrees_with_serial_on_churn_scenario(self):
        data, events = SCENARIOS["clus-churn"].build(smoke=True)
        serial = BACKENDS["serial"]().run(data, events)
        colstore = BACKENDS["colstore"]().run(data, events)
        assert colstore.fingerprint() == serial.fingerprint()


class TestCli:
    def test_build_inspect_query_round_trip(self, tmp_path, capsys):
        store_dir = str(tmp_path / "cs")
        assert main(["build", "--dataset", "IND", "--cardinality", "400",
                     "--dimensionality", "3", "--seed", "4",
                     "--store-dir", store_dir, "--json"]) == 0
        built = json.loads(capsys.readouterr().out)
        assert built["records"] == 400

        assert main(["inspect", "--store-dir", store_dir, "--json"]) == 0
        inspected = json.loads(capsys.readouterr().out)
        assert inspected["records"] == 400
        assert inspected["tombstones"] == 0
        assert inspected["index"]["height"] >= 1

        assert main(["query", "--store", "colstore", "--store-dir", store_dir,
                     "--k", "2", "--lower", "0.1", "0.1",
                     "--upper", "0.3", "0.3", "--json"]) == 0
        answer = json.loads(capsys.readouterr().out)

        values = synthetic_dataset("IND", 400, 3, seed=4)
        expected = make_engine(values).utk1(region(), 2)
        assert sorted(answer["utk1"]["records"]) == sorted(
            int(i) for i in expected.indices
        )

    def test_query_colstore_requires_store_dir(self, capsys):
        assert main(["query", "--store", "colstore", "--k", "2",
                     "--lower", "0.1", "0.1", "--upper", "0.3", "0.3"]) == 2

    def test_inspect_rejects_non_colstore_directory(self, tmp_path, capsys):
        assert main(["inspect", "--store-dir", str(tmp_path)]) != 0
