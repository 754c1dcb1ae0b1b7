"""ServeEngine: striped/seqlock plumbing must not change a single answer.

Equivalence suite for the serving-tier engine against its parent
:class:`~repro.dynamic.engine.DynamicUTKEngine`: identical answers on a
churn stream, identical packed-tree traversals, identical worker answers
through the shared-memory descriptor, and the seqlock write-guard semantics
(odd sequence and overlapping updates both veto a cache publish) on both
update-aware engines, which share the one guarded query path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.records import Dataset
from repro.core.region import hyperrectangle
from repro.core.rskyband import compute_r_skyband
from repro.datasets.synthetic import synthetic_dataset, update_stream
from repro.dynamic.engine import DynamicUTKEngine, serve_events
from repro.engine.cache import StripedCache
from repro.index.rtree import RTree
from repro.serve.engine import CACHE_NAMES, ServeEngine
from repro.serve.packed import PackedRTree
from repro.serve.workers import reset_worker_state, worker_query


@pytest.fixture
def data():
    return synthetic_dataset("IND", 90, 3, seed=5)


@pytest.fixture
def stream(data):
    return update_stream(
        data, 40, insert_prob=0.2, delete_prob=0.15, k_choices=(2, 3), seed=9
    )


def canonical(report: dict) -> dict:
    return {
        "event": report["event"],
        "utk1": report.get("utk1"),
        "utk2": report.get("utk2"),
    }


class TestChurnEquivalence:
    def test_serve_events_matches_dynamic_engine(self, data, stream):
        dynamic = DynamicUTKEngine(data)
        serving = ServeEngine(data, stripes=4)
        try:
            expected = serve_events(dynamic, stream)
            actual = serve_events(serving, stream)
            assert len(actual) == len(expected)
            for mine, theirs in zip(actual, expected):
                if theirs["event"] != "query":
                    assert mine["event"] == theirs["event"]
                    assert mine.get("id") == theirs.get("id")
                    continue
                assert mine["utk1"] == theirs["utk1"]
                assert mine["utk2"] == theirs["utk2"]
        finally:
            serving.close()
            dynamic.close()

    def test_caches_are_striped(self, data):
        engine = ServeEngine(data, stripes=4)
        try:
            assert isinstance(engine._utk1_cache, StripedCache)
            assert isinstance(engine._skybands, StripedCache)
            epochs = engine.stripe_epochs()
            assert set(epochs) == set(CACHE_NAMES)
            assert all(len(values) == 4 for values in epochs.values())
        finally:
            engine.close()

    def test_statistics_carry_serve_section(self, data):
        engine = ServeEngine(data, stripes=4)
        try:
            stats = engine.statistics()
            assert stats["serve"]["stripes"] == 4
            assert stats["serve"]["update_seq"] == 0
            engine.apply_updates([{"op": "insert", "values": [5.0, 5.0, 5.0]}])
            assert engine.statistics()["serve"]["update_seq"] == 2
        finally:
            engine.close()


class TestPackedTree:
    def test_flatten_roundtrip_matches_live_tree(self, rng):
        values = rng.uniform(0.0, 10.0, size=(150, 3))
        tree = RTree(values)
        packed = PackedRTree(tree.flatten(), values)
        assert len(packed) == len(tree)
        assert packed.dimension == tree.dimension
        region = hyperrectangle([0.1, 0.1], [0.3, 0.3])
        for k in (1, 2, 4):
            live = compute_r_skyband(values, region, k, tree=tree)
            flat = compute_r_skyband(values, region, k, tree=packed)
            np.testing.assert_array_equal(
                np.sort(flat.indices), np.sort(live.indices)
            )


class TestSharedDescriptor:
    def test_worker_query_matches_engine(self, data):
        engine = ServeEngine(data)
        try:
            descriptor = engine.shared_descriptor()
            region = hyperrectangle([0.1, 0.1], [0.3, 0.3])
            for k in (2, 3):
                answer = worker_query(
                    descriptor, [0.1, 0.1], [0.3, 0.3], k, "both"
                )
                assert not answer["stale"]
                assert answer["utk1"] == sorted(
                    int(i) for i in engine.utk1(region, k).indices
                )
                assert answer["utk2"] == sorted(
                    sorted(int(i) for i in s)
                    for s in engine.utk2(region, k).distinct_top_k_sets
                )
        finally:
            reset_worker_state()
            engine.close()

    def test_descriptor_tracks_updates(self, data):
        engine = ServeEngine(data)
        try:
            before = engine.shared_descriptor()
            engine.apply_updates([
                {"op": "insert", "values": [9.5, 9.5, 9.5]},
                {"op": "delete", "id": 0},
            ])
            after = engine.shared_descriptor()
            assert after["generation"] > before["generation"]
            assert after["tree"]["segment"] != before["tree"]["segment"]
            answer = worker_query(after, [0.1, 0.1], [0.3, 0.3], 2, "utk1")
            assert not answer["stale"]
            region = hyperrectangle([0.1, 0.1], [0.3, 0.3])
            assert answer["utk1"] == sorted(
                int(i) for i in engine.utk1(region, 2).indices
            )
        finally:
            reset_worker_state()
            engine.close()

    def test_stale_descriptor_reports_stale(self, data):
        engine = ServeEngine(data)
        try:
            old = engine.shared_descriptor()
            engine.apply_updates([{"op": "insert", "values": [1.0, 2.0, 3.0]}])
            engine.shared_descriptor()  # repack retires the old tree segment
            reset_worker_state()  # force a genuine re-attach by name
            assert worker_query(old, [0.1, 0.1], [0.3, 0.3], 2)["stale"]
        finally:
            reset_worker_state()
            engine.close()

    def test_repack_is_lazy(self, data):
        engine = ServeEngine(data)
        try:
            first = engine.shared_descriptor()
            second = engine.shared_descriptor()
            assert first["tree"]["segment"] == second["tree"]["segment"]
        finally:
            engine.close()


class TestSeqlockGuard:
    @pytest.fixture(params=[DynamicUTKEngine, ServeEngine], ids=["dynamic", "serve"])
    def engine(self, request, data):
        engine = request.param(data)
        yield engine
        engine.close()

    def test_update_seq_is_even_outside_updates(self, engine):
        assert engine.update_seq == 0
        engine.apply_updates([{"op": "insert", "values": [1.0, 1.0, 1.0]}])
        assert engine.update_seq == 2
        engine.apply_updates([("delete", 0)])
        assert engine.update_seq == 4
        with pytest.raises(KeyError):  # rejected before any mutation
            engine.apply_updates([("delete", 0)])
        assert engine.update_seq == 4

    def test_guarded_put_rejects_odd_and_moved_sequences(self, engine):
        cache = engine._utk1_cache
        # Captured mid-update (odd): never published.
        assert not engine._guarded_put(cache, "key", "value", 1)
        assert "key" not in cache
        # Captured before an update that then completed: rejected too.
        seq = engine.update_seq
        engine.apply_updates([{"op": "insert", "values": [2.0, 2.0, 2.0]}])
        assert not engine._guarded_put(cache, "key", "value", seq)
        assert "key" not in cache
        # Quiescent capture publishes.
        seq = engine.update_seq
        assert engine._guarded_put(cache, "key", "value", seq)
        assert cache.get("key") == "value"

    def test_update_never_poisons_warm_answers(self):
        """Interleaved queries and updates still match a serial engine."""
        data = Dataset(np.random.default_rng(11).uniform(0, 10, size=(70, 3)))
        serving = ServeEngine(data, stripes=4)
        reference = DynamicUTKEngine(data)
        region = hyperrectangle([0.15, 0.15], [0.35, 0.35])
        try:
            for step in range(6):
                assert sorted(serving.utk1(region, 2).indices) == sorted(
                    reference.utk1(region, 2).indices
                )
                update = {"op": "insert", "values": [8.0 + step / 10] * 3}
                serving.apply_updates([update])
                reference.apply_updates([update])
            assert sorted(serving.utk1(region, 2).indices) == sorted(
                reference.utk1(region, 2).indices
            )
        finally:
            serving.close()
            reference.close()
