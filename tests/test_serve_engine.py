"""The serving tier's engine: stores and stripes must not change an answer.

Equivalence suite for :class:`~repro.engine.engine.UTKEngine` across its
record stores (memory, shm, colstore) and the serving tier's striped
defaults (:class:`~repro.serve.engine.ServeEngine`): identical answers on a
churn stream, identical traversals of attached tree pages, identical worker answers
through the shared-memory descriptor, and the seqlock write-guard semantics
(odd sequence and overlapping updates both veto a cache publish) over every
store, which all share the one guarded query path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.records import Dataset
from repro.core.region import hyperrectangle
from repro.core.rskyband import compute_r_skyband
from repro.datasets.synthetic import synthetic_dataset, update_stream
from repro.dynamic.engine import serve_events
from repro.engine import UTKEngine
from repro.engine.cache import StripedCache
from repro.engine.engine import CACHE_NAMES
from repro.index.rtree import RTree
from repro.serve.engine import ServeEngine
from repro.serve.shm import attach_arrays, pack_arrays
from repro.serve.workers import reset_worker_state, worker_query


@pytest.fixture
def data():
    return synthetic_dataset("IND", 90, 3, seed=5)


STORES = ("memory", "shm", "colstore")


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
    @pytest.mark.parametrize("store", STORES)
    def test_serve_events_match_across_stores(self, data, stream, store):
        dynamic = UTKEngine(data)
        serving = ServeEngine(data, stripes=4, store=store)
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


class TestPublishedTree:
    def test_attached_pages_match_live_tree(self, rng):
        # A tree that took inserts and deletes, published the way
        # SharedRecordStore does and attached the way a worker does: the
        # attached reader walks the same pages to the same answers.
        values = rng.uniform(0.0, 10.0, size=(150, 3))
        tree = RTree(values[:100])
        tree.values = values
        for index in range(100, 150):
            tree.insert(index, values[index])
        for index in range(0, 150, 3):
            tree.delete(index, values[index])
        segment, manifest = pack_arrays({"pages": tree.pages.view(np.uint8)},
                                        meta=tree.meta)
        try:
            attached_segment, arrays = attach_arrays(manifest)
            attached = RTree.attach(arrays["pages"], values, manifest["meta"])
            assert len(attached) == len(tree) == 100
            assert attached.dimension == tree.dimension
            assert attached.pages.tobytes() == tree.pages.tobytes()
            assert not attached.pages.flags.writeable
            (live_root, live_corner), (shm_root, shm_corner) = (
                tree.read_root(), attached.read_root())
            assert np.array_equal(live_corner, shm_corner)
            stack = [(live_root, shm_root)]
            while stack:
                live_node, shm_node = stack.pop()
                live_leaf, live_ids, live_corners = tree.read_node(live_node)
                shm_leaf, shm_ids, shm_corners = attached.read_node(shm_node)
                assert (live_leaf, live_ids) == (shm_leaf, shm_ids)
                assert np.array_equal(live_corners, shm_corners)
                if not live_leaf:
                    stack.extend(zip(live_ids, shm_ids))
            region = hyperrectangle([0.1, 0.1], [0.3, 0.3])
            for k in (1, 2, 4):
                live = compute_r_skyband(values, region, k, tree=tree)
                shm = compute_r_skyband(values, region, k, tree=attached)
                np.testing.assert_array_equal(np.sort(shm.indices), np.sort(live.indices))
            del attached, arrays
            attached_segment.close()
        finally:
            segment.close()


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
    @pytest.fixture(params=STORES)
    def engine(self, request, data):
        engine = UTKEngine(data, store=request.param)
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
        reference = UTKEngine(data)
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
