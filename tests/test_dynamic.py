"""Tests of the dynamic subsystem: store, skyband repair, DynamicUTKEngine.

The headline property — checked with hypothesis across random datasets,
regions, ``k`` and interleaved update/query streams — is exactness: every
repaired skyband equals a from-scratch recomputation over the updated
dataset, and every ``DynamicUTKEngine`` answer equals a fresh engine rebuilt
from the post-update records (with stable ids mapped through ``snapshot``).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.region import hyperrectangle
from repro.core.rskyband import compute_r_skyband
from repro.datasets.synthetic import synthetic_dataset, update_stream
from repro.dynamic import (
    KIND_NOOP,
    KIND_PATCHED,
    KIND_REFILTERED,
    DynamicUTKEngine,
    RecordStore,
    repair_delete,
    repair_insert,
    serve_events,
)
from repro.engine import UTKEngine
from repro.exceptions import InvalidDatasetError, InvalidQueryError

common_settings = settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def random_instance(seed: int, n: int, d: int, sigma: float = 0.15):
    """A reproducible dataset + region pair in ``d`` dimensions."""
    rng = np.random.default_rng(seed)
    values = rng.random((n, d))
    lower = rng.uniform(0.02, 0.9 / (d - 1) - sigma, size=d - 1)
    region = hyperrectangle(lower, lower + sigma)
    return values, region, rng


def assert_same_skyband(got, oracle, id_map=None):
    """Member sets, rows and r-dominance graphs must match exactly.

    ``id_map`` translates the oracle's (position-based) ids into the stable
    id space when the oracle was computed over a compacted matrix.
    """
    translate = (lambda i: int(i)) if id_map is None else (lambda i: int(id_map[i]))
    assert got.members() == [translate(i) for i in oracle.indices]
    assert np.allclose(got.values, oracle.values)
    oracle_ancestors = {
        translate(i): frozenset(translate(j) for j in oracle.ancestors[int(i)])
        for i in oracle.indices
    }
    oracle_descendants = {
        translate(i): frozenset(translate(j) for j in oracle.descendants[int(i)])
        for i in oracle.indices
    }
    assert got.ancestors == oracle_ancestors
    assert got.descendants == oracle_descendants
    assert np.array_equal(got.adjacency, oracle.adjacency)


# ---------------------------------------------------------------- record store
class TestRecordStore:
    def test_lifecycle_and_snapshot(self):
        store = RecordStore(np.arange(12.0).reshape(4, 3))
        assert len(store) == 4 and store.high_water == 4
        new_id = store.insert([20.0, 21.0, 22.0])
        assert new_id == 4
        removed = store.delete(1)
        assert np.allclose(removed, [3.0, 4.0, 5.0])
        assert len(store) == 4 and store.high_water == 5
        ids, values = store.snapshot()
        assert ids.tolist() == [0, 2, 3, 4]
        assert np.allclose(values[-1], [20.0, 21.0, 22.0])
        assert store.is_active(0) and not store.is_active(1)

    def test_ids_never_reused(self):
        store = RecordStore(np.zeros((2, 2)))
        store.delete(1)
        assert store.insert([1.0, 1.0]) == 2
        store.delete(2)
        assert store.insert([2.0, 2.0]) == 3

    def test_growth_preserves_content(self):
        store = RecordStore(np.zeros((1, 2)), capacity=2)
        rows = [np.array([float(i), float(i + 1)]) for i in range(40)]
        for row in rows:
            store.insert(row)
        assert len(store) == 41
        assert np.allclose(store.row(17), rows[16])

    def test_rejects_bad_input(self):
        store = RecordStore(np.zeros((2, 3)))
        with pytest.raises(InvalidDatasetError):
            store.insert([1.0, 2.0])  # wrong dimensionality
        with pytest.raises(InvalidDatasetError):
            store.insert([np.nan, 1.0, 2.0])
        with pytest.raises(KeyError):
            store.delete(99)
        store.delete(0)
        with pytest.raises(KeyError):
            store.delete(0)
        with pytest.raises(KeyError):
            store.row(0)
        with pytest.raises(InvalidDatasetError):
            RecordStore(np.zeros(3))


# ------------------------------------------------------------- skyband repair
class TestSkybandRepair:
    @common_settings
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(5, 60),
        d=st.integers(2, 4),
        k=st.integers(1, 5),
    )
    def test_repair_insert_matches_recomputation(self, seed, n, d, k):
        values, region, rng = random_instance(seed, n, d)
        skyband = compute_r_skyband(values, region, k)
        row = rng.random(d)
        outcome = repair_insert(skyband, n, row, k)
        oracle = compute_r_skyband(np.vstack([values, row[None]]), region, k)
        assert_same_skyband(outcome.skyband, oracle)
        if outcome.kind == KIND_NOOP:
            assert outcome.skyband is skyband and not outcome.changed
        else:
            assert outcome.kind == KIND_PATCHED and outcome.changed
            assert outcome.skyband.has_member(n)

    @common_settings
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(5, 60),
        d=st.integers(2, 4),
        k=st.integers(1, 5),
    )
    def test_repair_delete_matches_recomputation(self, seed, n, d, k):
        values, region, rng = random_instance(seed, n, d)
        skyband = compute_r_skyband(values, region, k)
        victim = int(rng.integers(n))
        survivors = np.array([i for i in range(n) if i != victim])
        outcome = repair_delete(
            skyband, victim, k, pool_ids=survivors, pool_rows=values[survivors]
        )
        oracle = compute_r_skyband(values[survivors], region, k)
        assert_same_skyband(outcome.skyband, oracle, id_map=survivors)
        expected_kind = KIND_REFILTERED if skyband.has_member(victim) else KIND_NOOP
        assert outcome.kind == expected_kind
        assert outcome.changed == (expected_kind == KIND_REFILTERED)

    def test_dominated_insert_is_a_provable_noop(self):
        values = np.array([[0.9, 0.9], [0.8, 0.8], [0.7, 0.7], [0.2, 0.2]])
        region = hyperrectangle([0.2], [0.6])
        skyband = compute_r_skyband(values, region, k=2)
        outcome = repair_insert(skyband, 4, np.array([0.1, 0.1]), 2)
        assert outcome.kind == KIND_NOOP and outcome.skyband is skyband

    def test_delete_last_member_yields_singleton_pool_skyband(self):
        values = np.array([[0.9, 0.9], [0.1, 0.1]])
        region = hyperrectangle([0.2], [0.6])
        skyband = compute_r_skyband(values, region, k=1)
        assert skyband.members() == [0]
        outcome = repair_delete(
            skyband, 0, 1, pool_ids=np.array([1]), pool_rows=values[1:]
        )
        assert outcome.kind == KIND_REFILTERED
        assert outcome.skyband.members() == [1]

    def test_delete_member_with_empty_pool(self):
        values = np.array([[0.9, 0.9]])
        region = hyperrectangle([0.2], [0.6])
        skyband = compute_r_skyband(values, region, k=1)
        outcome = repair_delete(
            skyband, 0, 1, pool_ids=np.zeros(0, dtype=int), pool_rows=np.zeros((0, 2))
        )
        assert outcome.skyband.size == 0


# ------------------------------------------------------------- dynamic engine
def fingerprints(engine, region, k):
    """Mapped-to-stable-ids (UTK1 set, UTK2 top-k sets) of a fresh rebuild."""
    ids, values = engine.snapshot()
    reference = UTKEngine(values)
    utk1 = reference.utk1(region, k)
    utk2 = reference.utk2(region, k)
    return (
        sorted(int(ids[i]) for i in utk1.indices),
        sorted(sorted(int(ids[i]) for i in s) for s in utk2.distinct_top_k_sets),
    )


class TestDynamicEngine:
    @common_settings
    @given(seed=st.integers(0, 10_000), d=st.integers(2, 3))
    def test_stream_answers_equal_rebuild(self, seed, d):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 40))
        engine = DynamicUTKEngine(rng.random((n, d)), cache_size=16)
        for _ in range(10):
            roll = rng.random()
            if roll < 0.3:
                engine.insert(rng.random(d))
            elif roll < 0.5 and len(engine.store) > 3:
                ids = engine.active_ids()
                engine.delete(int(ids[rng.integers(len(ids))]))
            else:
                sigma = 0.15
                lower = rng.uniform(0.02, 0.9 / max(d - 1, 1) - sigma, size=d - 1)
                region = hyperrectangle(lower, lower + sigma)
                k = int(rng.integers(1, 4))
                got1 = engine.utk1(region, k)
                got2 = engine.utk2(region, k)
                want1, want2 = fingerprints(engine, region, k)
                assert got1.indices == want1
                got_sets = sorted(
                    sorted(int(i) for i in s) for s in got2.distinct_top_k_sets
                )
                assert got_sets == want2

    def test_unaffected_update_keeps_result_cache_warm(self):
        data = synthetic_dataset("IND", 400, 3, seed=2)
        engine = DynamicUTKEngine(data)
        region = hyperrectangle([0.2, 0.2], [0.4, 0.4])
        first = engine.utk1(region, 2)
        # A record dominated by everything cannot enter any r-skyband.
        report = engine.apply_updates([("insert", np.zeros(3))])
        assert report["entries_evicted"] == 0
        assert report["entries_noop"] >= 1
        assert report["results_retained"] >= 1
        again, source = engine.serve_utk1(region, 2)
        assert source == "hit"
        assert again.indices == first.indices

    def test_skyband_changing_insert_evicts_result(self):
        data = synthetic_dataset("IND", 300, 3, seed=3)
        engine = DynamicUTKEngine(data)
        region = hyperrectangle([0.2, 0.2], [0.4, 0.4])
        engine.utk1(region, 2)
        # A record dominating everything must enter every r-skyband.
        report = engine.apply_updates([("insert", np.full(3, 2.0))])
        assert report["entries_repaired"] >= 1
        assert report["entries_evicted"] >= 1
        new_id = report["inserted_ids"][0]
        result, source = engine.serve_utk1(region, 2)
        assert source != "hit"
        assert new_id in result.indices

    def test_delete_member_refilters_and_stays_exact(self):
        data = synthetic_dataset("IND", 300, 3, seed=4)
        engine = DynamicUTKEngine(data)
        region = hyperrectangle([0.2, 0.2], [0.4, 0.4])
        result = engine.utk1(region, 3)
        victim = result.indices[0]
        engine.delete(victim)
        repaired = engine.utk1(region, 3)
        assert victim not in repaired.indices
        want1, _ = fingerprints(engine, region, 3)
        assert repaired.indices == want1

    def test_update_statistics_accumulate(self):
        engine = DynamicUTKEngine(np.random.default_rng(5).random((50, 3)))
        engine.insert(np.full(3, 0.5))
        engine.delete(0)
        stats = engine.statistics()["dynamic"]
        assert stats["updates_applied"] == 2
        assert stats["inserts"] == 1 and stats["deletes"] == 1

    def test_traditional_skyband_cache_is_maintained(self):
        engine = DynamicUTKEngine(np.random.default_rng(6).random((200, 3)))
        baseline = engine.k_skyband(2)
        engine.apply_updates([("insert", np.zeros(3))])  # dominated: no-op
        assert np.array_equal(engine.k_skyband(2), baseline)
        assert engine.cache_stats()["k_skyband"]["hits"] >= 1
        engine.apply_updates([("insert", np.full(3, 2.0))])  # dominates: evicts
        refreshed = engine.k_skyband(2)
        assert engine.store.high_water - 1 in refreshed

    def test_maintenance_does_not_inflate_cache_hit_statistics(self):
        data = synthetic_dataset("IND", 200, 3, seed=21)
        engine = DynamicUTKEngine(data)
        region = hyperrectangle([0.2, 0.2], [0.4, 0.4])
        engine.utk1(region, 2)
        hits_before = engine.cache_stats()["skyband"]["hits"]
        report = engine.apply_updates([("insert", np.full(3, 2.0))])  # real repair
        assert report["entries_repaired"] >= 1
        assert engine.cache_stats()["skyband"]["hits"] == hits_before

    def test_rejects_malformed_updates(self):
        engine = DynamicUTKEngine(np.random.default_rng(7).random((10, 2)))
        with pytest.raises(InvalidQueryError):
            engine.apply_updates([("upsert", [0.1, 0.2])])
        with pytest.raises(InvalidQueryError):
            engine.apply_updates([{"op": "insert"}])
        with pytest.raises(KeyError):
            engine.delete(999)

    def test_malformed_batch_is_rejected_atomically(self):
        engine = DynamicUTKEngine(np.random.default_rng(22).random((10, 2)))
        before = engine.statistics()["dynamic"]
        with pytest.raises(KeyError):  # valid insert followed by a dead delete
            engine.apply_updates([("insert", [0.5, 0.5]), ("delete", 999)])
        with pytest.raises(InvalidQueryError):  # wrong dimensionality, second position
            engine.apply_updates([("delete", 0), ("insert", [0.5])])
        with pytest.raises(KeyError):  # same record deleted twice in one batch
            engine.apply_updates([("delete", 1), ("delete", 1)])
        assert len(engine.store) == 10 and engine.store.high_water == 10
        assert engine.statistics()["dynamic"] == before
        # A batch may delete a record it inserted earlier in the same batch.
        report = engine.apply_updates([("insert", [0.4, 0.4]), ("delete", 10)])
        assert report["inserted_ids"] == [10]
        assert len(engine.store) == 10

    def test_delete_everything_then_query_and_refill(self):
        engine = DynamicUTKEngine(np.random.default_rng(8).random((5, 3)))
        for record_id in list(engine.active_ids()):
            engine.delete(int(record_id))
        region = hyperrectangle([0.2, 0.2], [0.4, 0.4])
        assert engine.utk1(region, 1).indices == []
        new_id = engine.insert([0.5, 0.5, 0.5])
        assert engine.utk1(region, 1).indices == [new_id]


# ---------------------------------------------------------------- event stream
class TestServeEvents:
    def test_mixed_event_stream_round_trip(self):
        data = synthetic_dataset("IND", 200, 3, seed=9)
        events = update_stream(data, 20, seed=9)
        engine = DynamicUTKEngine(data)
        reports = serve_events(engine, events)
        assert len(reports) == len(events)
        for event, report in zip(events, reports):
            assert report["op"] == event["op"]
            if event["op"] == "query":
                assert ("utk1" in report) == (event["version"] in ("utk1", "both"))
                assert ("utk2" in report) == (event["version"] in ("utk2", "both"))
            else:
                assert "id" in report

    def test_region_objects_accepted(self):
        engine = DynamicUTKEngine(np.random.default_rng(10).random((30, 3)))
        region = hyperrectangle([0.1, 0.1], [0.3, 0.3])
        reports = serve_events(engine, [{"op": "query", "region": region, "k": 1}])
        assert reports[0]["utk1"]["records"]

    def test_rejects_unknown_ops_and_versions(self):
        engine = DynamicUTKEngine(np.random.default_rng(11).random((10, 2)))
        with pytest.raises(InvalidQueryError):
            serve_events(engine, [{"op": "noop"}])
        with pytest.raises(InvalidQueryError):
            serve_events(
                engine, [{"op": "query", "lower": [0.2], "upper": [0.4], "k": 1,
                          "version": "utk3"}]
            )


# ----------------------------------------------------------- workload generator
class TestUpdateStream:
    def test_reproducible_and_well_formed(self):
        data = synthetic_dataset("IND", 100, 3, seed=12)
        first = update_stream(data, 50, seed=12)
        second = update_stream(data, 50, seed=12)
        assert first == second
        live = set(range(100))
        next_id = 100
        for event in first:
            if event["op"] == "insert":
                assert len(event["values"]) == 3
                live.add(next_id)
                next_id += 1
            elif event["op"] == "delete":
                assert event["id"] in live  # deletes only target live records
                live.remove(event["id"])
            else:
                assert event["version"] in ("utk1", "utk2", "both")
                assert len(event["lower"]) == len(event["upper"]) == 2
                assert event["k"] >= 1

    def test_update_mix_is_respected(self):
        data = synthetic_dataset("IND", 100, 3, seed=13)
        events = update_stream(
            data, 300, insert_prob=0.3, delete_prob=0.3, seed=13
        )
        ops = [event["op"] for event in events]
        assert 0.2 < ops.count("insert") / len(ops) < 0.4
        assert 0.2 < ops.count("delete") / len(ops) < 0.4

    def test_stream_replays_on_engine(self):
        data = synthetic_dataset("IND", 150, 3, seed=14)
        events = update_stream(data, 30, insert_prob=0.25, delete_prob=0.25, seed=14)
        engine = DynamicUTKEngine(data)
        serve_events(engine, events)  # deletes reference valid live ids throughout

    def test_rejects_bad_parameters(self):
        data = synthetic_dataset("IND", 20, 3, seed=15)
        with pytest.raises(InvalidDatasetError):
            update_stream(data, -1)
        with pytest.raises(InvalidDatasetError):
            update_stream(data, 5, insert_prob=0.8, delete_prob=0.4)
