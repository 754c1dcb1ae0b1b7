"""Tests for the persistent query-serving engine (``repro.engine``)."""

from __future__ import annotations

import numpy as np
import pytest

from helpers import brute_force_top_k

from repro.core.api import make_engine, utk1, utk2
from repro.core.records import Dataset
from repro.core.region import hyperrectangle
from repro.core.rskyband import compute_r_skyband, refilter_r_skyband
from repro.bench.workloads import engine_query_stream, zipfian_k
from repro.engine import (
    BatchQuery,
    LRUCache,
    UTKEngine,
    as_batch_query,
    clip_partitioning,
    region_contains,
    region_signature,
    summarize_batch,
)
from repro.exceptions import InvalidQueryError


def random_dataset(seed: int, n: int = 90, d: int = 3) -> Dataset:
    return Dataset(np.random.default_rng(seed).random((n, d)) * 10.0)


def random_region_pair(seed: int, dim: int = 2):
    """A random region and a strictly contained sub-region."""
    rng = np.random.default_rng(seed)
    lower = rng.uniform(0.05, 0.3, size=dim)
    upper = lower + rng.uniform(0.15, 0.25, size=dim)
    span = upper - lower
    sub_lower = lower + span * 0.25
    sub_upper = upper - span * 0.25
    return hyperrectangle(lower, upper), hyperrectangle(sub_lower, sub_upper)


# ------------------------------------------------------------------ primitives
class TestCachePrimitives:
    def test_lru_accounting_and_eviction_bound(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1
        cache.put("c", 3)  # evicts "b", the least recently used
        assert len(cache) == 2
        assert cache.get("b") is None
        assert cache.get("c") == 3
        stats = cache.stats()
        assert stats == {"size": 2, "maxsize": 2, "hits": 2, "misses": 1, "evictions": 1}

    def test_lru_scan_is_most_recent_first(self):
        cache = LRUCache(3)
        for key in ("a", "b", "c"):
            cache.put(key, key)
        cache.get("a")
        assert [key for key, _ in cache.scan()] == ["a", "c", "b"]

    def test_lru_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_region_signature_stable_and_discriminating(self):
        region = hyperrectangle([0.1, 0.1], [0.3, 0.3])
        again = hyperrectangle([0.1, 0.1], [0.3, 0.3])
        other = hyperrectangle([0.1, 0.1], [0.3, 0.31])
        assert region_signature(region) == region_signature(again)
        assert region_signature(region) != region_signature(other)

    def test_region_containment(self):
        outer, inner = random_region_pair(3)
        assert region_contains(outer, inner)
        assert region_contains(outer, outer)
        assert not region_contains(inner, outer)
        disjoint = hyperrectangle([0.55, 0.05], [0.65, 0.1])
        assert not region_contains(outer, disjoint)


# ----------------------------------------------------------------- accounting
class TestEngineAccounting:
    def test_repeat_query_hits_result_cache(self):
        engine = UTKEngine(random_dataset(1))
        region, _ = random_region_pair(1)
        first = engine.utk1(region, 2)
        second = engine.utk1(region, 2)
        assert first.indices == second.indices
        stats = engine.stats
        assert stats.utk1_queries == 2
        assert stats.result_hits == 1
        assert stats.cold_queries == 1

    def test_serve_reports_reuse_paths(self):
        engine = UTKEngine(random_dataset(2))
        region, sub = random_region_pair(2)
        _, source_cold = engine.serve_utk2(region, 2)
        _, source_hit = engine.serve_utk2(region, 2)
        _, source_clip = engine.serve_utk2(sub, 2)
        _, source_utk1 = engine.serve_utk1(sub, 2)
        assert source_cold == "cold"
        assert source_hit == "hit"
        assert source_clip == "containment"
        assert source_utk1 == "containment"

    def test_skyband_containment_reuse_for_smaller_k(self):
        engine = UTKEngine(random_dataset(3))
        region, sub = random_region_pair(4)
        engine.utk1(region, 3)
        _, source = engine.serve_utk1(sub, 2)  # k=2 < 3: no clip, skyband reuse
        assert source == "skyband-containment"
        assert engine.stats.skyband_containment_hits == 1

    def test_lru_eviction_bounds_engine_caches(self):
        engine = UTKEngine(random_dataset(4), cache_size=2)
        regions = [hyperrectangle([0.05 + 0.2 * i, 0.05], [0.15 + 0.2 * i, 0.15]) for i in range(3)]
        for region in regions:
            engine.utk1(region, 2)
        cache = engine.cache_stats()
        assert cache["utk1"]["size"] <= 2
        assert cache["utk1"]["evictions"] >= 1
        # The first region was evicted: querying it again is not a result hit.
        hits_before = engine.stats.result_hits
        engine.utk1(regions[0], 2)
        assert engine.stats.result_hits == hits_before

    def test_clear_caches(self):
        engine = UTKEngine(random_dataset(5))
        region, _ = random_region_pair(5)
        engine.utk1(region, 2)
        engine.clear_caches()
        assert engine.cache_stats()["utk1"]["size"] == 0
        _, source = engine.serve_utk1(region, 2)
        assert source == "cold"

    def test_lru_replace_keeps_recency_and_counters(self):
        cache = LRUCache(3)
        cache.put("a", 1)
        cache.put("b", 2)
        hits_before = cache.stats()["hits"]
        assert cache.replace("a", 10)
        assert not cache.replace("missing", 0)
        assert cache.stats()["hits"] == hits_before  # no phantom hit recorded
        assert [key for key, _ in cache.scan()] == ["b", "a"]  # recency untouched
        assert cache.get("a") == 10

    def test_lru_evict_where(self):
        cache = LRUCache(8)
        for number in range(5):
            cache.put(number, number * 10)
        removed = cache.evict_where(lambda key, value: key % 2 == 0)
        assert removed == 3
        assert len(cache) == 2 and 1 in cache and 3 in cache
        assert cache.stats()["evictions"] == 3

    def test_evict_by_k_keeps_other_entries(self):
        engine = UTKEngine(random_dataset(8))
        region, _ = random_region_pair(8)
        engine.utk1(region, 2)
        engine.utk1(region, 3)
        counts = engine.evict(k=2)
        assert counts["utk1"] == 1 and counts["skyband"] == 1
        _, source_evicted = engine.serve_utk1(region, 2)
        _, source_kept = engine.serve_utk1(region, 3)
        assert source_evicted != "hit"
        assert source_kept == "hit"

    def test_evict_by_region_containment(self):
        engine = UTKEngine(random_dataset(9))
        region, sub = random_region_pair(9)
        disjoint = hyperrectangle([0.55, 0.05], [0.65, 0.1])
        engine.utk1(sub, 2)
        engine.utk1(disjoint, 2)
        counts = engine.evict(region=region)  # contains sub, not disjoint
        assert counts["utk1"] == 1
        assert counts["k_skyband"] == 0  # region-scoped: per-k memo untouched
        _, source = engine.serve_utk1(disjoint, 2)
        assert source == "hit"

    def test_evict_with_predicate_and_counters(self):
        engine = UTKEngine(random_dataset(10))
        region, _ = random_region_pair(10)
        engine.utk2(region, 2)
        counts = engine.evict(predicate=lambda key, entry: True)
        assert counts["utk2"] == 1
        assert engine.cache_stats()["utk2"]["evictions"] >= 1

    def test_evict_everything_includes_k_skyband_memo(self):
        engine = UTKEngine(random_dataset(11))
        engine.k_skyband(2)
        counts = engine.evict()
        assert counts["k_skyband"] == 1
        assert engine.cache_stats()["k_skyband"]["size"] == 0

    def test_statistics_shape(self):
        engine = UTKEngine(random_dataset(6))
        merged = engine.statistics()
        assert set(merged) == {"engine", "skyband", "utk1", "utk2", "k_skyband",
                               "dynamic", "serve"}
        assert merged["engine"]["queries"] == 0
        assert merged["dynamic"]["updates_applied"] == 0
        assert merged["serve"]["stripes"] == 1

    def test_invalid_queries_rejected(self):
        engine = UTKEngine(random_dataset(7))
        region, _ = random_region_pair(7)
        with pytest.raises(InvalidQueryError):
            engine.utk1(region, 0)
        with pytest.raises(InvalidQueryError):
            engine.utk1(hyperrectangle([0.1], [0.2]), 2)


# ---------------------------------------------------------------- correctness
class TestEngineCorrectness:
    """Engine answers equal the direct API on every reuse path."""

    @pytest.mark.parametrize("seed", [11, 23, 37])
    def test_utk1_cold_warm_and_containment_match_direct(self, seed):
        data = random_dataset(seed)
        region, sub = random_region_pair(seed)
        engine = UTKEngine(data)
        for k in (1, 2, 3):
            direct_outer = utk1(data, region, k)
            direct_sub = utk1(data, sub, k)
            cold = engine.utk1(region, k)
            warm = engine.utk1(region, k)
            contained = engine.utk1(sub, k)
            assert cold.indices == direct_outer.indices
            assert warm.indices == direct_outer.indices
            assert contained.indices == direct_sub.indices

    @pytest.mark.parametrize("seed", [11, 23, 37])
    def test_utk2_cold_warm_and_containment_match_direct(self, seed):
        data = random_dataset(seed, n=70)
        region, sub = random_region_pair(seed + 100)
        engine = UTKEngine(data)
        k = 2
        direct_outer = utk2(data, region, k)
        direct_sub = utk2(data, sub, k)
        cold = engine.utk2(region, k)
        warm = engine.utk2(region, k)
        contained = engine.utk2(sub, k)
        assert cold.distinct_top_k_sets == direct_outer.distinct_top_k_sets
        assert warm.distinct_top_k_sets == direct_outer.distinct_top_k_sets
        assert contained.distinct_top_k_sets == direct_sub.distinct_top_k_sets
        assert contained.result_records == direct_sub.result_records

    def test_containment_witnesses_are_valid_certificates(self):
        data = random_dataset(41)
        region, sub = random_region_pair(41)
        engine = UTKEngine(data)
        engine.utk2(region, 2)
        contained = engine.utk1(sub, 2)  # served by clipping the cached UTK2
        assert contained.witnesses
        for index, witness in contained.witnesses.items():
            assert sub.contains(witness, tol=1e-7)
            assert index in brute_force_top_k(data.values, witness, 2)

    def test_clipped_partitions_agree_with_brute_force(self):
        data = random_dataset(43, n=60)
        region, sub = random_region_pair(43)
        direct = utk2(data, region, 2)
        clipped = clip_partitioning(direct, sub)
        assert len(clipped) > 0
        for partition in clipped:
            probe = partition.interior_point
            assert probe is not None
            assert sub.contains(probe, tol=1e-7)
            assert brute_force_top_k(data.values, probe, 2) == set(partition.top_k)

    def test_refiltered_skyband_matches_direct_computation(self):
        data = random_dataset(47)
        region, sub = random_region_pair(47)
        for k_outer, k_sub in ((3, 3), (3, 2)):
            outer = compute_r_skyband(data.values, region, k_outer)
            refiltered = refilter_r_skyband(outer, sub, k_sub)
            direct = compute_r_skyband(data.values, sub, k_sub)
            assert refiltered.members() == direct.members()
            assert refiltered.ancestors == direct.ancestors
            assert refiltered.descendants == direct.descendants

    def test_api_engine_fast_path_matches_one_shot(self):
        data = random_dataset(53)
        region, _ = random_region_pair(53)
        engine = make_engine(data)
        assert utk1(data, region, 2, engine=engine).indices == \
            utk1(data, region, 2).indices
        assert utk2(data, region, 2, engine=engine).distinct_top_k_sets == \
            utk2(data, region, 2).distinct_top_k_sets
        assert engine.stats.queries == 2


# ------------------------------------------------------------ always indexed
class TestSmallEngines:
    @pytest.mark.parametrize("n", [0, 1, 30, 200, 512])
    def test_indexed_engine_matches_brute_force_api(self, n):
        """Every engine filters over an R-tree, however small its dataset;
        at these sizes the one-shot API filters by brute force instead."""
        values = np.random.default_rng(n).random((n, 3))
        engine = UTKEngine(values)
        assert len(engine.tree) == n
        for lower, k in (([0.1, 0.1], 1), ([0.2, 0.15], 3), ([0.05, 0.3], 5)):
            region = hyperrectangle(lower, np.add(lower, 0.12))
            assert engine.utk1(region, k).indices == utk1(values, region, k).indices
            assert engine.utk2(region, k).distinct_top_k_sets == \
                utk2(values, region, k).distinct_top_k_sets


# ---------------------------------------------------------------------- batch
class TestBatchExecution:
    def test_batch_matches_serial_and_parallel(self):
        data = random_dataset(61)
        region, sub = random_region_pair(61)
        queries = [
            BatchQuery(region, 2, "both"),
            BatchQuery(sub, 2, "utk1"),
            BatchQuery(sub, 2, "utk1"),
            BatchQuery(sub, 1, "utk2"),
        ]
        serial = UTKEngine(data).run_batch(queries)
        threaded = UTKEngine(data).run_batch(queries, workers=4)
        assert len(serial) == len(threaded) == 4
        for left, right in zip(serial, threaded):
            if left.utk1 is not None:
                assert left.utk1.indices == right.utk1.indices
            if left.utk2 is not None:
                assert left.utk2.distinct_top_k_sets == \
                    right.utk2.distinct_top_k_sets

    def test_batch_sources_and_summary(self):
        data = random_dataset(67)
        region, sub = random_region_pair(67)
        engine = UTKEngine(data)
        items = engine.run_batch([(region, 2, "utk2"), (region, 2, "utk2"), (sub, 2, "utk2")])
        assert items[0].sources == {"utk2": "cold"}
        assert items[1].sources == {"utk2": "hit"}
        assert items[2].sources == {"utk2": "containment"}
        summary = summarize_batch(items)
        assert summary["queries"] == 3
        assert summary["sources"] == {"cold": 1, "containment": 1, "hit": 1}
        assert summary["queries_per_second"] > 0
        assert engine.stats.batches == 1
        assert engine.stats.batch_queries == 3

    def test_query_normalization(self):
        region, _ = random_region_pair(71)
        assert as_batch_query((region, 2)).version == "utk1"
        assert as_batch_query({"region": region, "k": 2, "version": "both"}).version == "both"
        spec = engine_query_stream(3, 1, seed=0)[0]
        normalized = as_batch_query(spec)
        assert normalized.k == spec.k and normalized.region is spec.region
        with pytest.raises(InvalidQueryError):
            as_batch_query("not a query")
        with pytest.raises(InvalidQueryError):
            BatchQuery(region, 2, "utk3")

    def test_empty_batch(self):
        engine = UTKEngine(random_dataset(73))
        assert engine.run_batch([]) == []


# ------------------------------------------------------------------ workloads
class TestQueryStream:
    def test_stream_is_deterministic(self):
        first = engine_query_stream(3, 20, seed=5)
        second = engine_query_stream(3, 20, seed=5)
        assert [spec.k for spec in first] == [spec.k for spec in second]
        for left, right in zip(first, second):
            assert region_signature(left.region) == region_signature(right.region)

    def test_stream_exercises_reuse(self):
        parents = 3
        stream = engine_query_stream(
            3, 40, parents=parents, repeat_prob=0.4, subregion_prob=0.5, seed=9
        )
        assert len(stream) == 40
        anchors = stream[:parents]
        signatures = {region_signature(spec.region) for spec in stream}
        assert len(signatures) < 40  # repeats exist
        contained = sum(
            1 for spec in stream[parents:]
            if any(region_contains(anchor.region, spec.region)
                   for anchor in anchors)
            and region_signature(spec.region) not in
            {region_signature(anchor.region) for anchor in anchors})
        assert contained > 0  # drill-downs exist

    def test_stream_k_values_come_from_choices(self):
        choices = (1, 2, 5)
        stream = engine_query_stream(3, 30, k_choices=choices, seed=13)
        assert {spec.k for spec in stream} <= set(choices)
        # Anchors use the broadest k so drill-downs can reuse their filtering.
        assert all(spec.k == 5 for spec in stream[:4])

    def test_zipfian_k_favours_small_k(self):
        rng = np.random.default_rng(17)
        draws = [zipfian_k((1, 2, 5, 10), 1.5, rng) for _ in range(500)]
        assert set(draws) <= {1, 2, 5, 10}
        assert draws.count(1) > draws.count(10)

    def test_stream_validation(self):
        with pytest.raises(InvalidQueryError):
            engine_query_stream(3, -1)
        with pytest.raises(InvalidQueryError):
            engine_query_stream(3, 5, repeat_prob=0.8, subregion_prob=0.8)
        with pytest.raises(InvalidQueryError):
            engine_query_stream(1, 5)
