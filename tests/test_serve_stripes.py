"""StripedCache vs the single-lock LRUCache: observable equivalence.

The striped cache promises LRUCache semantics as long as no stripe
overflows (any working set of at most ``maxsize // stripes`` distinct keys),
and *exact* predicate-eviction equivalence regardless of stripe placement.
The hypothesis suite drives both caches with the same randomized operation
interleavings and compares every return value plus the final counters; the
direct tests pin down epochs, the atomic conditional put, and the engine's
``evict(region=)`` surgical path running on striped caches.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.region import hyperrectangle
from repro.engine.cache import DEFAULT_STRIPES, LRUCache, StripedCache, stripe_index

STRIPES = 4
PER_STRIPE = 8
MAXSIZE = STRIPES * PER_STRIPE

#: Key pool sized so any working set fits one stripe's share of capacity —
#: the regime where StripedCache promises exact LRUCache equivalence.
KEYS = [f"region-{i:02d}" for i in range(PER_STRIPE)]

operations = st.lists(
    st.one_of(
        st.tuples(st.just("get"), st.sampled_from(KEYS)),
        st.tuples(st.just("put"), st.sampled_from(KEYS), st.integers(0, 99)),
        st.tuples(st.just("touch"), st.sampled_from(KEYS)),
        st.tuples(st.just("replace"), st.sampled_from(KEYS), st.integers(0, 99)),
        st.tuples(st.just("contains"), st.sampled_from(KEYS)),
        st.tuples(st.just("evict_subset"), st.integers(0, 2 ** len(KEYS) - 1)),
        st.tuples(st.just("evict_value_above"), st.integers(0, 99)),
        st.tuples(st.just("clear")),
    ),
    min_size=1,
    max_size=60,
)

common_settings = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def apply(cache, op):
    """Run one operation; return its observable outcome."""
    if op[0] == "get":
        return cache.get(op[1], "absent")
    if op[0] == "put":
        return cache.put(op[1], op[2])
    if op[0] == "touch":
        return cache.touch(op[1])
    if op[0] == "replace":
        return cache.replace(op[1], op[2])
    if op[0] == "contains":
        return op[1] in cache
    if op[0] == "evict_subset":
        doomed = {key for bit, key in enumerate(KEYS) if op[1] >> bit & 1}
        return cache.evict_where(lambda key, _value: key in doomed)
    if op[0] == "evict_value_above":
        return cache.evict_where(lambda _key, value: value > op[1])
    cache.clear()
    return None


class TestHypothesisEquivalence:
    @common_settings
    @given(operations)
    def test_interleavings_match_single_lock_cache(self, ops):
        """Same op stream -> same returns, membership and counters."""
        reference = LRUCache(MAXSIZE)
        striped = StripedCache(MAXSIZE, stripes=STRIPES)
        for op in ops:
            assert apply(reference, op) == apply(striped, op), op
        assert len(striped) == len(reference)
        for key in KEYS:
            assert (key in striped) == (key in reference)
        assert striped.hits == reference.hits
        assert striped.misses == reference.misses
        assert striped.evictions == reference.evictions
        assert dict(striped.scan()) == dict(reference.scan())

    @common_settings
    @given(
        st.lists(
            st.tuples(st.sampled_from(KEYS), st.integers(0, 99)),
            min_size=1, max_size=40,
        ),
        st.integers(0, 2 ** len(KEYS) - 1),
    )
    def test_evict_where_key_set_is_placement_independent(self, puts, mask):
        """Predicate eviction drops the same keys under any stripe count."""
        doomed = {key for bit, key in enumerate(KEYS) if mask >> bit & 1}
        survivors = {}
        counts = []
        for stripes in (1, 2, STRIPES, DEFAULT_STRIPES):
            cache = StripedCache(MAXSIZE, stripes=stripes)
            for key, value in puts:
                cache.put(key, value)
            counts.append(cache.evict_where(lambda key, _value: key in doomed))
            survivors[stripes] = dict(cache.scan())
        assert len(set(counts)) == 1
        reference = survivors[1]
        assert all(contents == reference for contents in survivors.values())
        assert not doomed & set(reference)


class TestStripeMechanics:
    def test_stripe_index_is_stable_and_in_range(self):
        for key in KEYS:
            first = stripe_index(key, STRIPES)
            assert 0 <= first < STRIPES
            assert stripe_index(key, STRIPES) == first

    def test_rejects_degenerate_shapes(self):
        with pytest.raises(ValueError):
            StripedCache(0)
        with pytest.raises(ValueError):
            StripedCache(8, stripes=0)

    def test_epoch_bumps_only_on_changed_stripes(self):
        cache = StripedCache(MAXSIZE, stripes=STRIPES)
        for key in KEYS:
            cache.put(key, 1)
        victim = KEYS[0]
        before = cache.epochs()
        removed = cache.evict_where(lambda key, _value: key == victim)
        assert removed == 1
        after = cache.epochs()
        touched = cache.stripe_of(victim)
        assert after[touched] == before[touched] + 1
        for index in range(STRIPES):
            if index != touched:
                assert after[index] == before[index]

    def test_replace_bumps_only_the_replaced_keys_stripe(self):
        cache = StripedCache(MAXSIZE, stripes=STRIPES)
        for key in KEYS:
            cache.put(key, 1)
        key = KEYS[3]
        before = cache.epochs()
        assert cache.replace(key, 2)
        after = cache.epochs()
        touched = cache.stripe_of(key)
        assert after[touched] == before[touched] + 1
        for index in range(STRIPES):
            if index != touched:
                assert after[index] == before[index]
        assert not cache.replace("absent", 3)  # nothing swapped, no bump
        assert cache.epochs() == after

    def test_put_if_predicate_runs_under_the_stripe_lock(self):
        cache = StripedCache(MAXSIZE, stripes=STRIPES)
        key = KEYS[0]
        entered = threading.Event()
        release = threading.Event()
        outcome = {}

        def gate():
            entered.set()
            release.wait(5)
            return True

        def writer():
            outcome["stored"] = cache.put_if(key, "guarded", gate)

        thread = threading.Thread(target=writer)
        thread.start()
        assert entered.wait(5)
        # While the predicate is parked inside put_if, the stripe lock is
        # held: a sweep of that stripe must block until the put completes.
        sweep = threading.Thread(
            target=lambda: cache.evict_where(lambda _k, _v: True)
        )
        sweep.start()
        sweep.join(0.1)
        assert sweep.is_alive()
        release.set()
        thread.join(5)
        sweep.join(5)
        assert outcome["stored"]
        assert key not in cache  # the sweep ran after the guarded put

    def test_scan_orders_most_recent_first_within_stripe(self):
        cache = StripedCache(MAXSIZE, stripes=STRIPES)
        ordered = []
        for key in KEYS:
            cache.put(key, key.upper())
            ordered.append(key)
        seen = [key for key, _value in cache.scan()]
        assert sorted(seen) == sorted(ordered)
        by_stripe: dict[int, list[str]] = {}
        for key in seen:
            by_stripe.setdefault(cache.stripe_of(key), []).append(key)
        for stripe, keys in by_stripe.items():
            expected = [k for k in reversed(ordered) if cache.stripe_of(k) == stripe]
            assert keys == expected

    def test_stats_exposes_stripe_breakdown(self):
        cache = StripedCache(MAXSIZE, stripes=STRIPES, name=None)
        for key in KEYS:
            cache.put(key, 0)
        stats = cache.stats()
        assert stats["size"] == len(KEYS)
        assert stats["stripes"] == STRIPES
        assert sum(stats["stripe_sizes"]) == len(KEYS)
        assert len(stats["stripe_epochs"]) == STRIPES


class TestEngineSurgicalEviction:
    """engine.evict(region=) drops exactly the contained entries per stripe."""

    def test_evict_region_across_striped_caches(self):
        import numpy as np

        from repro.core.records import Dataset
        from repro.serve.engine import ServeEngine

        rng = np.random.default_rng(7)
        data = Dataset(rng.uniform(0.0, 10.0, size=(120, 3)))
        engine = ServeEngine(data, cache_size=64, stripes=STRIPES)
        try:
            inner = hyperrectangle([0.15, 0.15], [0.25, 0.25])
            outer = hyperrectangle([0.45, 0.25], [0.55, 0.35])
            engine.utk1(inner, 2)
            engine.utk1(outer, 2)
            umbrella = hyperrectangle([0.10, 0.10], [0.30, 0.30])
            counts = engine.evict(region=umbrella)
            assert counts["utk1"] == 1
            assert counts["skyband"] >= 1
            stats = engine.statistics()
            hits_before = stats["utk1"]["hits"]
            engine.utk1(outer, 2)  # untouched entry is still warm
            assert engine.statistics()["utk1"]["hits"] == hits_before + 1
            misses_before = engine.statistics()["utk1"]["misses"]
            engine.utk1(inner, 2)  # evicted entry misses and recomputes
            assert engine.statistics()["utk1"]["misses"] == misses_before + 1
        finally:
            engine.close()
