"""The engine cache: one lock, a hard capacity bound, surgical eviction.

:class:`~repro.engine.cache.LRUCache` is every engine cache.  These tests pin
what its one lock guarantees — ``put_if``'s predicate runs under it, so an
update's sweep can never slip between a passing check and the put, and a
contended wait is timed per cache — that a cache never holds more than its
capacity, alone or inside the serving tier's engine, and the engine's
``evict(region=)`` surgical path on that engine.  Single-threaded
accounting, scan order, ``replace`` and ``evict_where`` are covered by the
``test_lru_*`` tests of ``test_engine.py``.
"""

from __future__ import annotations

import contextlib
import sys
import threading

import numpy as np
import pytest

from repro.core.records import Dataset
from repro.core.region import hyperrectangle
from repro.engine.cache import LRUCache
from repro.obs import names, runtime
from repro.obs.metrics import REGISTRY
from repro.serve.engine import ServeEngine


@pytest.fixture
def observed():
    """Observability on over an empty registry; off and empty afterwards."""
    REGISTRY.reset()
    try:
        with runtime.activated():
            yield
    finally:
        REGISTRY.reset()


@contextlib.contextmanager
def parked_put_if(cache: LRUCache, key):
    """Hold ``cache`` inside ``put_if``'s predicate until the block ends."""
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
    try:
        yield outcome
    finally:
        release.set()
        thread.join(5)
        assert not thread.is_alive()


class TestLock:
    def test_put_if_predicate_runs_under_the_cache_lock(self):
        cache = LRUCache(8)
        with parked_put_if(cache, "a") as outcome:
            # While the predicate is parked inside put_if the lock is held:
            # a sweep must block until the put completes.
            sweep = threading.Thread(
                target=lambda: cache.evict_where(lambda _k, _v: True)
            )
            sweep.start()
            sweep.join(0.1)
            assert sweep.is_alive()
        sweep.join(5)
        assert not sweep.is_alive()
        assert outcome["stored"]
        assert "a" not in cache  # the sweep ran after the guarded put

    def test_contended_wait_is_timed_per_cache(self, observed):
        cache = LRUCache(8, name="probe")
        cache.get("a")  # uncontended: nothing recorded
        assert not names.STRIPE_LOCK_WAIT_SECONDS.samples()
        with parked_put_if(cache, "a"):
            reader = threading.Thread(target=cache.get, args=("a",))
            reader.start()
            reader.join(0.1)
            assert reader.is_alive()
        reader.join(5)
        assert not reader.is_alive()
        samples = names.STRIPE_LOCK_WAIT_SECONDS.samples()
        assert [sample["labels"] for sample in samples] == [{"cache": "probe"}]
        assert samples[0]["count"] == 1

    def test_concurrent_operations_lose_no_count(self):
        # More threads than cores, switching as often as the interpreter
        # allows: a counter update or eviction lost to a race would break
        # the accounting or the capacity bound.
        cache = LRUCache(10)
        threads, rounds = 8, 400
        peaks = []
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def work(offset):
                peak = 0
                for step in range(rounds):
                    key = (offset + step) % 30
                    cache.put(key, step)
                    cache.get((key * 7) % 30)
                    peak = max(peak, len(cache))
                peaks.append(peak)

            workers = [threading.Thread(target=work, args=(offset,))
                       for offset in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(60)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(previous)
        assert len(peaks) == threads and max(peaks) == 10
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == threads * rounds
        assert stats["size"] == len(cache.scan()) == 10


class TestCapacity:
    def test_cache_never_holds_more_than_maxsize(self):
        cache = LRUCache(10)
        for key in range(1000):
            cache.put(key, key)
            assert len(cache) <= 10
        assert len(cache) == 10
        assert [key for key, _ in cache.scan()] == list(range(999, 989, -1))
        assert cache.stats()["evictions"] == 990

    def test_serve_engine_caches_hold_at_most_cache_size(self):
        data = Dataset(np.random.default_rng(3).uniform(0.0, 10.0, size=(120, 3)))
        engine = ServeEngine(data, cache_size=10)
        try:
            for index in range(20):
                low = 0.02 + 0.01 * index
                engine.utk1(hyperrectangle([low, 0.1], [low + 0.05, 0.15]), 2)
            stats = engine.statistics()
        finally:
            engine.close()
        assert stats["engine"]["utk1_queries"] == 20
        assert stats["utk1"]["size"] == stats["utk1"]["maxsize"] == 10
        assert stats["skyband"]["size"] <= 10


class TestEngineSurgicalEviction:
    """engine.evict(region=) drops exactly the contained entries."""

    def test_evict_region_on_serve_engine(self):
        rng = np.random.default_rng(7)
        data = Dataset(rng.uniform(0.0, 10.0, size=(120, 3)))
        engine = ServeEngine(data, cache_size=64)
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
