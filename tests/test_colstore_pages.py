"""Page files, the pinning buffer pool, and the paged R-tree traversal.

Pool invariants under test: pinned pages are never evicted, the resident
set never exceeds capacity, ``hits + misses == lookups`` and
``resident == misses - evictions`` (stats conservation), and exhausting a
fully pinned pool raises instead of over-committing.  The paged tree must
answer exactly like the in-memory R-tree whose pages it holds.
"""

import numpy as np
import pytest

from repro.colstore import read_meta, write_pages
from repro.colstore.pages import META_SUFFIX, BufferPool, PagedRTree
from repro.core.region import hyperrectangle
from repro.core.rskyband import compute_r_skyband
from repro.exceptions import StorageError
from repro.index.pages import page_dtype
from repro.index.rtree import RTree


@pytest.fixture
def values():
    return np.random.default_rng(11).random((300, 3))


@pytest.fixture
def paged(tmp_path, values):
    tree = RTree(values, max_entries=8)
    write_pages(tmp_path / "t.pages", (tree.pages,), tree.meta)
    return PagedRTree(tmp_path / "t.pages", values)


def region():
    return hyperrectangle([0.1, 0.1], [0.3, 0.3])


class TestPageFile:
    def test_page_size_is_padded_power_of_two(self):
        dtype, size = page_dtype(3, 64)
        assert size == dtype.itemsize
        assert size >= 256 and size & (size - 1) == 0

    def test_explicit_page_size_must_fit(self):
        with pytest.raises(StorageError, match="cannot hold"):
            page_dtype(3, 64, page_size=64)

    def test_meta_sidecar_round_trips(self, tmp_path, values):
        tree = RTree(values, max_entries=8)
        meta = write_pages(tmp_path / "t.pages", (tree.pages,), tree.meta)
        assert read_meta(tmp_path / "t.pages") == meta
        assert meta["schema"] == 1
        assert meta["size"] == 300
        assert meta["height"] >= 2

    def test_schema_mismatch_is_rejected(self, tmp_path, values):
        tree = RTree(values, max_entries=8)
        write_pages(tmp_path / "t.pages", (tree.pages,), tree.meta)
        meta_path = tmp_path / ("t.pages" + META_SUFFIX)
        meta_path.write_text(meta_path.read_text().replace('"schema": 1', '"schema": 9'))
        with pytest.raises(StorageError, match="schema"):
            PagedRTree(tmp_path / "t.pages", values)


class TestBufferPool:
    def pool(self, paged, capacity):
        return BufferPool(paged._pages, capacity=capacity)

    def test_stats_conservation(self, paged):
        pool = self.pool(paged, capacity=4)
        n_pages = paged.meta["n_pages"]
        lookups = 0
        rng = np.random.default_rng(3)
        for page in rng.integers(0, n_pages, size=200):
            pool.get(int(page))
            lookups += 1
        stats = pool.stats
        assert stats["hits"] + stats["misses"] == lookups
        assert pool.resident() == stats["misses"] - stats["evictions"]
        assert pool.resident() <= pool.capacity

    def test_pinned_pages_are_never_evicted(self, paged):
        pool = self.pool(paged, capacity=4)
        pinned = pool.pin(0)
        for page in range(1, paged.meta["n_pages"]):
            pool.get(page)
        assert pool.pinned() == 1
        # Still resident, and another lookup of it is a hit, not a reload.
        before = pool.stats["misses"]
        assert pool.get(0) is pinned
        assert pool.stats["misses"] == before
        pool.unpin(0)

    def test_lru_evicts_least_recently_used(self, paged):
        pool = self.pool(paged, capacity=3)
        for page in (0, 1, 2):
            pool.get(page)
        pool.get(0)      # 1 is now the LRU frame
        pool.get(3)      # must evict 1
        misses = pool.stats["misses"]
        pool.get(0)
        pool.get(2)
        pool.get(3)
        assert pool.stats["misses"] == misses  # all still resident
        pool.get(1)
        assert pool.stats["misses"] == misses + 1

    def test_fully_pinned_pool_raises(self, paged):
        pool = self.pool(paged, capacity=2)
        pool.pin(0)
        pool.pin(1)
        with pytest.raises(StorageError, match="pinned"):
            pool.get(2)
        pool.unpin(1)
        pool.get(2)  # one unpinned frame frees it up again

    def test_unbalanced_unpin_raises(self, paged):
        pool = self.pool(paged, capacity=2)
        pool.get(0)
        with pytest.raises(StorageError, match="not pinned"):
            pool.unpin(0)
        with pytest.raises(StorageError, match="not pinned"):
            pool.unpin(7)

    def test_pinned_page_context_balances(self, paged):
        pool = self.pool(paged, capacity=2)
        with pool.pinned_page(0) as node:
            assert pool.pinned() == 1
            assert node.count > 0
        assert pool.pinned() == 0


class TestPagedRTree:
    def test_traversal_matches_in_memory_rtree(self, values, paged):
        tree = RTree(values, max_entries=8)
        for k in (1, 2, 3):
            expected = compute_r_skyband(values, region(), k, tree=tree)
            actual = compute_r_skyband(values, region(), k, tree=paged)
            assert set(actual.members()) == set(expected.members())

    def test_contract_surface(self, values, paged):
        assert len(paged) == 300
        assert paged.dimension == 3
        root, corner = paged.read_root()
        is_leaf, children, corners = paged.read_node(root)
        assert is_leaf is False
        assert corners.shape == (len(children), 3)
        assert np.all(corner >= corners)  # the root's top corner bounds its children's
        # A leaf read returns record ids with their rows from the record buffer.
        page = children[0]
        while not (read := paged.read_node(page))[0]:
            page = read[1][0]
        _, ids, rows = read
        assert np.array_equal(rows, values[ids])
        assert paged.pool.pinned() == 0
        assert 0.0 < paged.fill_factor() <= 1.0
        paged.count_access("search", 5)
        assert paged.access_counts["search"] == 5

    def test_internal_frames_cache_their_children(self, tmp_path, values):
        # Expanding a resident internal page again does no child lookups; an
        # evicted page forgets its cache and looks its children up again.
        tree = RTree(values, max_entries=8)
        write_pages(tmp_path / "t.pages", (tree.pages,), tree.meta)
        paged = PagedRTree(tmp_path / "t.pages", values, pool_pages=4)
        first = paged.read_node(0)
        lookups = paged.pool.stats["hits"] + paged.pool.stats["misses"]
        assert paged.read_node(0)[2] is first[2]
        assert paged.pool.stats["hits"] + paged.pool.stats["misses"] == lookups + 1
        for page in range(1, 9):
            paged.pool.get(page)
        before = paged.pool.stats["misses"]
        _, children, corners = paged.read_node(0)
        assert children == first[1] and np.array_equal(corners, first[2])
        assert paged.pool.stats["misses"] > before + 1
        assert paged.pool.pinned() == 0

    def test_page_count_mismatch_is_detected(self, tmp_path, values):
        tree = RTree(values, max_entries=8)
        write_pages(tmp_path / "t.pages", (tree.pages,), tree.meta)
        with open(tmp_path / "t.pages", "ab") as handle:
            handle.write(b"\0" * read_meta(tmp_path / "t.pages")["page_size"])
        with pytest.raises(StorageError, match="pages"):
            PagedRTree(tmp_path / "t.pages", values)
