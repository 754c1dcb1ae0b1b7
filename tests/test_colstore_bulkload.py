"""Streaming STR bulk load: same tree whether sorts fit in memory or not.

The one STR loader builds both the heap R-tree's page array and page files.
Because both its in-memory and external sort paths are stable, a build
forced through the external sample-splitter passes must produce a
**byte-identical** page file to the comfortable in-memory build, and the
heap tree's pages must be those same bytes.  A build that fits its row
budget makes no scratch files at all.  Answers must match the in-memory
R-tree regardless of path, tombstones must be excluded, and the degenerate
empty store must produce a valid (empty) paged tree.
"""

import tempfile

import numpy as np
import pytest

from repro.colstore import ColumnarRecordStore, build_paged_rtree, read_meta
from repro.colstore.pages import PagedRTree
from repro.core.region import hyperrectangle
from repro.core.rskyband import compute_r_skyband
from repro.dynamic.store import RecordStore
from repro.index.rtree import RTree


def region():
    return hyperrectangle([0.1, 0.1], [0.35, 0.3])


@pytest.fixture
def values():
    return np.random.default_rng(7).random((500, 3))


class TestStreamingBuild:
    def test_external_and_in_memory_paths_agree_bytewise(self, tmp_path, values):
        store = RecordStore(values)
        comfortable = tmp_path / "mem.pages"
        forced = tmp_path / "ext.pages"
        build_paged_rtree(store, comfortable, max_entries=16, budget_rows=1 << 20)
        # budget far below the dataset forces the sample-splitter passes.
        build_paged_rtree(store, forced, max_entries=16, budget_rows=64)
        assert comfortable.read_bytes() == forced.read_bytes()

    @pytest.mark.parametrize("budget_rows", [1 << 20, 64])
    @pytest.mark.parametrize("fanout", [5, 16])
    def test_rtree_pages_are_the_page_file(self, tmp_path, values, fanout, budget_rows):
        build_paged_rtree(values, tmp_path / "t.pages", max_entries=fanout,
                          budget_rows=budget_rows)
        tree = RTree(values, max_entries=fanout)
        assert tree.pages.tobytes() == (tmp_path / "t.pages").read_bytes()
        assert tree.meta == read_meta(tmp_path / "t.pages")

    def test_build_within_budget_makes_no_scratch(self, tmp_path, values, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a build within budget_rows made a temp directory")

        monkeypatch.setattr(tempfile, "mkdtemp", refuse)
        build_paged_rtree(values, tmp_path / "t.pages", max_entries=16,
                          budget_rows=len(values), scratch_dir=tmp_path / "scratch")
        RTree(values)
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "t.pages", "t.pages.meta.json"]
        with pytest.raises(AssertionError, match="temp directory"):
            build_paged_rtree(values, tmp_path / "u.pages", max_entries=16,
                              budget_rows=len(values) - 1)

    def test_answers_match_in_memory_rtree(self, tmp_path, values):
        build_paged_rtree(values, tmp_path / "t.pages", max_entries=16,
                          budget_rows=128)
        paged = PagedRTree(tmp_path / "t.pages", values)
        reference = RTree(values)
        for k in (1, 2, 3):
            expected = compute_r_skyband(values, region(), k, tree=reference)
            actual = compute_r_skyband(values, region(), k, tree=paged)
            assert set(actual.members()) == set(expected.members())

    def test_tombstoned_records_are_excluded(self, tmp_path, values):
        store = RecordStore(values)
        deleted = [0, 17, 499]
        for record_id in deleted:
            store.delete(record_id)
        meta = build_paged_rtree(store, tmp_path / "t.pages", max_entries=16,
                                 budget_rows=64)
        assert meta["size"] == 497
        paged = PagedRTree(tmp_path / "t.pages", store.matrix)
        skyband = compute_r_skyband(store.matrix, region(), 3, tree=paged)
        assert not set(skyband.members()) & set(deleted)
        expected = compute_r_skyband(store.matrix[store.active_ids()], region(), 3)
        np.testing.assert_array_equal(
            np.sort(store.active_ids()[expected.indices]),
            np.sort(skyband.members()),
        )

    def test_colstore_source_streams_through(self, tmp_path, values):
        store = ColumnarRecordStore(values, directory=tmp_path / "store")
        meta = build_paged_rtree(store, tmp_path / "t.pages", max_entries=16,
                                 budget_rows=64)
        assert meta["size"] == 500
        paged = PagedRTree(tmp_path / "t.pages", store.matrix)
        expected = compute_r_skyband(values, region(), 2, tree=RTree(values))
        actual = compute_r_skyband(store.matrix, region(), 2, tree=paged)
        assert set(actual.members()) == set(expected.members())

    def test_empty_dataset_builds_an_empty_tree(self, tmp_path):
        empty = np.empty((0, 3))
        meta = build_paged_rtree(empty, tmp_path / "t.pages")
        assert meta["size"] == 0
        paged = PagedRTree(tmp_path / "t.pages", empty)
        assert len(paged) == 0
        root, corner = paged.read_root()
        assert corner is None
        assert paged.read_node(root)[:2] == (True, [])
        skyband = compute_r_skyband(empty, region(), 2, tree=paged)
        assert len(skyband.members()) == 0

    def test_scratch_files_are_cleaned_up(self, tmp_path, values):
        build_paged_rtree(values, tmp_path / "t.pages", max_entries=16,
                          budget_rows=64, scratch_dir=tmp_path)
        leftovers = [p.name for p in tmp_path.iterdir()
                     if not p.name.startswith("t.pages")]
        assert leftovers == []

    def test_meta_geometry_is_consistent(self, tmp_path, values):
        meta = build_paged_rtree(values, tmp_path / "t.pages", max_entries=8)
        paged = PagedRTree(tmp_path / "t.pages", values)
        # STR re-ceils per slab, so the leaf count may exceed the global
        # minimum by a few — but never enough to drop fill below ~0.9.
        assert meta["n_leaves"] >= int(np.ceil(500 / 8))
        assert paged.height() == meta["height"]
        assert 0.9 < paged.fill_factor() <= 1.0  # STR packs leaves full
