"""Unit and property tests for the R-tree over its page array.

The hypothesis suites check the structural invariants across random insert /
delete workloads, reading the tree through ``read_root``/``read_node`` and
its page rows: no node holds more than ``max_entries``, no non-root node
fewer than ``min_entries``, every node's MBB is *tight* (exactly the bounds
of what lies beneath it, not merely covering), every live id sits in exactly
one leaf, and no freed page is reachable (every page is either reachable or
on the free list).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import InvalidDatasetError
from repro.index.rtree import RTree, _quadratic_split

common_settings = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def walk(tree: RTree):
    """``(page, is_leaf, ids, corners, is_root)`` of every reachable node."""
    root, _ = tree.read_root()
    assert root == 0
    stack = [(root, True)]
    while stack:
        page, is_root = stack.pop()
        is_leaf, ids, corners = tree.read_node(page)
        yield page, is_leaf, ids, corners, is_root
        if not is_leaf:
            stack.extend((child, False) for child in ids)


def structure(tree: RTree) -> list[tuple]:
    """``(page, is_leaf, ids, lower, upper)`` of every reachable node, in
    :func:`walk` order: the dump two trees must share to be the same tree."""
    pages = tree.pages
    return [(page, is_leaf, ids, pages["lower"][page].tolist(), pages["upper"][page].tolist())
            for page, is_leaf, ids, _, _ in walk(tree)]


def leaf_ids(tree: RTree) -> list[int]:
    return sorted(index for _, is_leaf, ids, _, _ in walk(tree) if is_leaf for index in ids)


def assert_invariants(tree: RTree, expected: dict[int, np.ndarray]):
    """Structural invariants against the expected ``{index: point}`` content."""
    assert len(tree) == len(expected)
    if not expected:
        root, corner = tree.read_root()
        assert corner is None
        assert tree.read_node(root)[:2] == (True, [])
        assert np.isnan(tree.pages["upper"][root]).all()
    pages = tree.pages
    seen: list[int] = []
    reachable: list[int] = []
    for page, is_leaf, ids, corners, is_root in walk(tree):
        reachable.append(page)
        assert len(ids) <= tree.max_entries
        if is_root:
            assert is_leaf or len(ids) >= 2, "an internal root with one child"
            if not ids:
                continue
        else:
            assert len(ids) >= tree.min_entries, "non-root node below the minimum fill"
        row = pages[page]
        assert bool(row["is_leaf"]) == is_leaf and row["count"] == len(ids)
        if is_leaf:
            seen.extend(ids)
            for index, point in zip(ids, corners):
                assert np.array_equal(point, expected[index])
            lower = upper = corners
        else:
            assert np.array_equal(corners, pages["upper"][ids])
            lower, upper = pages["lower"][ids], pages["upper"][ids]
        # Tight MBB: exactly the bounds of the contents, not merely covering.
        assert np.array_equal(row["lower"], lower.min(axis=0))
        assert np.array_equal(row["upper"], upper.max(axis=0))
    assert sorted(seen) == sorted(expected)
    free = tree._free
    assert not set(reachable) & set(free), "a freed page is reachable"
    assert sorted(reachable + free) == list(range(pages.shape[0])), "a page leaked"


class TestBulkLoad:
    def test_every_id_is_in_a_leaf(self):
        rng = np.random.default_rng(0)
        points = rng.random((500, 3))
        tree = RTree(points)
        assert leaf_ids(tree) == list(range(500))
        assert len(tree) == 500

    def test_empty_bulk_load(self):
        tree = RTree(np.zeros((0, 2)))
        assert leaf_ids(tree) == []
        assert tree.read_root()[1] is None
        assert_invariants(tree, {})

    def test_node_capacity_respected(self):
        rng = np.random.default_rng(1)
        tree = RTree(rng.random((300, 2)), max_entries=8)
        assert all(len(ids) <= 8 for _, _, ids, _, _ in walk(tree))

    def test_mbbs_cover_children(self):
        rng = np.random.default_rng(2)
        points = rng.random((400, 3))
        tree = RTree(points)
        lower, upper = tree.pages["lower"], tree.pages["upper"]
        for page, is_leaf, ids, corners, _ in walk(tree):
            inner_lower = corners if is_leaf else lower[ids]
            assert np.all(lower[page] <= inner_lower + 1e-12)
            assert np.all(upper[page] >= corners - 1e-12)

    def test_height_grows_logarithmically(self):
        rng = np.random.default_rng(3)
        tree = RTree(rng.random((1000, 2)), max_entries=16)
        assert 2 <= tree.height() <= 4

    def test_rejects_bad_shape(self):
        with pytest.raises(InvalidDatasetError):
            RTree(np.zeros(10))

    def test_rejects_small_capacity(self):
        with pytest.raises(InvalidDatasetError):
            RTree(max_entries=2)


class TestInsertion:
    def test_incremental_insert_contains_all(self):
        rng = np.random.default_rng(4)
        points = rng.random((200, 2))
        tree = RTree(max_entries=8)
        tree.values = points
        for index, point in enumerate(points):
            tree.insert(index, point)
        assert leaf_ids(tree) == list(range(200))

    def test_insert_after_bulk_load(self):
        rng = np.random.default_rng(5)
        points = rng.random((101, 3))
        tree = RTree(points[:100])
        tree.values = points  # the record buffer grew by the new row
        tree.insert(100, points[100])
        assert 100 in leaf_ids(tree)
        assert len(tree) == 101

    def test_enlargement_tie_goes_to_the_smaller_leaf(self):
        # Both leaves contain the new point (zero enlargement each); the
        # descent must pick the smaller-volume one, the later child here.
        points = np.array([(0.0, 0.0), (0.1, 1.0), (0.5, 0.0), (0.5, 1.0),
                           (0.5, 0.4), (0.5, 0.6), (0.6, 0.4), (0.6, 0.6), (0.5, 0.5)])
        tree = RTree(points[:8], max_entries=5)
        tree.values = points
        _, leaves, _ = tree.read_node(0)
        tree.insert(8, points[8])
        assert [tree.read_node(leaf)[1] for leaf in leaves] == [[0, 1, 2, 3], [4, 5, 6, 7, 8]]

    def test_split_seeds_are_the_first_most_wasteful_pair(self):
        # Points 0-1 and 2-3 are opposite corners of the same unit square, so
        # both pairs waste its whole area; the first pair in row-major order
        # seeds the two groups.
        points = np.array([(0.0, 0.0), (1.0, 1.0), (0.0, 1.0), (1.0, 0.0)])
        assert _quadratic_split(points, points, 2) == ([0, 2], [1, 3])

    def test_split_tie_joins_the_smaller_group(self):
        # Seeds 0 and 1; 2 joins seed 0.  Point 3 then enlarges either group's
        # box by 25: it must go to the smaller group, seed 1's.
        points = np.array([(0.0, 0.0), (10.0, 10.0), (0.0, 1.0),
                           (5.0, 5.0), (1.0, 0.0), (10.0, 9.0)])
        assert _quadratic_split(points, points, 2) == ([0, 2, 4], [1, 3, 5])

    def test_insert_dimension_mismatch(self):
        tree = RTree(np.random.default_rng(0).random((10, 2)))
        with pytest.raises(InvalidDatasetError):
            tree.insert(10, [0.1, 0.2, 0.3])

    def test_insert_keeps_mbbs_consistent(self):
        rng = np.random.default_rng(6)
        tree = RTree(max_entries=6)
        points = rng.random((150, 2))
        tree.values = points
        for index, point in enumerate(points):
            tree.insert(index, point)
        assert tree.height() >= 3  # root splits moved the old roots off page 0
        assert_invariants(tree, dict(enumerate(points)))


class TestDelete:
    def test_delete_and_reinsert_roundtrip(self):
        rng = np.random.default_rng(10)
        points = rng.random((120, 3))
        tree = RTree(points, max_entries=6)
        for index in range(0, 120, 2):
            tree.delete(index, points[index])
        assert_invariants(tree, {i: points[i] for i in range(1, 120, 2)})
        for index in range(0, 120, 2):
            tree.insert(index, points[index])
        assert_invariants(tree, {i: points[i] for i in range(120)})

    def test_delete_without_point_hint(self):
        rng = np.random.default_rng(11)
        points = rng.random((50, 2))
        tree = RTree(points, max_entries=5)
        tree.delete(17)
        assert 17 not in leaf_ids(tree)
        assert len(tree) == 49

    def test_delete_missing_raises(self):
        tree = RTree(np.random.default_rng(0).random((20, 2)))
        with pytest.raises(KeyError):
            tree.delete(99)
        tree.delete(5)
        with pytest.raises(KeyError):  # already gone
            tree.delete(5)

    def test_wrong_point_hint_still_deletes(self):
        rng = np.random.default_rng(12)
        points = rng.random((40, 2))
        tree = RTree(points, max_entries=5)
        tree.delete(3, np.array([99.0, 99.0]))  # hint misses; falls back to a scan
        assert 3 not in leaf_ids(tree)

    def test_delete_everything_leaves_an_empty_tree(self):
        rng = np.random.default_rng(13)
        points = rng.random((64, 2))
        tree = RTree(points, max_entries=5)
        for index in rng.permutation(64):
            tree.delete(int(index), points[index])
        assert len(tree) == 0
        assert leaf_ids(tree) == []
        assert_invariants(tree, {})
        tree.insert(7, points[7])  # the empty tree accepts new records again
        assert leaf_ids(tree) == [7]

    def test_condense_reinserts_orphans_in_depth_first_order(self):
        # Deleting 2 leaves its leaf [4, 2, 5] below min_entries=3: the leaf
        # is dissolved and 4, then 5, re-inserted.  4 joins the first leaf;
        # 5 overflows the last one, whose split takes the freed page 2 back.
        points = np.array([(i / 10, (i % 3) / 10) for i in range(11)])
        tree = RTree(points, max_entries=5, min_entries=3)
        assert [ids for _, _, ids, _, _ in structure(tree)] == [
            [1, 2, 3], [6, 7, 8, 9, 10], [4, 2, 5], [0, 3, 1]]
        tree.delete(2, points[2])
        assert structure(tree) == [
            (0, False, [1, 3, 2], [0.0, 0.0], [1.0, 0.2]),
            (2, True, [5, 7, 8], [0.5, 0.1], [0.8, 0.2]),
            (3, True, [9, 6, 10], [0.6, 0.0], [1.0, 0.1]),
            (1, True, [0, 3, 1, 4], [0.0, 0.0], [0.4, 0.1]),
        ]
        assert_invariants(tree, {i: points[i] for i in range(11) if i != 2})


class TestInvariantProperties:
    @common_settings
    @given(
        seed=st.integers(0, 10_000),
        count=st.integers(1, 120),
        max_entries=st.sampled_from([4, 5, 8, 16]),
        dim=st.integers(2, 4),
    )
    def test_incremental_insert_invariants(self, seed, count, max_entries, dim):
        rng = np.random.default_rng(seed)
        points = rng.random((count, dim))
        tree = RTree(max_entries=max_entries)
        tree.values = points
        for index, point in enumerate(points):
            tree.insert(index, point)
        assert_invariants(tree, {i: points[i] for i in range(count)})

    @common_settings
    @given(
        seed=st.integers(0, 10_000),
        count=st.integers(1, 200),
        max_entries=st.sampled_from([4, 5, 8, 16]),
    )
    def test_bulk_load_invariants(self, seed, count, max_entries):
        rng = np.random.default_rng(seed)
        points = rng.random((count, 3))
        tree = RTree(points, max_entries=max_entries)
        assert_invariants(tree, {i: points[i] for i in range(count)})

    @common_settings
    @given(
        seed=st.integers(0, 10_000),
        count=st.integers(4, 120),
        max_entries=st.sampled_from([4, 8, 16]),
        hint=st.booleans(),
    )
    def test_interleaved_insert_delete_invariants(self, seed, count, max_entries, hint):
        rng = np.random.default_rng(seed)
        points = rng.random((count, 3))
        split = count // 2
        tree = RTree(points[:split], max_entries=max_entries) if split else RTree(
            max_entries=max_entries
        )
        tree.values = points
        alive = {i: points[i] for i in range(split)}
        next_index = split
        for _ in range(count):
            if alive and rng.random() < 0.45:
                victim = int(rng.choice(list(alive)))
                point = alive.pop(victim)
                tree.delete(victim, point if hint else None)
            elif next_index < count:
                tree.insert(next_index, points[next_index])
                alive[next_index] = points[next_index]
                next_index += 1
        assert_invariants(tree, alive)
        # Down to an empty tree (root shrinks at page 0) and back up again
        # (root splits at page 0), reusing the freed pages.
        survivors = sorted(alive)
        for victim in rng.permutation(survivors):
            tree.delete(int(victim), points[victim] if hint else None)
            del alive[int(victim)]
        assert_invariants(tree, alive)
        for index in survivors:
            tree.insert(index, points[index])
            alive[index] = points[index]
        assert_invariants(tree, alive)
