"""Tests for the generic, node-at-a-time BBS branch-and-bound traversal.

Besides unit checks of the traversal contract, an exactness suite runs the
r-skyband and the traditional k-skyband over one R-tree's pages in three
backing memories — the heap tree, its pages attached from a shared-memory
segment, and its pages in a file read through a two-frame buffer pool —
after a random insert/delete stream, and requires the same answer as the
per-element reference traversal (``helpers.bbs_candidates_loop``) followed
by the same exact finalize pass, and as brute force wherever the
brute-force path applies.
"""

import numpy as np
import pytest
from helpers import bbs_candidates_loop, trees_over
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.workloads import random_region
from repro.colstore.pages import PagedRTree
from repro.core.dominance import RDominance
from repro.core.preference import scores
from repro.core.region import Region
from repro.core.rskyband import compute_r_skyband, skyband_from_candidates
from repro.datasets.synthetic import synthetic_dataset
from repro.index.rtree import RTree
from repro.kernels.dominance import dominance_matrix, dominators_mask
from repro.skyline.bbs import bbs_candidates
from repro.skyline.dominance import k_skyband_bruteforce
from repro.skyline.skyband import k_skyband


def traditional_counts(rows, members):
    geq = np.all(members[None, :, :] >= rows[:, None, :] - 1e-9, axis=2)
    gt = np.any(members[None, :, :] > rows[:, None, :] + 1e-9, axis=2)
    return (geq & gt).sum(axis=1)


def traditional_dominators(point, members):
    """The single-probe form the per-element traversal calls."""
    geq = np.all(members >= point - 1e-9, axis=1)
    gt = np.any(members > point + 1e-9, axis=1)
    return geq & gt


def coordinate_sum(rows):
    return rows.sum(axis=1)


def run(tree, k):
    return bbs_candidates(tree, k, key=coordinate_sum, dominator_counts=traditional_counts)


class CountingReads:
    """Wraps a tree and counts its ``read_node`` calls."""

    def __init__(self, tree):
        self.tree = tree
        self.dimension = tree.dimension
        self.reads = 0

    def read_root(self):
        return self.tree.read_root()

    def read_node(self, handle):
        self.reads += 1
        return self.tree.read_node(handle)

    def count_access(self, op, n=1):
        self.tree.count_access(op, n)


class TestTraversal:
    @pytest.mark.parametrize("seed,k", [(0, 1), (1, 2), (2, 4)])
    def test_candidates_superset_of_skyband(self, seed, k):
        rng = np.random.default_rng(seed)
        values = rng.random((600, 3))
        tree = RTree(values)
        indices, rows, stats = run(tree, k)
        skyband = set(k_skyband_bruteforce(values, k).tolist())
        assert skyband.issubset(set(indices.tolist()))
        assert stats.candidate_count == len(indices)
        assert np.array_equal(rows, values[indices])

    def test_prunes_most_of_the_data(self):
        rng = np.random.default_rng(3)
        values = rng.random((2000, 2))
        tree = RTree(values)
        indices, _, stats = run(tree, 2)
        assert len(indices) < 200
        assert stats.records_pruned + stats.nodes_pruned > 0

    def test_empty_tree(self):
        tree = RTree(np.zeros((0, 3)))
        indices, rows, stats = run(tree, 1)
        assert indices.size == 0 and rows.shape == (0, 3)
        assert stats.candidate_count == 0

    def test_pop_order_is_monotone_in_key(self):
        rng = np.random.default_rng(4)
        values = rng.random((300, 2))
        tree = RTree(values)
        indices, _, _ = run(tree, 3)
        keys = [float(np.sum(values[i])) for i in indices]
        assert all(a >= b - 1e-9 for a, b in zip(keys, keys[1:]))

    def test_statistics_counts_consistent(self):
        rng = np.random.default_rng(5)
        values = rng.random((500, 3))
        tree = CountingReads(RTree(values))
        _, _, stats = run(tree, 2)
        assert stats.records_visited <= 500
        assert stats.heap_pushes >= stats.records_visited
        # Only expanded nodes are read; pruned ones never are.
        assert tree.reads == stats.nodes_visited
        assert tree.tree.access_counts["search"] == stats.nodes_visited

    @pytest.mark.parametrize("seed,k", [(6, 1), (7, 3), (8, 6)])
    def test_matches_the_per_element_traversal(self, seed, k):
        # Same candidates in the same pop order; never more nodes expanded.
        values = np.round(np.random.default_rng(seed).random((800, 3)), 2)
        tree = RTree(values, max_entries=8)
        indices, _, stats = run(tree, k)
        loop_indices, _, loop_stats = bbs_candidates_loop(
            tree,
            k,
            key=lambda point: float(np.sum(point)),
            dominators_of=traditional_dominators,
        )
        assert indices.tolist() == loop_indices
        assert stats.records_visited == loop_stats.records_visited - loop_stats.records_pruned
        assert stats.nodes_visited <= loop_stats.nodes_visited


# ---------------------------------------------------------------- exactness


def assert_pool_balanced(tree):
    if isinstance(tree, PagedRTree):
        pool = tree.pool
        assert pool.pinned() == 0
        assert pool.resident() == pool.stats["misses"] - pool.stats["evictions"]


def loop_r_skyband(rtree, values, region, k):
    """The per-element traversal plus the library's exact finalize pass."""
    tester = RDominance(region)
    pivot = region.pivot
    indices, rows, _ = bbs_candidates_loop(
        rtree,
        k,
        key=lambda point: float(scores(point.reshape(1, -1), pivot)[0]),
        dominators_of=lambda point, members: tester.dominators_mask(point[None], members)[0],
    )
    if not indices:
        return np.zeros(0, dtype=int), np.zeros((0, 0), dtype=bool)
    skyband = skyband_from_candidates(np.asarray(indices), np.vstack(rows), region, k)
    return skyband.indices, skyband.adjacency


def loop_k_skyband(rtree, k):
    indices, rows, _ = bbs_candidates_loop(
        rtree,
        k,
        key=lambda point: float(np.sum(point)),
        dominators_of=lambda point, members: dominators_mask(point[None], members)[0],
    )
    if not indices:
        return np.zeros(0, dtype=int)
    counts = dominance_matrix(np.vstack(rows)).sum(axis=0)
    return np.sort(np.asarray(indices)[counts < k])


@st.composite
def skyband_inputs(draw):
    """Dataset, region and ``k`` — with duplicate, rounded rows half the time."""
    d = draw(st.integers(min_value=2, max_value=6))
    n = draw(st.sampled_from((0, 1, 30, 200, 600, 900)))
    distribution = draw(st.sampled_from(("IND", "ANTI", "COR")))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    values = np.array(synthetic_dataset(distribution, max(n, 1), d, seed=seed).values[:n])
    if n and draw(st.booleans()):
        rng = np.random.default_rng(seed)
        copies = rng.integers(0, n, size=n // 3)
        values[rng.integers(0, n, size=n // 3)] = values[copies]
        values = np.round(values, 2)
    side = draw(st.floats(min_value=0.002, max_value=0.08))
    region = random_region(d, side, np.random.default_rng(seed + 1))
    k = draw(st.integers(min_value=1, max_value=10))
    fanout = draw(st.sampled_from((4, 8, 16)))
    return values, region, k, fanout


EXACTNESS = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestExactness:
    @EXACTNESS
    @given(skyband_inputs())
    def test_r_skyband_matches_loop_traversal_and_brute_force(self, case):
        values, region, k, fanout = case
        with trees_over(values, fanout) as (rtree, trees):
            expected_indices, expected_adjacency = loop_r_skyband(rtree, values, region, k)
            brute = compute_r_skyband(values, region, k) if values.shape[0] <= 512 else None
            for name, tree in trees.items():
                skyband = compute_r_skyband(values, region, k, tree=tree)
                assert skyband.indices.tolist() == expected_indices.tolist(), name
                assert np.array_equal(skyband.adjacency, expected_adjacency), name
                if brute is not None:
                    assert skyband.indices.tolist() == brute.indices.tolist(), name
                    assert np.array_equal(skyband.adjacency, brute.adjacency), name
                assert_pool_balanced(tree)

    @EXACTNESS
    @given(skyband_inputs())
    def test_k_skyband_matches_loop_traversal_and_brute_force(self, case):
        values, _, k, fanout = case
        with trees_over(values, fanout) as (rtree, trees):
            expected = loop_k_skyband(rtree, k)
            brute = k_skyband_bruteforce(values, k)
            for name, tree in trees.items():
                members = k_skyband(values, k, tree=tree)
                assert members.tolist() == expected.tolist(), name
                assert members.tolist() == brute.tolist(), name
                assert_pool_balanced(tree)

    def test_empty_tree(self):
        values = np.zeros((0, 3))
        region = random_region(3, 0.05, np.random.default_rng(0))
        with trees_over(values, 4) as (_, trees):
            for name, tree in trees.items():
                assert compute_r_skyband(values, region, 2, tree=tree).size == 0, name
                assert k_skyband(values, 2, tree=tree).size == 0, name
                assert_pool_balanced(tree)

    def test_region_without_vertices(self):
        # Pairwise LP tests instead of vertex scores; correct, not fast.
        values = np.round(np.random.default_rng(12).random((40, 3)), 2)
        region = Region(np.vstack([np.eye(2), -np.eye(2)]), np.array([0.3, 0.3, -0.25, -0.25]))
        assert region.vertices is None
        with trees_over(values, 4) as (rtree, trees):
            expected_indices, expected_adjacency = loop_r_skyband(rtree, values, region, 2)
            brute = compute_r_skyband(values, region, 2)
            assert brute.indices.tolist() == expected_indices.tolist()
            for name, tree in trees.items():
                skyband = compute_r_skyband(values, region, 2, tree=tree)
                assert skyband.indices.tolist() == expected_indices.tolist(), name
                assert np.array_equal(skyband.adjacency, expected_adjacency), name
                assert_pool_balanced(tree)
