"""Tests for plain top-k query processing."""

import numpy as np
import pytest
from helpers import trees_over

from repro.core.preference import scores
from repro.exceptions import InvalidQueryError
from repro.index.rtree import RTree
from repro.queries.topk import (
    incremental_top_k_until,
    top_k,
    top_k_indices,
    top_k_rtree,
)


class TestScanTopK:
    def test_matches_manual_ranking(self):
        rng = np.random.default_rng(0)
        values = rng.random((100, 3))
        weights = np.array([0.3, 0.2])
        expected = np.argsort(-scores(values, weights))[:5]
        assert top_k_indices(values, weights, 5) == [int(i) for i in expected]

    def test_scores_are_descending(self):
        rng = np.random.default_rng(1)
        values = rng.random((50, 3))
        result = top_k(values, np.array([0.4, 0.3]), 10)
        scores_only = [score for _, score in result]
        assert scores_only == sorted(scores_only, reverse=True)

    def test_k_larger_than_dataset(self):
        values = np.random.default_rng(2).random((5, 2))
        assert len(top_k_indices(values, np.array([0.5]), 50)) == 5

    def test_rejects_nonpositive_k(self):
        with pytest.raises(InvalidQueryError):
            top_k_indices(np.zeros((3, 2)), np.array([0.5]), 0)

    def test_tie_break_by_index(self):
        values = np.array([[2.0, 2.0], [2.0, 2.0], [1.0, 1.0]])
        assert top_k_indices(values, np.array([0.5]), 1) == [0]


class TestRTreeTopK:
    @pytest.mark.parametrize("seed,k", [(0, 1), (1, 5), (2, 20)])
    def test_matches_scan(self, seed, k):
        rng = np.random.default_rng(seed)
        values = rng.random((400, 3))
        tree = RTree(values)
        weights = rng.dirichlet(np.ones(3))[:2]
        via_tree = [index for index, _ in top_k_rtree(tree, weights, k)]
        via_scan = top_k_indices(values, weights, k)
        assert set(via_tree) == set(via_scan)
        tree_scores = scores(values[via_tree], weights)
        scan_scores = scores(values[via_scan], weights)
        assert np.allclose(np.sort(tree_scores), np.sort(scan_scores))

    def test_empty_tree(self):
        tree = RTree(np.zeros((0, 2)))
        assert top_k_rtree(tree, np.array([0.5]), 3) == []

    @pytest.mark.parametrize("k", [1, 7, 40])
    def test_every_tree_layout_matches_full_scan(self, k):
        values = np.round(np.random.default_rng(8).random((500, 3)), 2)
        weights = np.array([0.2, 0.45])
        expected = top_k(values, weights, k)
        with trees_over(values, 8) as (_, layouts):
            for name, layout in layouts.items():
                result = top_k_rtree(layout, weights, k)
                # Rounded values tie; the scores agree exactly, the ids up to ties.
                assert [score for _, score in result] == pytest.approx(
                    [score for _, score in expected], abs=1e-12
                ), name
                cutoff = expected[-1][1]
                above = {index for index, score in expected if score > cutoff + 1e-12}
                assert above <= {index for index, _ in result}, name
            assert layouts["file"].pool.pinned() == 0

    def test_rejects_nonpositive_k(self):
        tree = RTree(np.random.default_rng(0).random((10, 2)))
        with pytest.raises(InvalidQueryError):
            top_k_rtree(tree, np.array([0.5]), 0)


class TestIncrementalTopK:
    def test_stops_when_target_covered(self):
        rng = np.random.default_rng(3)
        values = rng.random((200, 3))
        weights = np.array([0.3, 0.3])
        base = set(top_k_indices(values, weights, 5))
        needed, output = incremental_top_k_until(values, weights, 5, base)
        assert needed == 5
        assert base.issubset(set(output))

    def test_target_beyond_base_k(self):
        rng = np.random.default_rng(4)
        values = rng.random((200, 3))
        weights = np.array([0.3, 0.3])
        ranked = top_k_indices(values, weights, 50)
        target = {ranked[30]}
        needed, output = incremental_top_k_until(values, weights, 5, target)
        assert needed == 31
        assert len(output) == 31

    def test_never_below_original_k(self):
        rng = np.random.default_rng(5)
        values = rng.random((50, 2))
        weights = np.array([0.5])
        needed, output = incremental_top_k_until(values, weights, 10, set())
        assert needed == 10 and len(output) == 10

    def test_unreachable_target_caps_at_dataset(self):
        values = np.random.default_rng(6).random((20, 2))
        needed, output = incremental_top_k_until(values, np.array([0.5]), 3, {999})
        assert needed == 20 and len(output) == 20

    def test_max_k_cap(self):
        values = np.random.default_rng(7).random((100, 2))
        needed, output = incremental_top_k_until(values, np.array([0.5]), 3, {999}, max_k=10)
        assert needed == 10 and len(output) == 10
