"""Unit tests for traditional dominance and r-dominance."""

import numpy as np
import pytest

from repro.core.dominance import (
    RDominance,
    dominance_counts,
    dominates,
    r_dominates,
)
from repro.core.preference import scores
from repro.core.region import Region, hyperrectangle


class TestTraditionalDominance:
    def test_strict_dominance(self):
        assert dominates([2.0, 3.0], [1.0, 2.0])
        assert not dominates([1.0, 2.0], [2.0, 3.0])

    def test_equal_records_do_not_dominate(self):
        assert not dominates([1.0, 1.0], [1.0, 1.0])

    def test_partial_improvement_is_not_dominance(self):
        assert not dominates([2.0, 1.0], [1.0, 2.0])

    def test_dominance_with_one_equal_attribute(self):
        assert dominates([2.0, 2.0], [2.0, 1.0])

    def test_dominance_counts(self):
        values = np.array([[3.0, 3.0], [2.0, 2.0], [1.0, 1.0], [3.0, 0.5]])
        counts = dominance_counts(values)
        # The last record equals the first on attribute 1 and is worse on
        # attribute 2, so it is dominated by it (and only by it).
        assert counts.tolist() == [0, 1, 2, 1]


class TestRDominance:
    def test_traditional_dominance_implies_r_dominance(self):
        region = hyperrectangle([0.1, 0.1], [0.4, 0.3])
        assert r_dominates([5.0, 5.0, 5.0], [4.0, 4.0, 4.0], region)

    def test_incomparable_records_can_be_r_comparable(self):
        # p has a slightly lower first attribute but is much better elsewhere;
        # restricted to low weight on attribute 1 it always wins.
        region = hyperrectangle([0.01, 0.01], [0.05, 0.05])
        p = [4.0, 9.0, 9.0]
        q = [9.0, 4.0, 4.0]
        assert not dominates(p, q)
        assert r_dominates(p, q, region)
        assert not r_dominates(q, p, region)

    def test_r_incomparable_pair(self):
        region = hyperrectangle([0.2, 0.2], [0.6, 0.3])
        p = [9.0, 1.0, 5.0]
        q = [1.0, 9.0, 5.0]
        assert not r_dominates(p, q, region)
        assert not r_dominates(q, p, region)

    def test_matches_score_comparison_on_samples(self):
        rng = np.random.default_rng(3)
        region = hyperrectangle([0.1, 0.2], [0.3, 0.4])
        samples = region.sample(500, rng)
        for _ in range(30):
            p, q = rng.random(3) * 10, rng.random(3) * 10
            expected = bool(np.all(scores(np.vstack([p, q]), samples)[:, 0]
                                   >= scores(np.vstack([p, q]), samples)[:, 1]))
            got = r_dominates(p, q, region)
            # r-dominance is decided on the vertices: it must imply dominance
            # on every sampled interior point.
            if got:
                assert expected

    def test_region_without_vertices_uses_lp(self):
        a = np.vstack([np.eye(2), -np.eye(2)])
        b = np.array([0.4, 0.3, -0.1, -0.1])
        region = Region(a, b)
        assert r_dominates([5.0, 5.0, 5.0], [1.0, 1.0, 1.0], region)
        assert not r_dominates([1.0, 1.0, 1.0], [5.0, 5.0, 5.0], region)


class TestRDominanceBatch:
    @pytest.fixture
    def region(self):
        return hyperrectangle([0.05, 0.05], [0.45, 0.25])

    def test_matrix_matches_pairwise(self, region):
        rng = np.random.default_rng(4)
        values = rng.random((20, 3)) * 10
        helper = RDominance(region)
        matrix = helper.dominance_matrix(values)
        for i in range(20):
            for j in range(20):
                if i == j:
                    assert not matrix[i, j]
                else:
                    assert matrix[i, j] == r_dominates(values[i], values[j], region)

    def test_matrix_diagonal_false(self, region):
        values = np.random.default_rng(5).random((10, 3))
        matrix = RDominance(region).dominance_matrix(values)
        assert not matrix.diagonal().any()

    def test_matrix_antisymmetric(self, region):
        values = np.random.default_rng(6).random((15, 3))
        matrix = RDominance(region).dominance_matrix(values)
        assert not np.any(matrix & matrix.T)

    def test_transitivity(self, region):
        rng = np.random.default_rng(7)
        values = rng.random((25, 3)) * 5
        matrix = RDominance(region).dominance_matrix(values)
        n = values.shape[0]
        for i in range(n):
            for j in range(n):
                if not matrix[i, j]:
                    continue
                for m in range(n):
                    if matrix[j, m]:
                        assert matrix[i, m], "r-dominance must be transitive"

    def test_dominators_mask_matches_matrix(self, region):
        rng = np.random.default_rng(8)
        values = rng.random((12, 3)) * 10
        helper = RDominance(region)
        # Row i of the batch mask marks the members r-dominating record i:
        # column i of the pairwise matrix, so never the record itself.
        mask = helper.dominators_mask(values, values)
        assert np.array_equal(mask, helper.dominance_matrix(values).T)
        assert not mask.diagonal().any()
        # The converse direction is the same call with the roles swapped.
        assert np.array_equal(
            helper.dominators_mask(values, values[:1])[:, 0], helper.dominance_matrix(values)[0]
        )

    def test_dominators_mask_without_vertices_uses_lp(self):
        region = Region(np.vstack([np.eye(2), -np.eye(2)]), np.array([0.4, 0.3, -0.1, -0.1]))
        rows = np.array([[5.0, 5.0, 5.0], [1.0, 1.0, 1.0], [3.0, 3.0, 3.0]])
        mask = RDominance(region).dominators_mask(rows, rows[:2])
        expected = [[r_dominates(member, row, region) for member in rows[:2]] for row in rows]
        assert mask.tolist() == expected
        assert mask.tolist() == [[False, False], [True, False], [True, False]]

    def test_dominance_counts(self, region):
        values = np.array([[9.0, 9.0, 9.0], [8.0, 8.0, 8.0], [1.0, 1.0, 1.0],])
        counts = RDominance(region).dominance_counts(values)
        assert counts.tolist() == [0, 1, 2]

    def test_empty_pool(self, region):
        helper = RDominance(region)
        assert helper.dominators_mask(np.ones((2, 3)), np.zeros((0, 3))).shape == (2, 0)
        assert helper.dominators_mask(np.zeros((0, 3)), np.ones((2, 3))).shape == (0, 2)
        assert helper.dominance_matrix(np.zeros((0, 3))).shape == (0, 0)
