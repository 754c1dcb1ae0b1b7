"""Unit tests for preference regions."""

import numpy as np
import pytest

from repro.core.region import (
    Region,
    hyperrectangle,
    region_from_vertices,
    simplex_region,
)
from repro.exceptions import InvalidRegionError
from repro.geometry.linear_programming import chebyshev_center


class TestHyperrectangle:
    def test_vertices_of_square(self):
        region = hyperrectangle([0.1, 0.2], [0.3, 0.4])
        assert region.vertices.shape == (4, 2)
        assert region.dimension == 2

    def test_pivot_is_centre(self):
        region = hyperrectangle([0.1, 0.2], [0.3, 0.4])
        assert np.allclose(region.pivot, [0.2, 0.3])

    def test_contains(self):
        region = hyperrectangle([0.1], [0.3])
        assert region.contains([0.2])
        assert region.contains([0.1])
        assert not region.contains([0.35])

    def test_rejects_inverted_bounds(self):
        with pytest.raises(InvalidRegionError):
            hyperrectangle([0.3], [0.1])

    def test_rejects_mismatched_corners(self):
        with pytest.raises(InvalidRegionError):
            hyperrectangle([0.1, 0.2], [0.3])

    def test_rejects_region_outside_simplex(self):
        with pytest.raises(InvalidRegionError):
            hyperrectangle([0.7, 0.7], [0.9, 0.9])  # weight sum exceeds 1

    def test_rejects_negative_weights(self):
        with pytest.raises(InvalidRegionError):
            hyperrectangle([-0.2, 0.1], [0.3, 0.2])

    def test_validation_can_be_disabled(self):
        region = hyperrectangle([0.7, 0.7], [0.9, 0.9], validate=False)
        assert region.contains([0.8, 0.8])

    def test_linear_min_max(self):
        region = hyperrectangle([0.1, 0.2], [0.3, 0.5])
        coef = np.array([1.0, -1.0])
        assert region.linear_min(coef) == pytest.approx(0.1 - 0.5)
        assert region.linear_max(coef) == pytest.approx(0.3 - 0.2)

    def test_inradius_of_square(self):
        region = hyperrectangle([0.1, 0.1], [0.3, 0.3])
        assert region.inradius == pytest.approx(0.1, abs=1e-6)

    def test_inscribed_ball_matches_the_chebyshev_lp(self):
        # The LP optimum is the smallest half-width, and the box centre sits
        # at least that deep.  On a non-cube box the LP's centre is not
        # unique, so the centres are not compared.
        rng = np.random.default_rng(5)
        for dim in (1, 2, 3, 4):
            for _ in range(25):
                lower = rng.uniform(0.0, 0.15, size=dim)
                upper = lower + rng.uniform(1e-4, 0.08, size=dim)
                region = hyperrectangle(lower, upper)
                a, b = region.constraints
                _centre, radius = chebyshev_center(a, b, dim=dim)
                assert region.inradius == pytest.approx(radius, rel=1e-9)
                depth = b - a @ region.interior_point
                assert np.all(depth >= region.inradius * (1.0 - 1e-12))

    def test_box_solves_no_lp(self, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("Chebyshev LP solved")

        monkeypatch.setattr("repro.core.region.chebyshev_center", refuse)
        region = hyperrectangle([0.1, 0.2], [0.3, 0.25])
        assert region.inradius == pytest.approx(0.025)
        with pytest.raises(AssertionError, match="Chebyshev LP solved"):
            Region(*region.constraints)  # every other constructor solves it

    def test_sample_points_inside(self):
        region = hyperrectangle([0.05, 0.05], [0.45, 0.25])
        rng = np.random.default_rng(0)
        for point in region.sample(100, rng):
            assert region.contains(point, tol=1e-9)

    def test_sample_zero_count(self):
        region = hyperrectangle([0.1], [0.2])
        assert region.sample(0).shape == (0, 1)


class TestSimplexRegion:
    def test_full_domain(self):
        region = simplex_region(2)
        assert region.contains([0.0, 0.0])
        assert region.contains([1.0, 0.0])
        assert region.contains([0.3, 0.3])
        assert not region.contains([0.7, 0.7])

    def test_margin(self):
        region = simplex_region(2, margin=0.1)
        assert not region.contains([0.0, 0.0])
        assert region.contains([0.2, 0.2])

    def test_rejects_zero_dimension(self):
        with pytest.raises(InvalidRegionError):
            simplex_region(0)


class TestRegionFromVertices:
    def test_one_dimensional(self):
        region = region_from_vertices([[0.2], [0.6], [0.4]])
        assert region.contains([0.3])
        assert not region.contains([0.7])
        assert region.linear_max([1.0]) == pytest.approx(0.6)

    def test_triangle(self):
        region = region_from_vertices([[0.1, 0.1], [0.4, 0.1], [0.1, 0.4]])
        assert region.contains([0.2, 0.2])
        assert not region.contains([0.4, 0.4])

    def test_degenerate_vertices_raise(self):
        with pytest.raises(InvalidRegionError):
            region_from_vertices([[0.1, 0.1], [0.1, 0.1], [0.1, 0.1]])

    def test_needs_two_vertices(self):
        with pytest.raises(InvalidRegionError):
            region_from_vertices([[0.5, 0.5]])


class TestRegionGeneral:
    def test_empty_region_rejected(self):
        a = [[1.0], [-1.0]]
        b = [0.1, -0.2]  # u <= 0.1 and u >= 0.2
        with pytest.raises(InvalidRegionError):
            Region(a, b)

    def test_constraint_shape_mismatch(self):
        with pytest.raises(InvalidRegionError):
            Region([[1.0, 0.0]], [0.5, 0.3])

    def test_vertex_dimension_mismatch(self):
        with pytest.raises(InvalidRegionError):
            Region([[1.0], [-1.0]], [0.4, -0.1], vertices=[[0.1, 0.2]])

    def test_interior_point_inside(self):
        region = hyperrectangle([0.05, 0.05], [0.45, 0.25])
        assert region.contains(region.interior_point)

    def test_linear_min_without_vertices_uses_lp(self):
        a = np.vstack([np.eye(2), -np.eye(2)])
        b = np.array([0.4, 0.3, -0.1, -0.1])
        region = Region(a, b)  # no vertices supplied
        assert region.vertices is None
        assert region.linear_min([1.0, 0.0]) == pytest.approx(0.1, abs=1e-8)
        assert region.linear_max([1.0, 1.0]) == pytest.approx(0.7, abs=1e-8)

    def test_sample_without_vertices(self):
        a = np.vstack([np.eye(2), -np.eye(2)])
        b = np.array([0.4, 0.3, -0.1, -0.1])
        region = Region(a, b)
        rng = np.random.default_rng(1)
        for point in region.sample(50, rng):
            assert region.contains(point, tol=1e-9)
