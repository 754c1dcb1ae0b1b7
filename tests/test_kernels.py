"""Property-based agreement tests for the vectorized kernel layer.

Every kernel in :mod:`repro.kernels` is checked three ways:

* against its ``*_loop`` reference (the per-record path it replaced), which
  must agree *bit-for-bit* — both run the same elementwise float operations;
* against the deliberately scalar, per-pair oracles in :mod:`helpers`, which
  share no broadcasting code with the kernels;
* on engineered degenerate inputs with ties at exactly ``±tol``.

Hypothesis drives sizes, dimensionalities, tolerances, and tie injection;
values are drawn from coarse grids so exact ties arise constantly.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from helpers import (
    oracle_dominance_counts,
    oracle_dominance_matrix,
    oracle_dominators_mask,
    oracle_halfspace_values,
    oracle_r_dominance_matrix,
    oracle_r_dominators_mask,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.preference import scores
from repro.core.region import hyperrectangle
from repro.core.rskyband import compute_r_skyband
from repro.kernels import halfspace as halfspace_kernels
from repro.kernels import (
    dominance_counts,
    dominance_counts_loop,
    dominance_matrix,
    dominance_matrix_loop,
    dominators_mask,
    dominators_mask_loop,
    evaluate_halfspaces,
    evaluate_halfspaces_loop,
    halfspace_coefficients,
    halfspace_coefficients_loop,
    r_dominance_matrix,
    r_dominance_matrix_loop,
    r_dominators_mask,
    r_dominators_mask_loop,
    vertex_scores,
)

TOLERANCES = (0.0, 1e-9, 1e-6, 1e-3, 0.05)

COMMON = settings(max_examples=40, deadline=None)


@st.composite
def dominance_case(draw):
    """Random ``(values, tol, block)`` with engineered ties at exactly ±tol."""
    n = draw(st.integers(min_value=0, max_value=24))
    d = draw(st.integers(min_value=1, max_value=5))
    tol = draw(st.sampled_from(TOLERANCES))
    grid = draw(st.sampled_from((4, 8, 64)))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    block = draw(st.sampled_from((None, 1, 3)))
    rng = np.random.default_rng(seed)
    values = rng.integers(0, grid, size=(n, d)).astype(float) / grid
    if n >= 4:
        values[1] = values[0]
        values[2] = values[0] + tol
        values[3] = values[0] - tol
    return values, tol, block


@st.composite
def score_case(draw):
    """Random ``(vertex_scores, tol, block)`` with engineered tied columns."""
    n = draw(st.integers(min_value=0, max_value=20))
    v = draw(st.integers(min_value=1, max_value=6))
    tol = draw(st.sampled_from(TOLERANCES))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    block = draw(st.sampled_from((None, 2)))
    rng = np.random.default_rng(seed)
    grid = draw(st.sampled_from((4, 32)))
    matrix = rng.integers(0, grid, size=(v, n)).astype(float) / grid
    if n >= 4:
        matrix[:, 1] = matrix[:, 0]
        matrix[:, 2] = matrix[:, 0] + tol
        matrix[:, 3] = matrix[:, 0] - tol
    return matrix, tol, block


class TestDominanceKernels:
    @COMMON
    @given(dominance_case())
    def test_matrix_agrees_with_loop_and_oracle(self, case):
        values, tol, block = case
        kernel = dominance_matrix(values, tol, block=block)
        assert np.array_equal(kernel, dominance_matrix_loop(values, tol))
        assert np.array_equal(kernel, oracle_dominance_matrix(values, tol))

    @COMMON
    @given(dominance_case())
    def test_counts_agree_with_loop_and_oracle(self, case):
        values, tol, block = case
        kernel = dominance_counts(values, tol, block=block)
        assert np.array_equal(kernel, dominance_counts_loop(values, tol))
        assert np.array_equal(kernel, oracle_dominance_counts(values, tol))

    @COMMON
    @given(dominance_case())
    def test_dominators_mask_agrees(self, case):
        # Rows shifted by exactly ±tol tie with the members they came from.
        values, tol, _ = case
        rows = np.vstack([values, values + tol, values - tol])
        for members in (values, values[:0], values[:1]):
            kernel = dominators_mask(rows, members, tol)
            assert kernel.shape == (rows.shape[0], members.shape[0])
            assert np.array_equal(kernel, dominators_mask_loop(rows, members, tol))
            assert np.array_equal(kernel, oracle_dominators_mask(rows, members, tol))
        # Rows against their own pool: the transposed pairwise matrix.
        kernel = dominators_mask(values, values, tol)
        assert np.array_equal(kernel, dominance_matrix(values, tol).T)

    def test_exact_tie_semantics(self):
        # A record exactly tol better never strictly dominates; one 2*tol
        # better always does.
        tol = 1e-9
        base = np.array([0.5, 0.5])
        values = np.vstack([base, base + tol, base + 2 * tol, base])
        matrix = dominance_matrix(values, tol)
        assert not matrix[1, 0]
        assert matrix[2, 0]
        assert not matrix[0, 3] and not matrix[3, 0]
        assert np.array_equal(matrix, oracle_dominance_matrix(values, tol))
        # The batch mask draws the same line for every row at once.
        mask = dominators_mask(values[[0, 3]], values, tol)
        assert mask.tolist() == [[False, False, True, False]] * 2
        assert np.array_equal(mask, oracle_dominators_mask(values[[0, 3]], values, tol))


class TestHalfspaceKernels:
    @COMMON
    @given(dominance_case())
    def test_coefficients_agree_bitwise(self, case):
        values, _, _ = case
        if values.shape[0] < 2 or values.shape[1] < 2:
            return
        normals, offsets = halfspace_coefficients(values[0], values[1:])
        loop_normals, loop_offsets = halfspace_coefficients_loop(values[0], values[1:])
        assert np.array_equal(normals, loop_normals)
        assert np.array_equal(offsets, loop_offsets)

    @COMMON
    @given(dominance_case())
    def test_evaluation_agrees(self, case):
        values, _, _ = case
        if values.shape[0] < 2 or values.shape[1] < 2:
            return
        normals, offsets = halfspace_coefficients(values[0], values[1:])
        rng = np.random.default_rng(7)
        points = rng.random((5, values.shape[1] - 1))
        kernel = evaluate_halfspaces(normals, offsets, points)
        assert np.allclose(kernel, evaluate_halfspaces_loop(normals, offsets, points), rtol=1e-12)
        assert np.allclose(kernel, oracle_halfspace_values(normals, offsets, points), rtol=1e-12)

    @COMMON
    @given(dominance_case())
    def test_vertex_scores_match_preference_scores(self, case):
        values, _, _ = case
        if values.shape[0] == 0 or values.shape[1] < 2:
            return
        rng = np.random.default_rng(13)
        vertices = rng.random((4, values.shape[1] - 1)) * 0.2
        assert np.array_equal(vertex_scores(values, vertices), scores(values, vertices))


class TestRDominanceKernels:
    @COMMON
    @given(score_case())
    def test_matrix_agrees_with_loop_and_oracle(self, case):
        matrix, tol, block = case
        kernel = r_dominance_matrix(matrix, tol, block=block)
        assert np.array_equal(kernel, r_dominance_matrix_loop(matrix, tol))
        assert np.array_equal(kernel, oracle_r_dominance_matrix(matrix, tol))

    @COMMON
    @given(score_case())
    def test_mask_agrees_with_loop_and_oracle(self, case):
        # Columns 1-3 tie with column 0 at exactly 0 and ±tol.
        matrix, tol, _ = case
        for members in (matrix, matrix[:, :0], matrix[:, :1]):
            kernel = r_dominators_mask(matrix, members, tol)
            assert kernel.shape == (matrix.shape[1], members.shape[1])
            assert np.array_equal(kernel, r_dominators_mask_loop(matrix, members, tol))
            assert np.array_equal(kernel, oracle_r_dominators_mask(matrix, members, tol))
        # Rows against their own pool: the transposed pairwise matrix.
        kernel = r_dominators_mask(matrix, matrix, tol)
        assert np.array_equal(kernel, r_dominance_matrix(matrix, tol).T)

    def test_mask_row_blocks_agree(self):
        # A tiny broadcast budget splits the rows into blocks of one and two.
        rng = np.random.default_rng(21)
        scores_matrix = rng.integers(0, 4, size=(3, 9)).astype(float) / 4
        for cells in (3, 7):
            with mock.patch.object(halfspace_kernels, "_MASK_CELLS", cells):
                kernel = r_dominators_mask(scores_matrix, scores_matrix[:, :3], 0.0)
            assert np.array_equal(
                kernel, r_dominators_mask_loop(scores_matrix, scores_matrix[:, :3], 0.0)
            )

    def test_exact_tie_semantics(self):
        # Equal scores everywhere: no r-dominance either way; tol better
        # everywhere: still no strict dominance; 2*tol better: dominates.
        # Powers of two keep the score differences exact in floating point.
        tol = 2.0**-30
        base = np.array([0.25, 0.5, 0.75])
        scores_matrix = np.column_stack([base, base, base + tol, base + 2 * tol])
        matrix = r_dominance_matrix(scores_matrix, tol)
        assert not matrix[0, 1] and not matrix[1, 0]
        assert not matrix[2, 0]
        assert matrix[3, 0]
        assert np.array_equal(matrix, oracle_r_dominance_matrix(scores_matrix, tol))
        mask = r_dominators_mask(scores_matrix[:, :1], scores_matrix, tol)
        assert mask.tolist() == [[False, False, False, True]]
        assert np.array_equal(
            mask, oracle_r_dominators_mask(scores_matrix[:, :1], scores_matrix, tol)
        )


class TestSkybandAdjacency:
    def test_restricted_counts_match_ancestor_intersections(self):
        rng = np.random.default_rng(99)
        values = rng.random((120, 3)) * 10.0
        region = hyperrectangle([0.1, 0.1], [0.4, 0.3])
        skyband = compute_r_skyband(values, region, 3)
        members = skyband.members()
        if len(members) < 2:
            return
        stride = max(1, len(members) // 7)
        subset = members[::stride]
        counts = skyband.restricted_counts(subset)
        subset_set = set(subset)
        expected = [len(skyband.ancestors[m] & subset_set) for m in subset]
        assert counts.tolist() == expected

    def test_adjacency_reconstructed_from_ancestors(self):
        rng = np.random.default_rng(5)
        values = rng.random((60, 3)) * 10.0
        region = hyperrectangle([0.1, 0.1], [0.4, 0.3])
        skyband = compute_r_skyband(values, region, 2)
        rebuilt = type(skyband)(
            indices=skyband.indices,
            values=skyband.values,
            ancestors=skyband.ancestors,
            descendants=skyband.descendants,
            region=skyband.region,
        )
        assert np.array_equal(rebuilt.adjacency, skyband.adjacency)
