"""Vectorized compute kernels — the batch hot-path layer of the library.

The RSA and JAA algorithms spend nearly all their time in three families of
primitives: traditional dominance tests, half-space (score-difference)
evaluations, and r-dominance tests against a preference region.  This package
provides those primitives as batch kernels over contiguous NumPy arrays:

* :mod:`repro.kernels.dominance` — pairwise dominance matrices, dominance
  counts, and the batch "which members dominate these rows" mask used by the
  BBS traversal, computed with per-dimension accumulation over ``(n, n)``
  boolean slabs (faster and far leaner than an ``(n, n, d)`` broadcast).
* :mod:`repro.kernels.halfspace` — the affine score decomposition, batched
  half-space coefficient construction, one-matmul evaluation of ``m``
  half-spaces at ``v`` points, and r-dominance matrices/masks derived from
  region-vertex scores.
* :mod:`repro.kernels.vertexops` — segmented min/max reductions over stacked
  cell-vertex arrays, the one-matmul batch classification of every
  arrangement leaf against an inserted half-space.

Every kernel ships with a ``*_loop`` reference implementation — the
per-record code path the kernel replaced.  The references serve as
correctness oracles for the property tests (``tests/test_kernels.py``) and as
the baseline the CI perf gate measures against
(``benchmarks/bench_kernels.py``).  Kernels and references are bit-identical:
they perform the same elementwise float operations in the same order, so
outputs match exactly, including ties at exactly ``±tol``.

The package is a leaf layer: it imports nothing but NumPy, so every other
module (core, skyline, index, engine, bench) can build on it freely.
"""

from repro.kernels.dominance import (
    DOMINANCE_TOL,
    dominance_counts,
    dominance_counts_loop,
    dominance_matrix,
    dominance_matrix_loop,
    dominators_mask,
    dominators_mask_loop,
)
from repro.kernels.halfspace import (
    evaluate_halfspaces,
    evaluate_halfspaces_loop,
    halfspace_coefficients,
    halfspace_coefficients_loop,
    r_dominance_matrix,
    r_dominance_matrix_loop,
    r_dominators_mask,
    r_dominators_mask_loop,
    score_decomposition,
    vertex_scores,
)
from repro.kernels.vertexops import (
    halfspace_side_bounds,
    halfspace_side_bounds_loop,
)

__all__ = [
    "DOMINANCE_TOL",
    "dominance_counts",
    "dominance_counts_loop",
    "dominance_matrix",
    "dominance_matrix_loop",
    "dominators_mask",
    "dominators_mask_loop",
    "evaluate_halfspaces",
    "evaluate_halfspaces_loop",
    "halfspace_coefficients",
    "halfspace_coefficients_loop",
    "halfspace_side_bounds",
    "halfspace_side_bounds_loop",
    "r_dominance_matrix",
    "r_dominance_matrix_loop",
    "r_dominators_mask",
    "r_dominators_mask_loop",
    "score_decomposition",
    "vertex_scores",
]
