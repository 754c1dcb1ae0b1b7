"""Traditional dominance and r-dominance (Definition 1 of the paper).

*Traditional* dominance compares records attribute by attribute and is what
skylines and k-skybands build on.  *r-dominance* is specific to a preference
region ``R``: record ``p`` r-dominates ``p'`` when ``S(p) >= S(p')`` for every
weight vector in ``R`` (strictly for at least one).  Because the score
difference is linear in the weights, the test reduces to evaluating the
difference at the vertices of ``R`` (or to two LPs for regions without a
vertex representation).
"""

from __future__ import annotations

import numpy as np

from repro.core.preference import score_gradients
from repro.core.region import Region
from repro.kernels.dominance import DOMINANCE_TOL
from repro.kernels.dominance import dominance_counts as _kernel_dominance_counts
from repro.kernels.halfspace import (
    r_dominance_matrix as _kernel_r_dominance_matrix,
    r_dominators_mask as _kernel_r_dominators_mask,
    vertex_scores as _kernel_vertex_scores,
)

__all__ = [
    "DOMINANCE_TOL",
    "dominates",
    "dominance_counts",
    "r_dominates",
    "RDominance",
]


def dominates(p, q, tol: float = DOMINANCE_TOL) -> bool:
    """Traditional dominance: ``p`` is no worse anywhere and better somewhere."""
    p = np.asarray(p, dtype=float).reshape(-1)
    q = np.asarray(q, dtype=float).reshape(-1)
    return bool(np.all(p >= q - tol) and np.any(p > q + tol))


def dominance_counts(values: np.ndarray, tol: float = DOMINANCE_TOL) -> np.ndarray:
    """For every record, the number of records that traditionally dominate it.

    Served by the batched kernel (:mod:`repro.kernels.dominance`); the
    per-record loop this replaced survives there as
    :func:`~repro.kernels.dominance.dominance_counts_loop`, the oracle of the
    property tests.  The index-based path lives in :mod:`repro.skyline.bbs`.
    """
    return _kernel_dominance_counts(values, tol)


def r_dominates(p, q, region: Region, tol: float = DOMINANCE_TOL) -> bool:
    """Whether ``p`` r-dominates ``q`` with respect to ``region``.

    ``p`` r-dominates ``q`` when its score is at least that of ``q`` for every
    weight vector in the region, and strictly larger for at least one.
    """
    pair = np.vstack([np.asarray(p, dtype=float), np.asarray(q, dtype=float)])
    gradients, offsets = score_gradients(pair)
    diff_grad = gradients[0] - gradients[1]
    diff_off = offsets[0] - offsets[1]
    lo = diff_off + region.linear_min(diff_grad)
    hi = diff_off + region.linear_max(diff_grad)
    return lo >= -tol and hi > tol


class RDominance:
    """Vectorized r-dominance tests against a fixed region.

    The helper caches the region's vertices (or a fallback LP handle) and the
    score decomposition of the records it is asked about, so the BBS-style
    r-skyband computation and the r-dominance graph construction can run as
    dense numpy operations.
    """

    def __init__(self, region: Region, tol: float = DOMINANCE_TOL):
        self.region = region
        self.tol = tol
        self._vertices = region.vertices

    # ------------------------------------------------------------- primitives
    def _vertex_scores(self, values: np.ndarray) -> np.ndarray:
        """Scores of ``values`` at every region vertex, shape ``(v, n)``."""
        return _kernel_vertex_scores(values, self._vertices)

    def dominates(self, p, q) -> bool:
        """Single-pair r-dominance test."""
        if self._vertices is None:
            return r_dominates(p, q, self.region, self.tol)
        scores = self._vertex_scores(np.vstack([p, q]))
        diff = scores[:, 0] - scores[:, 1]
        return bool(np.all(diff >= -self.tol) and np.any(diff > self.tol))

    def dominators_mask(self, rows: np.ndarray, members: np.ndarray) -> np.ndarray:
        """Mask ``M[i, j] = True`` iff ``members[j]`` r-dominates ``rows[i]``.

        A row may be a data record or the top corner of an index node's MBB
        (the BBS convention for node pruning).  Row sums are dominator
        counts; ``dominators_mask(pool, point[None])[:, 0]`` is the converse
        mask of the pool records ``point`` r-dominates.
        """
        rows = np.asarray(rows, dtype=float)
        members = np.asarray(members, dtype=float)
        if rows.shape[0] == 0 or members.shape[0] == 0:
            return np.zeros((rows.shape[0], members.shape[0]), dtype=bool)
        if self._vertices is None:
            return np.array(
                [[r_dominates(member, row, self.region, self.tol) for member in members]
                 for row in rows],
                dtype=bool,
            )
        # One vertex_scores matmul over rows and members scores both alike.
        n = rows.shape[0]
        scores = self._vertex_scores(np.concatenate([rows, members]))
        return _kernel_r_dominators_mask(scores[:, :n], scores[:, n:], self.tol)

    def dominance_matrix(self, values: np.ndarray) -> np.ndarray:
        """Full pairwise matrix ``M[i, j] = True`` iff record ``i`` r-dominates ``j``.

        Quadratic in the number of records.  With a vertex representation the
        whole matrix is a kernel call that accumulates per vertex over
        ``(n, n)`` slabs — the ``(v, n, n)`` difference tensor the pre-kernel
        code materialized is never built.
        """
        values = np.asarray(values, dtype=float)
        n = values.shape[0]
        if n == 0:
            return np.zeros((0, 0), dtype=bool)
        if self._vertices is None:
            matrix = np.zeros((n, n), dtype=bool)
            for i in range(n):
                for j in range(n):
                    if i != j and r_dominates(values[i], values[j], self.region, self.tol):
                        matrix[i, j] = True
            return matrix
        return _kernel_r_dominance_matrix(self._vertex_scores(values), self.tol)

    def dominance_counts(self, values: np.ndarray) -> np.ndarray:
        """Number of records (within ``values``) r-dominating each record."""
        return self.dominance_matrix(values).sum(axis=0)
