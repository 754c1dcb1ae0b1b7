"""Batched half-space / score-difference kernels.

For records scored with a linear function over reduced weights, every
pairwise comparison ``S(q) >= S(p)`` is a half-space of the preference
domain, and r-dominance over a region reduces to sign tests of score
differences at the region's vertices.  The kernels here batch all of that:

* :func:`score_decomposition` — the affine form ``S(x; u) = offset +
  gradient @ u`` of every record (single source of the arithmetic behind
  :func:`repro.core.preference.score_gradients`);
* :func:`halfspace_coefficients` — the ``m`` half-spaces a candidate induces
  against ``m`` competitors, in one broadcast instead of ``m`` constructions;
* :func:`evaluate_halfspaces` — signed slack of ``m`` half-spaces at ``v``
  points in one matmul;
* :func:`vertex_scores` — scores of ``n`` records at ``v`` region vertices in
  one matmul;
* :func:`r_dominance_matrix` / :func:`r_dominators_mask` — vectorized
  r-dominance within a candidate pool, and of a batch of rows by the current
  members, from vertex scores.

As in :mod:`repro.kernels.dominance`, each kernel has a ``*_loop`` reference
performing the same elementwise float operations one record at a time; the
boolean kernels are bit-identical to their references.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.dominance import DOMINANCE_TOL, _row_block

#: Upper bound on the score differences one :func:`r_dominators_mask`
#: broadcast materializes (``2**16`` float64 cells, 512 KiB).
_MASK_CELLS = 1 << 16


def score_decomposition(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Affine representation of every record's score over reduced weights.

    Returns ``(gradients, offsets)`` with shapes ``(n, d-1)`` and ``(n,)``
    such that ``S(values[i]; u) = offsets[i] + gradients[i] @ u``.  Input
    validation lives in :func:`repro.core.preference.score_gradients`, which
    delegates the arithmetic here.
    """
    values = np.asarray(values, dtype=float)
    last = values[:, -1]
    gradients = values[:, :-1] - last[:, None]
    return gradients, last.copy()


def vertex_scores(values: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Scores of ``n`` records at ``v`` vertices in one matmul, shape ``(v, n)``."""
    gradients, offsets = score_decomposition(values)
    vertices = np.asarray(vertices, dtype=float)
    return offsets[None, :] + vertices @ gradients.T


def halfspace_coefficients(base, others: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of the half-spaces ``S(other) >= S(base)``, batched.

    Returns ``(normals, offsets)`` with shapes ``(m, d-1)`` and ``(m,)``:
    row ``i`` describes ``{u : normals[i] @ u >= offsets[i]}``, the part of
    the preference domain where ``others[i]`` scores at least ``base``.
    """
    others = np.asarray(others, dtype=float)
    base = np.asarray(base, dtype=float).reshape(1, -1)
    gradients, offsets = score_decomposition(np.vstack([base, others]))
    normals = gradients[1:] - gradients[0]
    rhs = offsets[0] - offsets[1:]
    return normals, rhs


def halfspace_coefficients_loop(base, others: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reference one-pair-at-a-time implementation of :func:`halfspace_coefficients`."""
    others = np.asarray(others, dtype=float)
    base = np.asarray(base, dtype=float).reshape(1, -1)
    count = others.shape[0]
    normals = np.zeros((count, base.shape[1] - 1), dtype=float)
    rhs = np.zeros(count, dtype=float)
    for row in range(count):
        gradients, offsets = score_decomposition(np.vstack([base, others[row : row + 1]]))
        normals[row] = gradients[1] - gradients[0]
        rhs[row] = offsets[0] - offsets[1]
    return normals, rhs


def evaluate_halfspaces(normals: np.ndarray, offsets: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Signed slack of ``m`` half-spaces at ``p`` points, shape ``(m, p)``.

    Entry ``[i, j]`` is ``normals[i] @ points[j] - offsets[i]``, non-negative
    when point ``j`` lies inside half-space ``i`` — ``m * p`` individual
    ``HalfSpace.value`` calls collapsed into one matmul.
    """
    normals = np.asarray(normals, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    points = np.asarray(points, dtype=float)
    return normals @ points.T - offsets[:, None]


def evaluate_halfspaces_loop(
    normals: np.ndarray, offsets: np.ndarray, points: np.ndarray
) -> np.ndarray:
    """Reference one-at-a-time evaluation (``HalfSpace.value`` in a loop)."""
    normals = np.asarray(normals, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    points = np.asarray(points, dtype=float)
    out = np.zeros((normals.shape[0], points.shape[0]), dtype=float)
    for i in range(normals.shape[0]):
        for j in range(points.shape[0]):
            out[i, j] = float(normals[i] @ points[j]) - offsets[i]
    return out


def r_dominance_matrix(
    scores: np.ndarray,
    tol: float = DOMINANCE_TOL,
    *,
    block: int | None = None,
) -> np.ndarray:
    """Pairwise r-dominance matrix from vertex scores.

    ``scores`` has shape ``(v, n)``: the score of each of ``n`` records at
    each of the ``v`` region vertices.  ``M[i, j] = True`` iff record ``i``
    r-dominates record ``j`` — its score difference is ``>= -tol`` at every
    vertex and ``> tol`` at some vertex.  Accumulates per vertex over
    ``(block, n)`` slabs instead of materializing the ``(v, n, n)``
    difference tensor.
    """
    scores = np.asarray(scores, dtype=float)
    vertex_count, n = scores.shape
    if n == 0 or vertex_count == 0:
        return np.zeros((n, n), dtype=bool)
    out = np.empty((n, n), dtype=bool)
    step = _row_block(n, block)
    for start in range(0, n, step):
        rows = slice(start, min(start + step, n))
        diff = np.subtract.outer(scores[0, rows], scores[0])
        geq = diff >= -tol
        gt = diff > tol
        for vertex in range(1, vertex_count):
            diff = np.subtract.outer(scores[vertex, rows], scores[vertex])
            geq &= diff >= -tol
            gt |= diff > tol
        geq &= gt
        out[rows] = geq
    np.fill_diagonal(out, False)
    return out


def r_dominance_matrix_loop(scores: np.ndarray, tol: float = DOMINANCE_TOL) -> np.ndarray:
    """Reference per-pair implementation of :func:`r_dominance_matrix`."""
    scores = np.asarray(scores, dtype=float)
    n = scores.shape[1]
    out = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            diff = scores[:, i] - scores[:, j]
            out[i, j] = bool(np.all(diff >= -tol) and np.any(diff > tol))
    return out


def r_dominators_mask(
    row_scores: np.ndarray, member_scores: np.ndarray, tol: float = DOMINANCE_TOL
) -> np.ndarray:
    """Mask ``M[i, j] = True`` iff member ``j`` r-dominates row ``i``.

    ``row_scores`` has shape ``(v, n)`` and ``member_scores`` shape
    ``(v, m)``: the scores of the probed rows and of the current members at
    every region vertex.  Member ``j`` r-dominates row ``i`` when their score
    difference is ``>= -tol`` at every vertex and ``> tol`` at some vertex.
    Each row block is one ``(v, block, m)`` difference broadcast reduced over
    the vertex axis, so a call costs a few NumPy operations however many
    vertices the region has — the traversal's batches are small and many.
    """
    row_scores = np.asarray(row_scores, dtype=float)
    member_scores = np.asarray(member_scores, dtype=float)
    vertex_count, n = row_scores.shape
    m = member_scores.shape[1]
    out = np.zeros((n, m), dtype=bool)
    if n == 0 or m == 0 or vertex_count == 0:
        return out
    members = member_scores[:, None, :]
    step = max(1, _MASK_CELLS // (vertex_count * m))
    for start in range(0, n, step):
        diff = members - row_scores[:, start : start + step, None]
        out[start : start + step] = (diff >= -tol).all(axis=0) & (diff > tol).any(axis=0)
    return out


def r_dominators_mask_loop(
    row_scores: np.ndarray, member_scores: np.ndarray, tol: float = DOMINANCE_TOL
) -> np.ndarray:
    """Reference per-row implementation of :func:`r_dominators_mask`."""
    row_scores = np.asarray(row_scores, dtype=float)
    member_scores = np.asarray(member_scores, dtype=float)
    out = np.zeros((row_scores.shape[1], member_scores.shape[1]), dtype=bool)
    for i in range(row_scores.shape[1]):
        diff = member_scores - row_scores[:, i][:, None]
        out[i] = np.all(diff >= -tol, axis=0) & np.any(diff > tol, axis=0)
    return out
