"""Batched traditional-dominance kernels.

Traditional dominance (record ``p`` dominates ``q`` when it is at least as
good everywhere and strictly better somewhere, with a ``tol`` tie slack) is
the primitive behind skylines, k-skybands and the BBS traversal.  The kernels
here compute it over whole pools at once.

Layout: instead of one ``(n, n, d)`` broadcast (the seed implementation) or a
per-record Python loop (the pre-kernel hot path, kept below as the ``*_loop``
references), the pairwise kernels accumulate per dimension over ``(n, n)``
boolean slabs::

    geq &= values[:, k][:, None] >= (values[:, k] - tol)[None, :]
    gt |= values[:, k][:, None] > (values[:, k] + tol)[None, :]

``d`` passes over an ``n x n`` slab touch ``d`` times less memory than one
pass over an ``n x n x d`` block, which makes this ~7x faster than both
alternatives at benchmark sizes (n=2000, d=4).  Large pools are processed in
row blocks so peak memory stays below a fixed budget.

Bit-exactness: the kernels perform exactly the same elementwise float
operations as the references (subtract ``tol``, then compare), so outputs are
identical — including ties at exactly ``±tol``.  ``tol`` must be
non-negative; all callers use :data:`DOMINANCE_TOL` or larger.
"""

from __future__ import annotations

import numpy as np

#: Tie tolerance used by dominance tests on floating-point data.  This is the
#: canonical definition; :mod:`repro.core.dominance` re-exports it.
DOMINANCE_TOL = 1e-9

#: Upper bound on the number of pairwise cells materialized at once; row
#: blocks are sized so one boolean ``(block, n)`` slab stays below this.
_BLOCK_CELLS = 1 << 24


def _row_block(n: int, block: int | None) -> int:
    """Rows per block: the override, or as many as the cell budget allows."""
    if block is not None:
        return max(1, int(block))
    if n <= 0:
        return 1
    return max(1, min(n, _BLOCK_CELLS // n))


def dominance_matrix(
    values: np.ndarray,
    tol: float = DOMINANCE_TOL,
    *,
    block: int | None = None,
) -> np.ndarray:
    """Pairwise matrix ``M[i, j] = True`` iff record ``i`` dominates ``j``.

    Per-dimension accumulation over ``(block, n)`` boolean slabs; ``block``
    overrides the automatic row-block size (used by tests to exercise the
    blocked path on small inputs).
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    if n == 0:
        return np.zeros((0, 0), dtype=bool)
    lo = values - tol
    hi = values + tol
    out = np.empty((n, n), dtype=bool)
    step = _row_block(n, block)
    for start in range(0, n, step):
        rows = slice(start, min(start + step, n))
        geq = np.greater_equal.outer(values[rows, 0], lo[:, 0])
        gt = np.greater.outer(values[rows, 0], hi[:, 0])
        for axis in range(1, values.shape[1]):
            geq &= np.greater_equal.outer(values[rows, axis], lo[:, axis])
            gt |= np.greater.outer(values[rows, axis], hi[:, axis])
        geq &= gt
        out[rows] = geq
    np.fill_diagonal(out, False)
    return out


def dominance_matrix_loop(values: np.ndarray, tol: float = DOMINANCE_TOL) -> np.ndarray:
    """Reference per-record implementation (the pre-kernel hot path).

    Kept as the correctness oracle for the property tests and the baseline
    the CI perf gate measures against.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    out = np.zeros((n, n), dtype=bool)
    for j in range(n):
        geq = np.all(values >= values[j] - tol, axis=1)
        gt = np.any(values > values[j] + tol, axis=1)
        column = geq & gt
        column[j] = False
        out[:, j] = column
    return out


def dominance_counts(
    values: np.ndarray,
    tol: float = DOMINANCE_TOL,
    *,
    block: int | None = None,
) -> np.ndarray:
    """For every record, the number of records that traditionally dominate it.

    Accumulates column sums block by block, so the full pairwise matrix is
    never materialized for large pools.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    counts = np.zeros(n, dtype=int)
    if n == 0:
        return counts
    lo = values - tol
    hi = values + tol
    step = _row_block(n, block)
    for start in range(0, n, step):
        rows = slice(start, min(start + step, n))
        geq = np.greater_equal.outer(values[rows, 0], lo[:, 0])
        gt = np.greater.outer(values[rows, 0], hi[:, 0])
        for axis in range(1, values.shape[1]):
            geq &= np.greater_equal.outer(values[rows, axis], lo[:, axis])
            gt |= np.greater.outer(values[rows, axis], hi[:, axis])
        geq &= gt
        # The diagonal is False by construction: no record strictly beats
        # itself on any attribute for tol >= 0.
        counts += geq.sum(axis=0)
    return counts


def dominance_counts_loop(values: np.ndarray, tol: float = DOMINANCE_TOL) -> np.ndarray:
    """Reference per-record implementation (the seed's ``dominance_counts``)."""
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    counts = np.zeros(n, dtype=int)
    for i in range(n):
        geq = np.all(values >= values[i] - tol, axis=1)
        gt = np.any(values > values[i] + tol, axis=1)
        dominators = geq & gt
        dominators[i] = False
        counts[i] = int(dominators.sum())
    return counts


def dominators_mask(
    rows: np.ndarray, members: np.ndarray, tol: float = DOMINANCE_TOL
) -> np.ndarray:
    """Mask ``M[i, j] = True`` iff ``members[j]`` dominates ``rows[i]``.

    The batch BBS primitive: ``rows`` are the entries of an expanded index
    node (record rows or child MBB top corners) or the live frontier,
    ``members`` the current skyband members.  Per-dimension accumulation
    over one ``(n, m)`` boolean slab; row sums are dominator counts.
    """
    rows = np.asarray(rows, dtype=float)
    members = np.asarray(members, dtype=float)
    if rows.shape[0] == 0 or members.shape[0] == 0:
        return np.zeros((rows.shape[0], members.shape[0]), dtype=bool)
    lo = rows - tol
    hi = rows + tol
    geq = np.less_equal.outer(lo[:, 0], members[:, 0])
    gt = np.less.outer(hi[:, 0], members[:, 0])
    for axis in range(1, rows.shape[1]):
        geq &= np.less_equal.outer(lo[:, axis], members[:, axis])
        gt |= np.less.outer(hi[:, axis], members[:, axis])
    geq &= gt
    return geq


def dominators_mask_loop(
    rows: np.ndarray, members: np.ndarray, tol: float = DOMINANCE_TOL
) -> np.ndarray:
    """Reference per-row implementation of :func:`dominators_mask`.

    One broadcast over the members per row — the single-probe test the BBS
    traversal used to run for every popped entry.
    """
    rows = np.asarray(rows, dtype=float)
    members = np.asarray(members, dtype=float)
    out = np.zeros((rows.shape[0], members.shape[0]), dtype=bool)
    for position in range(rows.shape[0]):
        geq = np.all(members >= rows[position] - tol, axis=1)
        gt = np.any(members > rows[position] + tol, axis=1)
        out[position] = geq & gt
    return out
