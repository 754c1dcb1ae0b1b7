"""High-level k-skyband and onion-candidate computation.

Combines the BBS traversal (index-based filtering) with an exact quadratic
finalization pass over the small candidate pool.  The finalization exploits a
standard property of (transitive) dominance: every dominator of a skyband
member is itself a skyband member, and every non-member has at least ``k``
dominators inside the skyband.  Counting dominators within a BBS superset is
therefore exact.
"""

from __future__ import annotations

import numpy as np

from repro.core.dominance import DOMINANCE_TOL
from repro.geometry.onion import onion_layers
from repro.index.rtree import RTree
from repro.kernels.dominance import dominators_mask
from repro.skyline.bbs import BBSStatistics, bbs_candidates
from repro.skyline.dominance import dominance_matrix, k_skyband_bruteforce


def k_skyband(
    values: np.ndarray,
    k: int,
    *,
    tree: RTree | None = None,
    tol: float = DOMINANCE_TOL,
    return_stats: bool = False,
):
    """Indices of the traditional k-skyband of ``values``.

    When an R-tree is supplied (or the dataset is large enough to warrant
    building one) the BBS traversal prunes most of the data before the exact
    finalization pass; otherwise a brute-force pass is used directly.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    stats = BBSStatistics()
    if tree is None and n <= 512:
        result = k_skyband_bruteforce(values, k, tol)
        stats.candidate_count = int(result.size)
        return (result, stats) if return_stats else result
    if tree is None:
        tree = RTree(values)

    candidate_idx, candidate_rows, stats = bbs_candidates(
        tree,
        k,
        key=lambda rows: rows.sum(axis=1),
        dominator_counts=lambda rows, members: dominators_mask(rows, members, tol).sum(axis=1),
    )
    counts = dominance_matrix(candidate_rows, tol).sum(axis=0)
    members = np.sort(candidate_idx[counts < k])
    return (members, stats) if return_stats else members


def onion_candidates(
    values: np.ndarray, k: int, *, tree: RTree | None = None, tol: float = DOMINANCE_TOL
) -> np.ndarray:
    """Union of the first ``k`` onion layers, computed off the k-skyband.

    Following the paper (Section 3.3), onion layers are derived from the
    k-skyband — the layers are always a subset of it — which keeps the convex
    hull computations small.
    """
    skyband = k_skyband(values, k, tree=tree, tol=tol)
    if skyband.size == 0:
        return skyband
    layers = onion_layers(np.asarray(values, dtype=float)[skyband], k)
    if not layers:
        return np.zeros(0, dtype=int)
    local = np.unique(np.concatenate(layers))
    return np.sort(skyband[local])
