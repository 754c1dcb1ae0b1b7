"""Plain top-k query processing.

Provides the traditional operator the paper contrasts UTK with:

* a vectorized full-scan top-k,
* a branch-and-bound top-k over the R-tree (score of an MBB's top corner is
  an upper bound for every record underneath it, for monotone scoring), and
* the *incremental* top-k probe used by the Figure 10(b) study: keep
  enlarging ``k`` until the result covers a target set of records.
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np

from repro.core.preference import scores
from repro.exceptions import InvalidQueryError
from repro.index.rtree import RTree


def top_k_indices(values: np.ndarray, weights, k: int) -> list[int]:
    """Indices of the ``k`` highest-scoring records (full scan, ties by index)."""
    if k <= 0:
        raise InvalidQueryError("k must be positive")
    all_scores = scores(np.asarray(values, dtype=float), weights)
    order = np.lexsort((np.arange(all_scores.shape[0]), -all_scores))
    return [int(i) for i in order[:min(k, order.shape[0])]]


def top_k(values: np.ndarray, weights, k: int) -> list[tuple[int, float]]:
    """``(index, score)`` pairs of the top-k records, best first."""
    all_scores = scores(np.asarray(values, dtype=float), weights)
    return [(index, float(all_scores[index])) for index in top_k_indices(values, weights, k)]


def top_k_rtree(tree: RTree, weights, k: int) -> list[tuple[int, float]]:
    """Branch-and-bound top-k over an R-tree.

    Nodes are visited best-first by the score of their MBB top corner, which
    upper-bounds the score of every record underneath (weights and attributes
    are non-negative); the search stops once ``k`` records have been popped
    whose scores dominate all remaining upper bounds.  Each expanded node is
    one ``read_node`` call and one batch scoring of its entries, so any tree
    with the read contract (a heap, attached or paged tree) works.
    """
    if k <= 0:
        raise InvalidQueryError("k must be positive")
    root, corner = tree.read_root()
    if corner is None:
        return []
    weights = np.asarray(weights, dtype=float).reshape(-1)
    counter = itertools.count()
    heap = [(-float(scores(corner.reshape(1, -1), weights)[0]), next(counter), False, root)]
    result: list[tuple[int, float]] = []
    while heap and len(result) < k:
        negative_key, _, is_record, handle = heapq.heappop(heap)
        if is_record:
            result.append((int(handle), -negative_key))
            continue
        is_leaf, ids, corners = tree.read_node(handle)
        for priority, child in zip(scores(corners, weights).tolist(), ids):
            heapq.heappush(heap, (-priority, next(counter), is_leaf, child))
    return result


def incremental_top_k_until(values: np.ndarray, weights, k: int,
                            target: set[int], *, max_k: int | None = None
                            ) -> tuple[int, list[int]]:
    """Grow ``k`` until the top-k result covers ``target`` (Figure 10(b) study).

    Returns the required ``k`` and the corresponding top-k index list.  The
    paper uses this probe to show that a plain top-k query with an enlarged
    ``k`` is a poor substitute for UTK1: the required ``k`` is 40-460 times
    the original one.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    limit = n if max_k is None else min(max_k, n)
    all_scores = scores(values, weights)
    order = np.lexsort((np.arange(n), -all_scores))
    target = {int(t) for t in target}
    covered: set[int] = set()
    for position, index in enumerate(order[:limit], start=1):
        covered.add(int(index))
        if position >= k and target.issubset(covered):
            return position, [int(i) for i in order[:position]]
    return limit, [int(i) for i in order[:limit]]
