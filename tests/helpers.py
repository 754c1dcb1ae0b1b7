"""Correctness oracles shared across the test-suite.

The oracles here are deliberately independent from the library's algorithms:

* ``exact_utk1_d2`` / ``exact_utk2_d2`` — for 2-dimensional data the
  preference domain is a segment, so UTK can be solved exactly by sweeping
  over the breakpoints where two records tie.
* ``sampled_top_k_union`` — a dense random sample of weight vectors; the
  union of their top-k sets is a subset of the true UTK1 answer.
* ``brute_force_top_k`` — plain full-scoring top-k with deterministic ties.
* ``oracle_*`` — scalar per-pair versions of the batch kernels.
* ``bbs_candidates_loop`` — the per-element BBS traversal the library's
  node-at-a-time one replaced, kept as its reference.
* ``trees_over`` — one R-tree, built by an insert/delete stream, read from
  each of the page array's three backing memories.

This module lives next to the tests (not inside ``conftest.py``) so that the
test files can import it absolutely (``from helpers import ...``) under any
pytest invocation, including the project's tier-1 command run from the
repository root.
"""

from __future__ import annotations

import heapq
import itertools
import tempfile
from collections.abc import Callable
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.colstore.pages import PagedRTree, write_pages
from repro.core.preference import scores
from repro.index.rtree import RTree
from repro.serve.shm import attach_arrays, pack_arrays
from repro.skyline.bbs import BBSStatistics


def exact_utk1_d2(values: np.ndarray, lo: float, hi: float, k: int) -> set[int]:
    """Exact UTK1 for 2-dimensional data over the weight interval [lo, hi].

    The score of every record is linear in the single reduced weight, so the
    ranking only changes at pairwise tie points.  Evaluating the top-k in the
    interior of every sub-interval between consecutive breakpoints (plus the
    interval endpoints) enumerates every reachable top-k set exactly.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    breakpoints = {lo, hi}
    for i, j in itertools.combinations(range(n), 2):
        # offsets[i] + grad[i] * w == offsets[j] + grad[j] * w
        grad_i = values[i, 0] - values[i, 1]
        grad_j = values[j, 0] - values[j, 1]
        if abs(grad_i - grad_j) < 1e-15:
            continue
        w = (values[j, 1] - values[i, 1]) / (grad_i - grad_j)
        if lo < w < hi:
            breakpoints.add(float(w))
    points = sorted(breakpoints)
    probes = []
    for a, b in zip(points[:-1], points[1:]):
        probes.append((a + b) / 2.0)
    probes.extend([lo, hi])
    members: set[int] = set()
    for w in probes:
        row = scores(values, np.array([w]))
        members.update(np.argsort(-row, kind="stable")[:k].tolist())
    return members


def exact_utk2_d2(values: np.ndarray, lo: float, hi: float, k: int) -> list[tuple[float, float, frozenset[int]]]:
    """Exact UTK2 for 2-dimensional data: (interval, top-k set) triples."""
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    breakpoints = {lo, hi}
    for i, j in itertools.combinations(range(n), 2):
        grad_i = values[i, 0] - values[i, 1]
        grad_j = values[j, 0] - values[j, 1]
        if abs(grad_i - grad_j) < 1e-15:
            continue
        w = (values[j, 1] - values[i, 1]) / (grad_i - grad_j)
        if lo < w < hi:
            breakpoints.add(float(w))
    points = sorted(breakpoints)
    segments = []
    for a, b in zip(points[:-1], points[1:]):
        mid = (a + b) / 2.0
        row = scores(values, np.array([mid]))
        top = frozenset(np.argsort(-row, kind="stable")[:k].tolist())
        segments.append((a, b, top))
    return segments


def sampled_top_k_union(values: np.ndarray, region, k: int,
                        samples: int = 2000, seed: int = 0) -> set[int]:
    """Union of top-k sets over a dense sample of the region (lower bound of UTK1)."""
    rng = np.random.default_rng(seed)
    weights = region.sample(samples, rng)
    score_matrix = scores(values, weights)
    members: set[int] = set()
    for row in score_matrix:
        members.update(np.argsort(-row, kind="stable")[:k].tolist())
    return members


def brute_force_top_k(values: np.ndarray, weights, k: int) -> set[int]:
    """Top-k indices by full scoring (deterministic tie-break by index)."""
    row = scores(values, weights)
    order = np.lexsort((np.arange(row.shape[0]), -row))
    return set(int(i) for i in order[:k])


# --------------------------------------------------------------------------
# Kernel oracles: deliberately scalar, per-pair implementations of the batch
# primitives in ``repro.kernels``, written without any broadcasting so they
# share no code (and no bugs) with the kernels they check.

def oracle_dominance_matrix(values: np.ndarray, tol: float) -> np.ndarray:
    """Per-pair traditional-dominance matrix: ``[i, j]`` iff ``i`` dominates ``j``."""
    values = np.asarray(values, dtype=float)
    n, d = values.shape
    out = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            geq = all(values[i, k] >= values[j, k] - tol for k in range(d))
            gt = any(values[i, k] > values[j, k] + tol for k in range(d))
            out[i, j] = geq and gt
    return out


def oracle_dominance_counts(values: np.ndarray, tol: float) -> np.ndarray:
    """Per-record dominator counts derived from the per-pair matrix."""
    return oracle_dominance_matrix(values, tol).sum(axis=0)


def oracle_dominators_mask(rows: np.ndarray, members: np.ndarray, tol: float) -> np.ndarray:
    """Per-pair mask: ``[i, j]`` iff ``members[j]`` dominates ``rows[i]``."""
    rows = np.asarray(rows, dtype=float)
    members = np.asarray(members, dtype=float)
    d = rows.shape[1]
    out = np.zeros((rows.shape[0], members.shape[0]), dtype=bool)
    for i in range(rows.shape[0]):
        for j in range(members.shape[0]):
            geq = all(members[j, a] >= rows[i, a] - tol for a in range(d))
            gt = any(members[j, a] > rows[i, a] + tol for a in range(d))
            out[i, j] = geq and gt
    return out


def oracle_r_dominance_matrix(vertex_scores: np.ndarray, tol: float) -> np.ndarray:
    """Per-pair r-dominance from ``(v, n)`` vertex scores."""
    vertex_scores = np.asarray(vertex_scores, dtype=float)
    v, n = vertex_scores.shape
    out = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            diffs = [vertex_scores[w, i] - vertex_scores[w, j] for w in range(v)]
            out[i, j] = all(d >= -tol for d in diffs) and any(d > tol for d in diffs)
    return out


def oracle_r_dominators_mask(row_scores, member_scores, tol: float) -> np.ndarray:
    """Per-pair r-dominance of rows by members, from ``(v, n)``/``(v, m)`` vertex scores."""
    row_scores = np.asarray(row_scores, dtype=float)
    member_scores = np.asarray(member_scores, dtype=float)
    v, n = row_scores.shape
    m = member_scores.shape[1]
    out = np.zeros((n, m), dtype=bool)
    for i in range(n):
        for j in range(m):
            diffs = [member_scores[w, j] - row_scores[w, i] for w in range(v)]
            out[i, j] = all(d >= -tol for d in diffs) and any(d > tol for d in diffs)
    return out


def oracle_halfspace_values(
    normals: np.ndarray, offsets: np.ndarray, points: np.ndarray
) -> np.ndarray:
    """Per-pair signed slack ``normals[i] @ points[j] - offsets[i]``."""
    normals = np.asarray(normals, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    points = np.asarray(points, dtype=float)
    out = np.zeros((normals.shape[0], points.shape[0]), dtype=float)
    for i in range(normals.shape[0]):
        for j in range(points.shape[0]):
            out[i, j] = float(np.dot(normals[i], points[j])) - offsets[i]
    return out


# --------------------------------------------------------------------------
# Traversal reference.

def bbs_candidates_loop(tree, k: int, *,
                        key: Callable[[np.ndarray], float],
                        dominators_of: Callable[[np.ndarray, np.ndarray], np.ndarray],
                        ) -> tuple[list[int], list[np.ndarray], BBSStatistics]:
    """Per-element BBS traversal: the reference for the node-at-a-time one.

    The library's traversal before it batched whole nodes, kept verbatim:
    every popped node or record is tested on its own against the members
    through the single-probe ``dominators_of`` callback.  It reads any tree
    through ``read_root``/``read_node`` but handles their entries one at a
    time.

    Parameters
    ----------
    tree:
        R-tree over the dataset.
    k:
        Skyband parameter: elements dominated by ``k`` or more current
        members are pruned.
    key:
        Monotone scoring of a point; nodes are keyed by their MBB top corner.
    dominators_of:
        ``(probe_point, member_matrix) -> bool mask`` of members dominating
        the probe.

    Returns
    -------
    (indices, points, stats)
        Candidate record indices (in pop order), their attribute vectors and
        traversal statistics.
    """
    stats = BBSStatistics()
    members_idx: list[int] = []
    members_rows: list[np.ndarray] = []
    # Members live in an amortized-doubling buffer so the r-dominance kernel
    # always sees one contiguous matrix; the seed re-stacked the whole pool on
    # every admission, which is quadratic in the member count.
    dimension = tree.dimension or 0
    member_buffer = np.empty((16, dimension), dtype=float)
    member_count = 0

    counter = itertools.count()
    heap: list[tuple[float, int, int, object]] = []

    def push(kind: int, priority: float, payload) -> None:
        heapq.heappush(heap, (-priority, next(counter), kind, payload))
        stats.heap_pushes += 1

    root, root_corner = tree.read_root()
    if root_corner is None:
        return [], [], stats
    push(0, key(root_corner), (root, root_corner))

    while heap:
        _, _, kind, payload = heapq.heappop(heap)
        if kind == 0:  # index node
            node, corner = payload
            stats.nodes_visited += 1
            if member_count >= k:
                dominated_by = int(dominators_of(corner, member_buffer[:member_count]).sum())
                if dominated_by >= k:
                    stats.nodes_pruned += 1
                    continue
            is_leaf, ids, corners = tree.read_node(node)
            if is_leaf:
                for index, point in zip(ids, corners):
                    push(1, key(point), (index, point))
            else:
                for child, child_corner in zip(ids, corners):
                    push(0, key(child_corner), (child, child_corner))
        else:  # data record
            index, point = payload
            stats.records_visited += 1
            if member_count >= k:
                dominated_by = int(dominators_of(point, member_buffer[:member_count]).sum())
                if dominated_by >= k:
                    stats.records_pruned += 1
                    continue
            members_idx.append(int(index))
            members_rows.append(np.asarray(point, dtype=float))
            if member_count == member_buffer.shape[0]:
                grown = np.empty((member_buffer.shape[0] * 2, dimension), dtype=float)
                grown[:member_count] = member_buffer[:member_count]
                member_buffer = grown
            member_buffer[member_count] = point
            member_count += 1

    stats.candidate_count = len(members_idx)
    tree.count_access("search", stats.nodes_visited)
    return members_idx, members_rows, stats


# --------------------------------------------------------------------------
# One tree, three backing memories.

def churned_tree(values, fanout, seed=0):
    """An R-tree over every row of ``values`` that got there by a random
    insert/delete stream: half bulk-loaded, the rest inserted, then a third
    deleted and inserted again, so split and condensed pages are read."""
    rng = np.random.default_rng(seed)
    n = values.shape[0]
    tree = RTree(values[: n // 2], max_entries=fanout)
    tree.values = values
    for index in rng.permutation(np.arange(n // 2, n)):
        tree.insert(int(index), values[index])
    churned = rng.choice(n, size=n // 3, replace=False)
    for index in churned:
        tree.delete(int(index), values[index])
    for index in churned:
        tree.insert(int(index), values[index])
    return tree


@contextmanager
def trees_over(values, fanout):
    """One churned tree's pages read from the heap, from a shared-memory
    segment and from a page file through a two-frame buffer pool."""
    rtree = churned_tree(values, fanout)
    owned, manifest = pack_arrays({"pages": rtree.pages.view(np.uint8)}, meta=rtree.meta)
    attached, arrays = attach_arrays(manifest)
    try:
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "t.pages"
            write_pages(path, (rtree.pages,), rtree.meta)
            yield rtree, {
                "heap": rtree,
                "shm": RTree.attach(arrays["pages"], values, manifest["meta"]),
                "file": PagedRTree(path, values, pool_pages=2),
            }
    finally:
        attached.close()
        owned.close()
