"""BBS branch-and-bound skyband traversal, one index node at a time.

BBS (Papadias et al.) visits R-tree nodes and records in decreasing order of
a monotone key and maintains a growing skyband set: an element is pruned as
soon as ``k`` current members dominate it.  The paper's r-skyband computation
(Section 4.1) is the same traversal with two twists — r-dominance replaces
traditional dominance, and the sorting key is the score at the *pivot* vector
of the query region.

The traversal here is generic over both choices and works on batches.  Each
expanded node is one :meth:`read_node` call on the tree (child handles and
MBB top corners, or record ids and rows); callers supply a batch ``key``
(monotone scoring of rows) and a batch ``dominator_counts`` callback (how
many current members dominate each row).  An expanded node's entries are
keyed and tested against the members in one call each, and only survivors
enter the frontier, each with its dominator count.  Every admitted member
then sweeps the whole live frontier in one call: entries whose count
reaches ``k`` are dead and skipped when popped.  Members only accumulate and
an element dominated by ``k`` records is never a skyband member, so pruning
early drops none; the counts at pop time — hence the candidates and their
pop order — are those of a traversal that tests each element when popped.

Because exact score ties can let a dominator pop *after* its dominee, the
traversal returns a (slightly) conservative superset; callers finalize it
with an exact quadratic pass (:mod:`repro.skyline.skyband`,
:mod:`repro.core.rskyband`).  This keeps the index-based path fast and the
final answer exact.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.index.rtree import RTree


@dataclass
class BBSStatistics:
    """Instrumentation of a BBS traversal (useful for benchmarks and tests).

    * ``nodes_visited`` — index nodes expanded, one :meth:`read_node` each
      (the ``search`` node accesses the tree tallies);
    * ``records_visited`` — records popped, all of which become candidates;
    * ``nodes_pruned`` / ``records_pruned`` — entries dropped because ``k``
      members dominate them, either when their parent is expanded or by a
      frontier sweep after an admission.  A pruned node is never read.
    """

    nodes_visited: int = 0
    records_visited: int = 0
    records_pruned: int = 0
    nodes_pruned: int = 0
    heap_pushes: int = 0
    candidate_count: int = 0
    extra: dict = field(default_factory=dict)


def _grow(array: np.ndarray, size: int, needed: int) -> np.ndarray:
    """``array`` with room for ``needed`` leading rows, keeping the first ``size``."""
    if needed <= array.shape[0]:
        return array
    grown = np.empty((max(needed, 2 * array.shape[0]),) + array.shape[1:], dtype=array.dtype)
    grown[:size] = array[:size]
    return grown


class _Frontier:
    """The traversal's max-heap over array-backed entries.

    Every pushed entry owns a slot holding its row (a record or an MBB top
    corner), its dominator count, and whether it is a record and still live.
    The heap orders ``(-key, slot, handle)``, so equal keys pop in push order.
    """

    def __init__(self, dimension: int):
        self.rows = np.empty((64, dimension), dtype=float)
        self.counts = np.empty(64, dtype=np.int64)
        self.live = np.empty(64, dtype=bool)
        self.is_record = np.empty(64, dtype=bool)
        self.size = 0
        self.heap: list[tuple[float, int, object]] = []

    def push(self, is_record: bool, handles: list, rows, keys, counts) -> None:
        start, end = self.size, self.size + len(handles)
        self.rows = _grow(self.rows, start, end)
        self.counts = _grow(self.counts, start, end)
        self.live = _grow(self.live, start, end)
        self.is_record = _grow(self.is_record, start, end)
        self.rows[start:end] = rows
        self.counts[start:end] = counts
        self.live[start:end] = True
        self.is_record[start:end] = is_record
        for slot, priority, handle in zip(range(start, end), keys.tolist(), handles):
            heapq.heappush(self.heap, (-priority, slot, handle))
        self.size = end

    def pop(self) -> tuple[int, object] | None:
        """The live entry with the largest key as ``(slot, handle)``."""
        while self.heap:
            _, slot, handle = heapq.heappop(self.heap)
            if self.live[slot]:
                self.live[slot] = False
                return slot, handle
        return None

    def sweep(self, member: np.ndarray, k: int, dominator_counts) -> np.ndarray:
        """Count a new ``(1, d)`` member against every live entry; the slots
        it brings to ``k`` dominators are killed and returned."""
        slots = np.flatnonzero(self.live[: self.size])
        if not slots.size:
            return slots
        self.counts[slots] += dominator_counts(self.rows[slots], member)
        dead = slots[self.counts[slots] >= k]
        self.live[dead] = False
        return dead


def bbs_candidates(
    tree: RTree,
    k: int,
    *,
    key: Callable[[np.ndarray], np.ndarray],
    dominator_counts: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> tuple[np.ndarray, np.ndarray, BBSStatistics]:
    """Run the BBS traversal and return the candidate superset.

    Parameters
    ----------
    tree:
        R-tree over the dataset: anything with ``read_root``/``read_node``
        (:class:`~repro.index.rtree.RTree` over any copy of its pages, and
        :class:`~repro.colstore.pages.PagedRTree`).
    k:
        Skyband parameter: elements dominated by ``k`` or more current
        members are pruned.
    key:
        ``rows (n, d) -> (n,)`` monotone scoring; nodes are keyed by their
        MBB top corner.
    dominator_counts:
        ``(rows (n, d), members (m, d)) -> (n,)`` number of members
        dominating each row; ``m`` may be zero.

    Returns
    -------
    (indices, rows, stats)
        Candidate record indices (in pop order), their attribute rows as one
        ``(c, d)`` matrix and traversal statistics.
    """
    stats = BBSStatistics()
    members = np.empty((16, tree.dimension or 0), dtype=float)
    member_ids: list[int] = []
    root, corner = tree.read_root()
    if corner is None:
        return np.zeros(0, dtype=int), members[:0].copy(), stats

    frontier = _Frontier(members.shape[1])
    top = corner.reshape(1, -1)
    frontier.push(False, [root], top, key(top), 0)
    stats.heap_pushes += 1
    while (popped := frontier.pop()) is not None:
        slot, handle = popped
        if frontier.is_record[slot]:
            stats.records_visited += 1
            count = len(member_ids)
            members = _grow(members, count, count + 1)
            members[count] = frontier.rows[slot]
            member_ids.append(int(handle))
            dead = frontier.sweep(members[count : count + 1], k, dominator_counts)
            dead_records = int(np.count_nonzero(frontier.is_record[dead]))
            stats.records_pruned += dead_records
            stats.nodes_pruned += dead.size - dead_records
            continue
        stats.nodes_visited += 1
        is_leaf, handles, corners = tree.read_node(handle)
        counts = dominator_counts(corners, members[: len(member_ids)])
        keep = np.flatnonzero(counts < k)
        if is_leaf:
            stats.records_pruned += len(handles) - keep.size
        else:
            stats.nodes_pruned += len(handles) - keep.size
        if keep.size:
            rows = corners[keep]
            frontier.push(is_leaf, [handles[i] for i in keep.tolist()], rows, key(rows),
                          counts[keep])
            stats.heap_pushes += keep.size

    stats.candidate_count = len(member_ids)
    tree.count_access("search", stats.nodes_visited)
    return np.asarray(member_ids, dtype=int), members[: len(member_ids)].copy(), stats
