"""Incremental r-skyband maintenance under record insertion and deletion.

The r-skyband of a region ``R`` (records r-dominated by fewer than ``k``
others) is the expensive filtering product the serving engine caches.  This
module repairs a cached :class:`~repro.core.rskyband.RSkyband` for a single
dataset update instead of recomputing it, using two standard properties of
(transitive) r-dominance:

* **Membership is decidable inside the skyband** — a record has ``>= k``
  r-dominators in the dataset iff it has ``>= k`` r-dominators among the
  skyband members (every dominator chain ends in members), so an inserted
  record can be classified against the cached members alone.
* **A deleted record's influence is bounded by its descendants** — removing
  ``q`` can only lower the dominator counts of records ``q`` r-dominated, so
  the post-delete skyband is contained in ``(members - q) ∪ descendants(q)``
  and one scoped re-filter over that small candidate set is exact.

Three outcomes exist:

* ``"noop"`` — provably unaffected (inserted record r-dominated by ``>= k``
  members; deleted record not a member).  The cached object is returned
  unchanged, so callers can also keep any *result* derived from it.
* ``"patched"`` — an inserted record joins: its graph row/column is computed
  against the members (``O(m)`` r-dominance tests) and spliced into the
  cached adjacency; members it pushes to ``k`` dominators are evicted.
* ``"refiltered"`` — a deleted member: the scoped candidate set is re-run
  through :func:`~repro.core.rskyband.skyband_from_candidates`.

Every repair is exact: the repaired skyband equals (same members, rows,
r-dominance graph) a from-scratch recomputation over the updated dataset.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.dominance import DOMINANCE_TOL, RDominance
from repro.core.rskyband import RSkyband, skyband_from_candidates

#: Repair outcome kinds, in increasing order of work performed.
KIND_NOOP = "noop"
KIND_PATCHED = "patched"
KIND_REFILTERED = "refiltered"


@dataclass(frozen=True)
class SkybandRepair:
    """Outcome of one incremental repair.

    ``skyband`` is the repaired object (the original instance when
    ``changed`` is false); ``kind`` records which path produced it.
    """

    skyband: RSkyband
    changed: bool
    kind: str


def repair_insert(
    skyband: RSkyband, record_id: int, row, k: int, *, tol: float = DOMINANCE_TOL
) -> SkybandRepair:
    """Repair a cached skyband for the insertion of record ``record_id``.

    ``row`` is the inserted record's attribute row in the same (transformed)
    space as ``skyband.values``; ``record_id`` must be a fresh id not already
    present.  Returns a no-op when the record is r-dominated by at least
    ``k`` members; otherwise splices it into the member set and graph and
    evicts members whose dominator count it pushes to ``k``.
    """
    record_id = int(record_id)
    row = np.asarray(row, dtype=float).reshape(-1)
    tester = RDominance(skyband.region, tol)
    if skyband.size:
        dominators = tester.dominators_mask(row[None, :], skyband.values)[0]
        if int(dominators.sum()) >= k:
            return SkybandRepair(skyband=skyband, changed=False, kind=KIND_NOOP)
        dominated = tester.dominators_mask(skyband.values, row[None, :])[:, 0]
    else:
        dominators = np.zeros(0, dtype=bool)
        dominated = np.zeros(0, dtype=bool)

    # Members' dataset-wide dominator counts are their ancestor-set sizes;
    # the insertion adds one to every member the new record r-dominates.
    counts = np.fromiter(
        (len(skyband.ancestors[int(i)]) for i in skyband.indices), dtype=int, count=skyband.size
    )
    keep = (counts + dominated.astype(int)) < k
    survivors = np.flatnonzero(keep)

    old_indices = skyband.indices[survivors]
    position = int(np.searchsorted(old_indices, record_id))
    indices = np.insert(old_indices, position, record_id)
    values = np.insert(skyband.values[survivors], position, row, axis=0)

    # Splice the new record's graph row/column into the surviving adjacency.
    # Its dominators all survive (an evicted member is one the new record
    # r-dominates, which excludes dominating it back).
    count = survivors.size + 1
    adjacency = np.zeros((count, count), dtype=bool)
    others = np.delete(np.arange(count), position)
    adjacency[np.ix_(others, others)] = skyband.adjacency[np.ix_(survivors, survivors)]
    adjacency[others, position] = dominators[survivors]
    adjacency[position, others] = dominated[survivors]

    # Splice the ancestor/descendant dicts the same way — O(m) set updates
    # instead of rebuilding the whole graph.  No survivor has an evicted
    # member as ancestor (it would have been evicted too), so only the
    # *descendant* sets need the evicted ids removed.
    evicted = frozenset(int(i) for i in skyband.indices[~keep])
    ancestors = {}
    descendants = {}
    for local in survivors:
        member = int(skyband.indices[local])
        member_ancestors = skyband.ancestors[member]
        if dominated[local]:
            member_ancestors |= {record_id}
        ancestors[member] = member_ancestors
        member_descendants = skyband.descendants[member] - evicted
        if dominators[local]:
            member_descendants |= {record_id}
        descendants[member] = member_descendants
    ancestors[record_id] = frozenset(
        int(skyband.indices[i]) for i in np.flatnonzero(dominators)
    )
    descendants[record_id] = frozenset(
        int(skyband.indices[i]) for i in np.flatnonzero(dominated) if keep[i]
    )
    stats = replace(skyband.stats, candidate_count=int(indices.shape[0]))
    repaired = RSkyband(
        indices=indices,
        values=values,
        ancestors=ancestors,
        descendants=descendants,
        region=skyband.region,
        stats=stats,
        adjacency=adjacency,
    )
    return SkybandRepair(skyband=repaired, changed=True, kind=KIND_PATCHED)


def repair_delete(
    skyband: RSkyband,
    record_id: int,
    k: int,
    *,
    pool_ids,
    pool_rows,
    tol: float = DOMINANCE_TOL,
) -> SkybandRepair:
    """Repair a cached skyband for the deletion of record ``record_id``.

    ``pool_ids``/``pool_rows`` describe the records that remain in the
    dataset *after* the deletion (ids aligned with rows, in the transformed
    space).  A deleted non-member is a no-op; a deleted member triggers a
    scoped re-filter over the surviving members plus the pool records the
    deleted member r-dominated — the only records whose dominator count the
    deletion lowered, hence an exact candidate superset.
    """
    record_id = int(record_id)
    if not skyband.has_member(record_id):
        return SkybandRepair(skyband=skyband, changed=False, kind=KIND_NOOP)
    pool_ids = np.asarray(pool_ids, dtype=int)
    pool_rows = np.asarray(pool_rows, dtype=float)
    if pool_rows.size == 0:
        pool_rows = pool_rows.reshape(0, skyband.values.shape[1])

    row = skyband.row_of(record_id)
    keep = skyband.indices != record_id
    member_idx = skyband.indices[keep]
    member_rows = skyband.values[keep]

    dominated = RDominance(skyband.region, tol).dominators_mask(pool_rows, row[None, :])[:, 0]
    member_set = {int(i) for i in member_idx}
    extra = [p for p in np.flatnonzero(dominated) if int(pool_ids[p]) not in member_set]

    candidate_idx = np.concatenate([member_idx, pool_ids[extra]])
    candidate_rows = np.vstack([member_rows, pool_rows[extra]])
    repaired = skyband_from_candidates(candidate_idx, candidate_rows, skyband.region, k, tol=tol)
    return SkybandRepair(skyband=repaired, changed=True, kind=KIND_REFILTERED)
