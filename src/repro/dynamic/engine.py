"""Update-aware query serving: :class:`DynamicUTKEngine`.

A :class:`~repro.engine.engine.UTKEngine` binds to an immutable dataset; the
only way to change the data is to rebuild the engine (R-tree bulk load, every
r-skyband recomputed, every cache cold).  ``DynamicUTKEngine`` keeps the full
serving stack exact under record insertion and deletion:

* the dataset lives in a :class:`~repro.dynamic.store.RecordStore` (stable
  ids, tombstoned deletes) and the shared R-tree is maintained in place with
  :meth:`~repro.index.rtree.RTree.insert` / ``delete``;
* every cached r-skyband is *repaired* through
  :mod:`repro.dynamic.maintenance` — a provable no-op costs ``O(m)``
  r-dominance tests, a real change patches the member set and graph in place;
* cached UTK1/UTK2 results are kept whenever the update provably did not
  touch their region's r-skyband (classified against the same-key skyband,
  or any cached containing skyband) and surgically evicted otherwise —
  replacing the all-or-nothing ``clear_caches()``.

Answers stay exact: after any update sequence, every query equals the answer
of a fresh engine rebuilt from the post-update dataset (with stable ids
mapped through :meth:`snapshot`).

Updates mutate shared state and therefore run under the engine lock, which
the base engine's index-touching paths (cold r-skyband filtering, the
traditional k-skyband) also take — an R-tree being condensed by a delete
must never be traversed concurrently.  Every batch makes the base engine's
seqlock (``_update_seq``) odd before its first mutation and even again after
its last sweep, both inside that lock.  Warm serving (cache hits,
containment clipping, refinement over an already-extracted skyband) takes no
engine lock; a query racing an update may therefore still *serve* the
pre-update answer (it was correct when the query arrived), but the seqlock
drops its cache writes, so post-update queries always see repaired (or
recomputed) state.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.core.dominance import RDominance
from repro.core.region import Region
from repro.core.result import UTK1Result, UTK2Result
from repro.dynamic.maintenance import KIND_NOOP, SkybandRepair, repair_delete, repair_insert
from repro.dynamic.store import RecordStore
from repro.engine.engine import UTKEngine, _SkybandEntry
from repro.exceptions import InvalidQueryError
from repro.index.rtree import RTree
from repro.kernels.dominance import dominators_mask
from repro.obs import runtime as _obs
from repro.obs import names as _metric_names
from repro.obs.trace import span

#: Update operations accepted by :meth:`DynamicUTKEngine.apply_updates`.
OP_INSERT = "insert"
OP_DELETE = "delete"


@dataclass
class UpdateStatistics:
    """Counters describing the maintenance work of an engine's lifetime.

    ``entries_repaired``/``entries_noop`` count cached r-skybands patched vs
    proven unaffected; ``entries_evicted`` counts cached results (and
    traditional skybands) that had to be dropped; ``results_retained`` counts
    the cached results that survived an update untouched.
    """

    updates_applied: int = 0
    inserts: int = 0
    deletes: int = 0
    entries_repaired: int = 0
    entries_noop: int = 0
    entries_evicted: int = 0
    results_retained: int = 0

    def as_dict(self) -> dict:
        """Plain-dict view merged into :meth:`DynamicUTKEngine.statistics`."""
        return dataclasses.asdict(self)


class DynamicUTKEngine(UTKEngine):
    """A UTK serving engine that stays exact under insert/delete streams.

    Construction matches :class:`~repro.engine.engine.UTKEngine`; records of
    the initial dataset receive ids ``0..n-1`` and every insertion returns a
    fresh, never-reused id.  Results are reported in this stable id space.
    An R-tree is always maintained (regardless of dataset size), so the
    filtering step only ever reaches live records.
    """

    def __init__(
        self,
        data,
        *,
        scoring=None,
        cache_size: int = 128,
        parallel_workers: int = 0,
        parallel_min_candidates: int = 48,
    ):
        super().__init__(
            data,
            scoring=scoring,
            cache_size=cache_size,
            index_threshold=0,
            parallel_workers=parallel_workers,
            parallel_min_candidates=parallel_min_candidates,
        )
        self._store = self._make_store(self._values)
        self._values = self._store.matrix
        if self._tree is None:  # empty initial matrix: below every threshold
            self._tree = RTree(self._values)
        self.update_stats = UpdateStatistics()

    def _make_store(self, values) -> RecordStore:
        """Store factory; the serve tier substitutes a shared-memory or
        columnar store.  The maintained R-tree stays in memory either way —
        only the record bytes move to the backend."""
        return RecordStore(values)

    # ----------------------------------------------------------------- views
    @property
    def store(self) -> RecordStore:
        """The backing record store (stable ids, tombstoned deletes)."""
        return self._store

    def active_ids(self) -> np.ndarray:
        """Ids of the records currently in the dataset, ascending."""
        return self._store.active_ids()

    def snapshot(self) -> tuple[np.ndarray, np.ndarray]:
        """``(ids, values)`` of the live dataset in the *transformed* space.

        A fresh engine built from ``values`` (with the identity scoring —
        the transform is already applied) answers in row positions;
        ``ids[position]`` maps them back to this engine's stable ids.  The
        exactness tests and the dynamic benchmark rebuild from exactly this.
        """
        return self._store.snapshot()

    # --------------------------------------------------------------- updates
    def insert(self, row) -> int:
        """Insert one record (raw attribute space); returns its stable id."""
        return self.apply_updates([(OP_INSERT, row)])["inserted_ids"][0]

    def delete(self, record_id: int) -> None:
        """Delete the record with the given stable id."""
        self.apply_updates([(OP_DELETE, record_id)])

    def apply_updates(self, updates) -> dict:
        """Apply a batch of updates, repairing caches surgically.

        ``updates`` is an iterable of ``("insert", row)`` / ``("delete", id)``
        pairs or of mappings ``{"op": "insert", "values": [...]}`` /
        ``{"op": "delete", "id": ...}`` (the ``repro stream`` event shape).
        Returns a report with the counters accumulated over this batch
        (:meth:`UpdateStatistics.as_dict` keys) plus the ids assigned to
        inserted records, in order.

        The batch is validated before anything is applied (update shapes,
        record dimensionality/finiteness, delete targets live through the
        batch), so a malformed batch raises without mutating any state.
        """
        normalized = [self._normalize_update(update) for update in updates]
        batch = UpdateStatistics()
        inserted_ids: list[int] = []
        with span("dynamic.apply_updates", updates=len(normalized)), self._lock:
            self._validate_batch(normalized)
            # Odd before the first mutation, even only after the last sweep:
            # an in-flight query that began against the pre-update state
            # must not write its (possibly stale) results into the caches.
            self._update_seq += 1
            try:
                for op, payload in normalized:
                    if op == OP_INSERT:
                        inserted_ids.append(self._apply_insert(payload, batch))
                        batch.inserts += 1
                    else:
                        self._apply_delete(payload, batch)
                        batch.deletes += 1
                    batch.updates_applied += 1
            finally:
                self._update_seq += 1
                # Even if an update fails unexpectedly mid-batch, the engine
                # counters must reflect the prefix that was applied.
                for field in dataclasses.fields(UpdateStatistics):
                    setattr(self.update_stats, field.name,
                            getattr(self.update_stats, field.name) + getattr(batch, field.name))
                self._publish_maintenance(batch)
        return {**batch.as_dict(), "inserted_ids": inserted_ids}

    @staticmethod
    def _publish_maintenance(batch: UpdateStatistics) -> None:
        """Fold one batch's maintenance tallies into the registry schema.

        The legacy ``UpdateStatistics`` keys map onto two labeled series:
        ``inserts``/``deletes`` ↔ ``repro_maintenance_updates_total{op}`` and
        ``entries_repaired``/``entries_noop``/``entries_evicted``/
        ``results_retained`` ↔ ``repro_maintenance_outcomes_total{kind}``.
        """
        if not _obs._ENABLED:
            return
        _metric_names.MAINTENANCE_UPDATES.inc(batch.inserts, op="insert")
        _metric_names.MAINTENANCE_UPDATES.inc(batch.deletes, op="delete")
        _metric_names.MAINTENANCE_OUTCOMES.inc(batch.entries_repaired, kind="repaired")
        _metric_names.MAINTENANCE_OUTCOMES.inc(batch.entries_noop, kind="noop")
        _metric_names.MAINTENANCE_OUTCOMES.inc(batch.entries_evicted, kind="evicted")
        _metric_names.MAINTENANCE_OUTCOMES.inc(batch.results_retained, kind="retained")

    def validate_updates(self, updates) -> None:
        """Run :meth:`apply_updates`'s up-front checks without applying.

        Callers that must persist an update *before* applying it (the
        serving tier's write-ahead log) use this to reject malformed events
        first, so nothing unapplyable is ever written to the log.  Raises
        exactly what :meth:`apply_updates` would have raised pre-mutation.
        """
        normalized = [self._normalize_update(update) for update in updates]
        with self._lock:
            self._validate_batch(normalized)

    def _validate_batch(self, normalized: list[tuple[str, object]]) -> None:
        """Reject a batch up front if any update could not be applied.

        Simulates record liveness through the batch: a delete may target an
        id that is active now or one the same batch inserts earlier; a
        repeated or dead target raises :class:`KeyError` before any state
        changed.  Insert rows are checked for shape and finiteness.
        """
        dimensionality = self._store.dimensionality
        virtual_next = self._store.high_water
        born: set[int] = set()
        dead: set[int] = set()
        for op, payload in normalized:
            if op == OP_INSERT:
                try:
                    row = np.asarray(payload, dtype=float).reshape(-1)
                except (TypeError, ValueError) as exc:
                    raise InvalidQueryError(f"insert row is not numeric: {exc}") from exc
                if row.shape[0] != dimensionality:
                    raise InvalidQueryError(
                        f"insert has {row.shape[0]} attributes, dataset holds {dimensionality}"
                    )
                if not np.all(np.isfinite(row)):
                    raise InvalidQueryError("insert contains NaN or infinite values")
                born.add(virtual_next)
                virtual_next += 1
            else:
                try:
                    record_id = int(payload)
                except (TypeError, ValueError) as exc:
                    raise InvalidQueryError(f"delete id is not an integer: {exc}") from exc
                alive = (self._store.is_active(record_id) or record_id in born)
                if not alive or record_id in dead:
                    raise KeyError(f"record {record_id} is not active")
                dead.add(record_id)

    @staticmethod
    def _normalize_update(update) -> tuple[str, object]:
        if isinstance(update, dict):
            op = update.get("op")
            if op == OP_INSERT and "values" in update:
                return OP_INSERT, update["values"]
            if op == OP_DELETE and "id" in update:
                return OP_DELETE, update["id"]
        elif isinstance(update, tuple) and len(update) == 2 and update[0] in (
            OP_INSERT, OP_DELETE
        ):
            return update
        raise InvalidQueryError(
            f"cannot interpret {update!r} as an update; expected "
            "('insert', row) / ('delete', id) or the equivalent mapping"
        )

    # ------------------------------------------------------------- internals
    def _apply_insert(self, raw_row, batch: UpdateStatistics) -> int:
        row = np.asarray(raw_row, dtype=float).reshape(-1)
        transformed = self.scoring.transform(row.reshape(1, -1))[0]
        record_id = self._store.insert(transformed)
        self._values = self._store.matrix
        stored = self._store.row(record_id)
        self._tree.insert(record_id, stored)

        # Repair every cached skyband against the pre-update state first …
        outcomes = {
            key: (entry, repair_insert(entry.skyband, record_id, stored, entry.k))
            for key, entry in self._skybands.scan()
        }

        # … classify cached results while the skyband caches still describe
        # the pre-update dataset (the classification proofs need that state).
        # The verdict depends on the entry only through its (signature, k)
        # key, so utk1/utk2 twins share one donor lookup and dominance pass.
        verdicts: dict = {}

        def survives(key, entry) -> bool:
            if key in verdicts:
                return verdicts[key]
            outcome = outcomes.get(key)
            if outcome is not None:
                verdict = not outcome[1].changed
            else:
                donor = self._find_containing(
                    self._skybands, entry.region, entry.k, allow_larger_k=True
                )
                verdict = donor is not None and int(
                    RDominance(donor.region)
                    .dominators_mask(stored[None, :], donor.skyband.values)
                    .sum()
                ) >= entry.k
            verdicts[key] = verdict
            return verdict

        self._sweep_results(survives, batch)
        self._commit_skybands(outcomes, batch)

        # Traditional (region-free) k-skybands: same membership test with
        # traditional dominance; entries the record provably cannot join are
        # kept, the rest evicted.
        def unaffected(key_k, indices) -> bool:
            rows = self._values[np.asarray(indices, dtype=int)]
            return int(dominators_mask(stored[None, :], rows).sum()) >= key_k

        batch.entries_evicted += self._traditional_skybands.evict_where(
            lambda key_k, indices: not unaffected(key_k, indices)
        )
        return record_id

    def _apply_delete(self, record_id, batch: UpdateStatistics) -> None:
        record_id = int(record_id)
        row = self._store.delete(record_id)  # raises KeyError when not active
        self._values = self._store.matrix
        self._tree.delete(record_id, row)

        # The O(n) pool snapshot is only needed to re-filter skybands the
        # deleted record was a member of; the common non-member delete
        # never pays for it.
        pool = None
        outcomes = {}
        for key, entry in self._skybands.scan():
            if not entry.skyband.has_member(record_id):
                outcomes[key] = (entry, SkybandRepair(entry.skyband, False, KIND_NOOP))
                continue
            if pool is None:
                pool = self._store.snapshot()
            outcomes[key] = (
                entry,
                repair_delete(
                    entry.skyband, record_id, entry.k, pool_ids=pool[0], pool_rows=pool[1]
                ),
            )

        verdicts: dict = {}

        def survives(key, entry) -> bool:
            if key in verdicts:
                return verdicts[key]
            outcome = outcomes.get(key)
            if outcome is not None:
                verdict = not outcome[1].changed
            else:
                donor = self._find_containing(
                    self._skybands, entry.region, entry.k, allow_larger_k=True
                )
                # A containing skyband is a superset of the entry's: the
                # deleted record being no member there proves it was no
                # member here.
                verdict = donor is not None and not donor.skyband.has_member(record_id)
            verdicts[key] = verdict
            return verdict

        self._sweep_results(survives, batch)
        self._commit_skybands(outcomes, batch)

        batch.entries_evicted += self._traditional_skybands.evict_where(
            lambda _key_k, indices: bool(np.any(np.asarray(indices, dtype=int) == record_id))
        )

    def _sweep_results(self, survives, batch: UpdateStatistics) -> None:
        """Evict cached results an update may have invalidated; keep the rest."""
        for cache in (self._utk1_cache, self._utk2_cache):
            total = len(cache)
            evicted = cache.evict_where(lambda key, entry: not survives(key, entry))
            batch.entries_evicted += evicted
            batch.results_retained += total - evicted

    def _commit_skybands(self, outcomes: dict, batch: UpdateStatistics) -> None:
        """Swap repaired skybands into the cache and tally the outcome kinds.

        The swap is in place (:meth:`StripedCache.replace`, which also
        advances the stripe's epoch): maintenance must not record phantom
        cache hits or promote repaired entries over genuinely
        recently-queried ones in the recency order.
        """
        for key, (entry, outcome) in outcomes.items():
            if outcome.changed:
                self._skybands.replace(
                    key, _SkybandEntry(entry.region, entry.k, outcome.skyband)
                )
                batch.entries_repaired += 1
            else:
                batch.entries_noop += 1

    # ------------------------------------------------------------------ stats
    def statistics(self) -> dict:
        """Engine counters plus per-cache and update-maintenance statistics."""
        merged = super().statistics()
        merged["dynamic"] = self.update_stats.as_dict()
        return merged

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DynamicUTKEngine(active={len(self._store)}, "
            f"high_water={self._store.high_water}, "
            f"updates={self.update_stats.updates_applied}, "
            f"queries={self.stats.queries})"
        )


def serve_events(engine: DynamicUTKEngine, events) -> list[dict]:
    """Process an interleaved update/query event stream; returns per-event reports.

    Each event is a mapping: ``{"op": "insert", "values": [...]}`` /
    ``{"op": "delete", "id": ...}`` or ``{"op": "query", "lower": [...],
    "upper": [...], "k": ..., "version": "utk1"|"utk2"|"both"}`` (the exact
    shape the ``repro stream`` CLI reads from JSONL and
    :func:`repro.datasets.synthetic.update_stream` generates).  Query events
    may alternatively carry a prebuilt ``"region"``.
    """
    from repro.core.region import hyperrectangle

    # Streams revisit hot regions; constructing a Region runs a Chebyshev
    # LP, so identical corner pairs are interned instead of rebuilt.
    region_memo: dict[tuple, Region] = {}

    def corners_region(lower, upper) -> Region:
        key = (tuple(float(v) for v in lower), tuple(float(v) for v in upper))
        cached = region_memo.get(key)
        if cached is None:
            cached = region_memo[key] = hyperrectangle(lower, upper)
        return cached

    reports: list[dict] = []
    for number, event in enumerate(events):
        op = event.get("op") if isinstance(event, dict) else None
        if op in (OP_INSERT, OP_DELETE):
            outcome = engine.apply_updates([event])
            record = {"event": number, "op": op,
                      "entries_repaired": outcome["entries_repaired"],
                      "entries_evicted": outcome["entries_evicted"]}
            if op == OP_INSERT:
                record["id"] = outcome["inserted_ids"][0]
            else:
                record["id"] = int(event["id"])
            reports.append(record)
            continue
        if op != "query":
            raise InvalidQueryError(f"event {number}: unknown op {op!r}")
        region = event.get("region")
        if region is None:
            region = corners_region(event["lower"], event["upper"])
        elif not isinstance(region, Region):
            raise InvalidQueryError(f"event {number}: region must be a Region")
        k = int(event["k"])
        version = event.get("version", "utk1")
        if version not in ("utk1", "utk2", "both"):
            raise InvalidQueryError(f"event {number}: unknown version {version!r}")
        record = {"event": number, "op": "query", "k": k, "version": version, "sources": {}}
        first: UTK1Result | None = None
        second: UTK2Result | None = None
        if version in ("utk2", "both"):
            second, record["sources"]["utk2"] = engine.serve_utk2(region, k)
        if version in ("utk1", "both"):
            first, record["sources"]["utk1"] = engine.serve_utk1(region, k)
        if first is not None:
            record["utk1"] = {"records": first.indices}
        if second is not None:
            record["utk2"] = {
                "partitions": len(second),
                "distinct_top_k_sets": sorted(sorted(s) for s in second.distinct_top_k_sets),
            }
        reports.append(record)
    return reports
