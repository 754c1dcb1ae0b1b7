"""The serving-tier engine: shared record buffers and striped caches.

:class:`ServeEngine` is a :class:`~repro.dynamic.engine.DynamicUTKEngine`
re-plumbed for concurrent traffic.  The query path, the update path and the
seqlock that keeps cache writes exact across them are the base engines';
this class adds only three things:

* the record store backends: the dataset lives in a
  :class:`~repro.serve.shm.SharedRecordStore` (or, with
  ``store_backend="colstore"``, in memory-mapped column files);
* the stripe count of the four engine caches
  (:class:`~repro.engine.cache.StripedCache`), so warm queries touching
  different region-hash stripes never contend and an update's maintenance
  sweep blocks one stripe at a time;
* the descriptors: :meth:`shared_descriptor` publishes the record buffer
  (plus a lazily re-packed R-tree) so query workers attach zero-copy
  instead of rebuilding, and :meth:`shm_segment_names` lists the segments
  for crash cleanup.

Per-stripe epochs are observable state: every sweep that changed a stripe
advances its epoch, exported via :meth:`statistics` and the
``repro_stripe_epoch`` gauge.
"""

from __future__ import annotations

import numpy as np

from repro.dynamic.engine import DynamicUTKEngine
from repro.engine.cache import DEFAULT_STRIPES
from repro.exceptions import InvalidQueryError
from repro.serve.shm import SharedRecordStore, pack_arrays

#: Cache names in the order :meth:`ServeEngine.stripe_epochs` reports them.
CACHE_NAMES = ("skyband", "utk1", "utk2", "k_skyband")


class ServeEngine(DynamicUTKEngine):
    """Concurrency-ready dynamic engine (see module docstring).

    Parameters beyond :class:`DynamicUTKEngine`:

    stripes:
        Stripe count of each engine cache (see
        :data:`~repro.engine.cache.DEFAULT_STRIPES` and the CONTRIBUTING
        notes on tuning).
    store_backend:
        ``"shm"`` (default) keeps records in shared-memory segments and
        packs the R-tree into one; ``"colstore"`` keeps both in
        memory-mapped files under ``store_dir`` — query workers then attach
        the files directly (no ``/dev/shm`` usage, datasets beyond RAM).
    store_dir:
        Directory of the colstore backend.  Defaults to a private temp
        directory that is removed on :meth:`close`; pass an explicit path to
        persist the store past the engine.
    """

    def __init__(
        self,
        data,
        *,
        scoring=None,
        cache_size: int = 128,
        stripes: int = DEFAULT_STRIPES,
        parallel_workers: int = 0,
        parallel_min_candidates: int = 48,
        store_backend: str = "shm",
        store_dir=None,
    ):
        if store_backend not in ("shm", "colstore"):
            raise InvalidQueryError(
                f"unknown store backend {store_backend!r} (shm|colstore)"
            )
        # Consumed by the cache construction and _make_store during
        # super().__init__.
        self._cache_stripes = int(stripes)
        self._store_backend = store_backend
        self._store_dir = store_dir
        self._store_tempdir = None
        self._packed_segment = None
        self._packed_path = None
        self._packed_manifest: dict | None = None
        self._packed_generation = -1
        super().__init__(
            data,
            scoring=scoring,
            cache_size=cache_size,
            parallel_workers=parallel_workers,
            parallel_min_candidates=parallel_min_candidates,
        )

    # ----------------------------------------------------------- construction
    def _make_store(self, values):
        if self._store_backend == "colstore":
            import tempfile

            from repro.colstore.store import ColumnarRecordStore

            if self._store_dir is None:
                self._store_tempdir = tempfile.mkdtemp(prefix="repro-colstore-")
                self._store_dir = self._store_tempdir
            return ColumnarRecordStore(values, directory=self._store_dir)
        return SharedRecordStore(values)

    # --------------------------------------------------------- shared dataset
    def shared_descriptor(self) -> dict:
        """Attachment descriptor for zero-copy query workers.

        Packs the R-tree into a fresh shared segment when (and only when)
        an update batch ran since the last pack; the record buffer
        is already shared.  The previous pack's segment is unlinked — late
        workers holding its mapping finish fine, new attachments of a stale
        descriptor fail with :class:`FileNotFoundError` and retry with a
        fresh descriptor (see :func:`repro.serve.workers.worker_query`).
        """
        with self._lock:
            # Even here: an update holds the engine lock while it is odd.
            generation = self._update_seq
            if self._packed_manifest is None or self._packed_generation != generation:
                flat = self._tree.flatten()
                if self._store_backend == "colstore":
                    from pathlib import Path

                    from repro.colstore.pages import META_SUFFIX, write_pages

                    path = Path(self._store_dir) / f"rtree.g{generation}.pages"
                    meta = write_pages(path, flat)
                    previous_path = self._packed_path
                    self._packed_path = path
                    self._packed_manifest = {"path": str(path), "meta": meta}
                    self._packed_generation = generation
                    if previous_path is not None and previous_path != path:
                        for stale in (previous_path,
                                      Path(str(previous_path) + META_SUFFIX)):
                            try:
                                stale.unlink()
                            except FileNotFoundError:
                                pass
                else:
                    arrays = {
                        key: value for key, value in flat.items()
                        if isinstance(value, np.ndarray)
                    }
                    meta = {"dimension": flat["dimension"], "size": flat["size"]}
                    segment, manifest = pack_arrays(arrays, meta=meta)
                    previous = self._packed_segment
                    self._packed_segment = segment
                    self._packed_manifest = manifest
                    self._packed_generation = generation
                    if previous is not None:
                        previous.close()
            descriptor = {
                "generation": int(self._packed_generation),
                "tree": self._packed_manifest,
                "buffer": (self._store.mmap_location()
                           if self._store_backend == "colstore"
                           else self._store.shared_location()),
                "count": int(self._store.high_water),
            }
            if self._store_backend == "colstore":
                descriptor["kind"] = "colstore"
                self._store.sync()
            return descriptor

    def shm_segment_names(self) -> list[str]:
        """Every shared segment currently backing this engine, by name.

        The serving front-end persists this set alongside the WAL (the shm
        manifest) so a restart after ``SIGKILL`` can unlink the orphaned
        segments the dead process never cleaned up.
        """
        with self._lock:
            names = self._store.segment_names()
            if self._packed_segment is not None:
                names.append(self._packed_segment.name)
        return names

    # ------------------------------------------------------------------ stats
    def stripe_epochs(self) -> dict[str, list[int]]:
        """Per-cache, per-stripe epoch snapshot (for metrics export)."""
        caches = (self._skybands, self._utk1_cache, self._utk2_cache,
                  self._traditional_skybands)
        return {name: cache.epochs() for name, cache in zip(CACHE_NAMES, caches)}

    def statistics(self) -> dict:
        merged = super().statistics()
        merged["serve"] = {
            "update_seq": self._update_seq,
            "stripes": self._cache_stripes,
            "stripe_epochs": self.stripe_epochs(),
        }
        return merged

    def close(self) -> None:
        """Release the worker pool, shared segments and temp store files."""
        super().close()
        segment, self._packed_segment = self._packed_segment, None
        self._packed_manifest = None
        if segment is not None:
            segment.close()
        self._store.close()
        if self._store_tempdir is not None:
            import shutil

            shutil.rmtree(self._store_tempdir, ignore_errors=True)
            self._store_tempdir = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ServeEngine(active={len(self._store)}, stripes={self._cache_stripes}, "
            f"updates={self.update_stats.updates_applied}, "
            f"queries={self.stats.queries})"
        )
