"""Mutable record storage with stable identifiers.

The static stack identifies a record by its row position in an immutable
``(n, d)`` matrix.  Under insertions and deletions positions shift, so the
dynamic subsystem stores records in a :class:`RecordStore`: an
amortized-growth buffer in which every record keeps the id it was assigned at
insertion for its whole lifetime.  Deletion tombstones the row (ids are never
reused), so cached answers, r-skyband graphs and R-tree entries all keep
referring to stable ids across any update sequence.

The store deliberately exposes the raw buffer prefix (:attr:`matrix`): the
serving engine hands it to the algorithm layer, whose index-driven filtering
only ever reads rows that are reachable through the R-tree — tombstoned rows
are physically present but unreachable.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import InvalidDatasetError, StorageError


class RecordStore:
    """A growable ``(n, d)`` record buffer with stable ids and tombstones.

    Parameters
    ----------
    values:
        Initial ``(n, d)`` matrix; record ``i`` of it receives id ``i``.
    capacity:
        Optional initial buffer capacity (grows geometrically when exceeded).

    **Storage-backend contract.**  This class is the heap backend
    (``UTKEngine(store="memory")``).  Every other storage backend —
    :class:`~repro.serve.shm.SharedRecordStore` over shared memory,
    :class:`~repro.colstore.store.ColumnarRecordStore` over memory-mapped
    column files — is this class plus overrides of two groups of hooks:

    * the bytes: :meth:`_allocate` produces the backing arrays for one
      capacity generation and :meth:`_discard` releases the generation a
      grow retired;
    * the worker descriptor and lifetime: :meth:`worker_location` and
      :meth:`publish_tree` say where query worker processes find the record
      buffer and a copy of the engine's R-tree pages, :meth:`segment_names`
      lists the shared-memory segments for crash cleanup, and :meth:`close`
      releases everything the store created.

    All id assignment, tombstoning, bounds/validity checks and the geometric
    growth schedule stay in this base class, so backends cannot diverge on
    semantics — only on where the bytes live.  The engine never asks which
    backend it holds.
    """

    #: Geometric growth factor: both the initial headroom over ``values`` and
    #: every :meth:`_grow` step multiply capacity by this, so ``n`` inserts
    #: cost O(n) amortized copying for every backend.
    GROWTH_FACTOR = 2

    #: Smallest capacity ever allocated (keeps tiny stores from re-growing
    #: on their first few inserts).
    MIN_CAPACITY = 16

    def __init__(self, values, *, capacity: int | None = None):
        values = np.asarray(values, dtype=float)
        if values.ndim != 2:
            raise InvalidDatasetError("record store expects an (n, d) matrix")
        n, d = values.shape
        size = max(capacity or 0, self._next_capacity(n))
        self._buffer, self._active = self._allocate(size, d)
        self._buffer[:n] = values
        self._active[:n] = True
        self._count = n
        self._n_active = n

    @classmethod
    def _next_capacity(cls, occupied: int) -> int:
        """The geometric over-allocation target for ``occupied`` records."""
        return max(occupied * cls.GROWTH_FACTOR, cls.MIN_CAPACITY)

    def _allocate(self, size: int, d: int) -> tuple[np.ndarray, np.ndarray]:
        """Allocate one capacity generation: zeroed backing arrays.

        Contract (every storage backend implements exactly this):

        * return a ``(size, d)`` float64 value array and a ``(size,)`` bool
          liveness array, both **zero-filled** and indexable/assignable with
          ordinary numpy semantics (views over shared memory, transposed
          views over memory-mapped column files, ... are all fine);
        * the arrays must stay valid until passed to :meth:`_discard` — the
          base class never re-allocates behind the backend's back;
        * called once from ``__init__`` and once per :meth:`_grow`, so a
          backend that needs per-generation resources (segment names,
          on-disk files) should create them here keyed by generation.
        """
        return np.zeros((size, d), dtype=float), np.zeros(size, dtype=bool)

    def _discard(self, buffer: np.ndarray, active: np.ndarray) -> None:
        """Release the capacity generation a :meth:`_grow` just replaced.

        Contract: ``buffer``/``active`` are exactly the arrays a prior
        :meth:`_allocate` returned, already copied into the new generation.
        Backends unlink the backing resource here (shm segment, mmap file);
        per POSIX semantics existing mappings stay readable in processes
        that attached the retired generation, while *new* attachments fail
        and trigger the stale-descriptor retry protocol.  The in-memory
        backend lets the garbage collector do the work.
        """

    # ------------------------------------------------------------------ views
    @property
    def dimensionality(self) -> int:
        """Number of attributes ``d``."""
        return self._buffer.shape[1]

    @property
    def matrix(self) -> np.ndarray:
        """The buffer prefix holding every id ever assigned (incl. tombstones)."""
        return self._buffer[: self._count]

    @property
    def high_water(self) -> int:
        """One past the largest id ever assigned."""
        return self._count

    def __len__(self) -> int:
        """Number of *active* (not deleted) records."""
        return self._n_active

    def is_active(self, record_id: int) -> bool:
        """Whether ``record_id`` exists and has not been deleted."""
        record_id = int(record_id)
        return 0 <= record_id < self._count and bool(self._active[record_id])

    def row(self, record_id: int) -> np.ndarray:
        """Attribute row of an active record (copy)."""
        if not self.is_active(record_id):
            raise KeyError(f"record {record_id} is not active")
        return self._buffer[int(record_id)].copy()

    def column(self, axis: int) -> np.ndarray:
        """One attribute column over the id prefix (zero-copy view).

        Columnar backends override this with a contiguous on-disk view; here
        it is a strided view into the row-major buffer.
        """
        if not 0 <= axis < self.dimensionality:
            raise IndexError(f"column {axis} out of range for d={self.dimensionality}")
        return self._buffer[: self._count, axis]

    def active_mask(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Liveness flags for ids ``[start, stop)`` (read-only intent, view).

        Lets chunked consumers (the streaming bulk loader, ``repro inspect``)
        scan liveness without materializing :meth:`active_ids` at once.
        """
        stop = self._count if stop is None else min(int(stop), self._count)
        return self._active[start:stop]

    def active_ids(self) -> np.ndarray:
        """Ids of all active records, ascending."""
        return np.flatnonzero(self._active[: self._count])

    def active_values(self) -> np.ndarray:
        """Rows of all active records, in :meth:`active_ids` order (copy)."""
        return self._buffer[self.active_ids()].copy()

    def snapshot(self) -> tuple[np.ndarray, np.ndarray]:
        """``(ids, values)`` of the active records — the rebuild reference.

        A static engine built from ``values`` answers in row positions;
        ``ids[position]`` maps those back into this store's stable id space.
        """
        ids = self.active_ids()
        return ids, self._buffer[ids].copy()

    # ---------------------------------------------------------------- updates
    def insert(self, row) -> int:
        """Append a record and return its freshly assigned id."""
        row = np.asarray(row, dtype=float).reshape(-1)
        if row.shape[0] != self.dimensionality:
            raise InvalidDatasetError(
                f"record has {row.shape[0]} attributes, store holds {self.dimensionality}"
            )
        if not np.all(np.isfinite(row)):
            raise InvalidDatasetError("record contains NaN or infinite values")
        if self._count == self._buffer.shape[0]:
            self._grow()
        record_id = self._count
        self._buffer[record_id] = row
        self._active[record_id] = True
        self._count += 1
        self._n_active += 1
        return record_id

    def extend(self, rows) -> np.ndarray:
        """Append a chunk of records at once; returns their assigned ids.

        Semantically ``[insert(row) for row in rows]``, but one bounds check
        and one buffer write per chunk — the bulk-ingestion path for
        streaming builders that feed millions of rows.
        """
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != self.dimensionality:
            raise InvalidDatasetError(
                f"extend expects an (m, {self.dimensionality}) matrix"
            )
        if not np.all(np.isfinite(rows)):
            raise InvalidDatasetError("records contain NaN or infinite values")
        m = rows.shape[0]
        while self._count + m > self._buffer.shape[0]:
            self._grow()
        ids = np.arange(self._count, self._count + m)
        self._buffer[self._count:self._count + m] = rows
        self._active[self._count:self._count + m] = True
        self._count += m
        self._n_active += m
        return ids

    def delete(self, record_id: int) -> np.ndarray:
        """Tombstone a record; returns its row (the id is never reused)."""
        if not self.is_active(record_id):
            raise KeyError(f"record {record_id} is not active")
        record_id = int(record_id)
        self._active[record_id] = False
        self._n_active -= 1
        return self._buffer[record_id].copy()

    def _grow(self) -> None:
        size, d = self._buffer.shape
        buffer, active = self._allocate(self._next_capacity(size), d)
        buffer[:size] = self._buffer
        active[:size] = self._active
        old_buffer, old_active = self._buffer, self._active
        self._buffer = buffer
        self._active = active
        self._discard(old_buffer, old_active)

    # ---------------------------------------------------------- worker access
    def worker_location(self) -> dict:
        """The ``buffer``/``count`` entries of the engine's worker descriptor.

        Backends whose bytes other processes can map return where the
        current buffer generation lives (plus a ``kind`` when workers need
        one); heap buffers are private to this process.
        """
        raise StorageError(
            "the in-memory store cannot be attached by worker processes; "
            "use store='shm' or store='colstore'"
        )

    def publish_tree(self, pages: np.ndarray, meta: dict, generation: int) -> dict:
        """Publish a copy of the R-tree's page array for workers.

        ``pages`` is :attr:`RTree.pages <repro.index.rtree.RTree.pages>` as
        it is and ``meta`` its page meta; workers read the copy with the
        same page reader.  Returns the ``tree`` manifest of the worker
        descriptor and retires the tree this store published before, so at
        most one is live.  ``generation`` is the engine's update sequence
        the tree reflects.
        """
        raise StorageError(
            "the in-memory store cannot publish a tree to worker processes; "
            "use store='shm' or store='colstore'"
        )

    def segment_names(self) -> list[str]:
        """Names of the shared-memory segments backing this store (none here)."""
        return []

    def close(self) -> None:
        """Release everything this store created (idempotent; the heap
        buffers go with the garbage collector)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RecordStore(active={self._n_active}, high_water={self._count}, "
                f"d={self.dimensionality})")
