"""Memory-mapped columnar record storage: :class:`ColumnarRecordStore`.

The in-memory :class:`~repro.dynamic.store.RecordStore` caps dataset size at
RAM and makes every worker spawn pay full materialization.  This backend
keeps the same contract — stable ids, tombstoned deletes, geometric growth —
but backs the buffer with **memory-mapped column files** on disk:

* each capacity generation is one ``columns.g<N>.bin`` file laid out
  column-major (``(d, capacity)`` C-order), so every column is a contiguous
  on-disk segment.  The :class:`RecordStore`-facing ``(capacity, d)`` buffer
  is the zero-copy transposed view of that mapping — the dominance/halfspace
  kernels run on it directly, and :meth:`column` hands columnar scans a
  contiguous 1-D view, all without a single copy;
* liveness flags live in a parallel ``active.g<N>.bin`` mapping;
* a ``manifest.json`` records the schema version, current generation,
  count/active totals and file names, so :meth:`open` re-attaches a
  persisted directory and :meth:`attach` lets read-only query workers map
  the files directly (no shared-memory segments, no pickling);
* growth allocates the next generation's files and unlinks the retired
  ones — existing mappings in other processes stay valid (POSIX), while a
  stale descriptor's re-attach fails with :class:`FileNotFoundError` and
  triggers the serve tier's refresh-and-retry protocol, exactly like
  retired shm segments.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np

from repro.colstore.pages import META_SUFFIX, write_pages
from repro.dynamic.store import RecordStore
from repro.exceptions import StorageError

#: On-disk manifest schema version (bump on incompatible layout changes).
MANIFEST_SCHEMA = 1

MANIFEST_NAME = "manifest.json"


def _columns_name(generation: int) -> str:
    return f"columns.g{generation}.bin"


def _active_name(generation: int) -> str:
    return f"active.g{generation}.bin"


def _map_columns(path: Path, d: int, capacity: int, mode: str) -> np.memmap:
    return np.memmap(path, dtype=np.float64, mode=mode, shape=(d, capacity))


def _map_active(path: Path, capacity: int, mode: str) -> np.memmap:
    return np.memmap(path, dtype=np.bool_, mode=mode, shape=(capacity,))


class ColumnarRecordStore(RecordStore):
    """A :class:`RecordStore` over memory-mapped per-column files.

    Parameters
    ----------
    values:
        Initial ``(n, d)`` matrix; record ``i`` receives id ``i``.
    directory:
        Directory holding the manifest and the column/liveness files
        (created if missing).  An existing store there is overwritten —
        use :meth:`open` to re-attach one instead.  ``None`` makes a private
        temp directory that :meth:`close` removes.
    capacity:
        Optional initial capacity (grows geometrically when exceeded).
    """

    def __init__(self, values, *, directory=None, capacity: int | None = None):
        # _allocate runs inside super().__init__ and needs this state first
        # (the SharedRecordStore pattern).
        self._tempdir = None
        if directory is None:
            directory = self._tempdir = tempfile.mkdtemp(prefix="repro-colstore-")
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        self._generation = -1
        self._mode = "w+"
        self._columns: np.memmap | None = None
        self._active_map: np.memmap | None = None
        self._tree_path: Path | None = None
        self._closed = False
        super().__init__(values, capacity=capacity)
        self.sync()

    # -------------------------------------------------------- backend hooks
    def _allocate(self, size: int, d: int) -> tuple[np.ndarray, np.ndarray]:
        """Map the next generation's column/liveness files (zero-filled)."""
        generation = self._generation + 1
        columns = _map_columns(self._directory / _columns_name(generation), d, size, "w+")
        active = _map_active(self._directory / _active_name(generation), size, "w+")
        self._generation = generation
        self._columns = columns
        self._active_map = active
        # The transposed view is the (capacity, d) buffer the base class
        # mutates; each logical column stays contiguous on disk.
        return columns.T, active

    def _discard(self, buffer: np.ndarray, active: np.ndarray) -> None:
        """Unlink the retired generation's files (mappings stay valid)."""
        retired = self._generation - 1
        if retired < 0:
            return
        for name in (_columns_name(retired), _active_name(retired)):
            try:
                os.unlink(self._directory / name)
            except FileNotFoundError:
                pass

    # ------------------------------------------------------------- open/attach
    @classmethod
    def from_chunks(cls, chunks, directory, *,
                    capacity: int | None = None) -> "ColumnarRecordStore":
        """Build a store by streaming ``(m, d)`` chunks into the files.

        Peak memory is one chunk (plus the mmap page cache); growth is
        geometric, so ``n`` total rows relink the files O(log n) times.
        """
        iterator = iter(chunks)
        try:
            first = next(iterator)
        except StopIteration:
            raise StorageError("from_chunks needs at least one chunk") from None
        store = cls(first, directory=directory, capacity=capacity)
        for chunk in iterator:
            store.extend(chunk)
        store.sync()
        return store

    @classmethod
    def open(cls, directory, *, mode: str = "r+") -> "ColumnarRecordStore":
        """Re-attach a persisted store directory.

        ``mode="r+"`` opens read-write (inserts/deletes allowed);
        ``mode="r"`` maps read-only for query-only consumers.
        """
        directory = Path(directory)
        manifest = read_manifest(directory)
        store = cls.__new__(cls)
        store._tempdir = None
        store._directory = directory
        store._generation = int(manifest["generation"])
        store._mode = mode
        store._tree_path = None
        store._closed = False
        d, capacity = int(manifest["dimensionality"]), int(manifest["capacity"])
        store._columns = _map_columns(
            directory / manifest["columns_file"], d, capacity, mode
        )
        store._active_map = _map_active(directory / manifest["active_file"], capacity, mode)
        store._buffer = store._columns.T
        store._active = store._active_map
        store._count = int(manifest["count"])
        store._n_active = int(np.count_nonzero(store._active[: store._count]))
        return store

    def insert(self, row) -> int:
        if self._mode == "r":
            raise StorageError("store was opened read-only; re-open with mode='r+'")
        return super().insert(row)

    def extend(self, rows) -> np.ndarray:
        if self._mode == "r":
            raise StorageError("store was opened read-only; re-open with mode='r+'")
        return super().extend(rows)

    def delete(self, record_id: int) -> np.ndarray:
        if self._mode == "r":
            raise StorageError("store was opened read-only; re-open with mode='r+'")
        return super().delete(record_id)

    # --------------------------------------------------------------- columnar
    @property
    def directory(self) -> Path:
        """The directory holding the manifest and column files."""
        return self._directory

    @property
    def generation(self) -> int:
        """Capacity generation (bumps once per grow; names the files)."""
        return self._generation

    def column(self, axis: int) -> np.ndarray:
        """Contiguous zero-copy view of one attribute column (live prefix)."""
        d = self._columns.shape[0]
        if not 0 <= axis < d:
            raise IndexError(f"column {axis} out of range for d={d}")
        return self._columns[axis][: self._count]

    def column_dtypes(self) -> list[str]:
        """Dtype name per column (one homogeneous file per generation)."""
        return [str(self._columns.dtype)] * self._columns.shape[0]

    # ------------------------------------------------------------ persistence
    def manifest(self) -> dict:
        """The manifest payload describing the current on-disk state."""
        return {
            "schema": MANIFEST_SCHEMA,
            "kind": "colstore",
            "generation": self._generation,
            "dimensionality": int(self._columns.shape[0]),
            "capacity": int(self._columns.shape[1]),
            "count": int(self._count),
            "n_active": int(self._n_active),
            "dtype": str(self._columns.dtype),
            "columns_file": _columns_name(self._generation),
            "active_file": _active_name(self._generation),
        }

    def sync(self) -> None:
        """Flush the mappings and rewrite the manifest (crash-consistent:
        the manifest is replaced atomically after the data hit the files)."""
        if self._mode == "r" or self._closed:
            return
        self._columns.flush()
        self._active_map.flush()
        write_manifest(self._directory, self.manifest())

    def close(self) -> None:
        """Flush and drop the mappings and unlink the published tree; the
        directory stays attachable unless it is the private temp one."""
        if self._closed:
            return
        self.sync()
        self._closed = True
        self._columns = None
        self._active_map = None
        if self._tree_path is not None:
            _unlink_pages(self._tree_path)
            self._tree_path = None
        if self._tempdir is not None:
            shutil.rmtree(self._tempdir, ignore_errors=True)

    # ---------------------------------------------------------- worker access
    def mmap_location(self) -> dict:
        """Attachment descriptor for query workers mapping the files directly
        (the colstore analogue of ``SharedRecordStore.shared_location``)."""
        return {
            "kind": "colstore",
            "directory": str(self._directory),
            "columns_file": _columns_name(self._generation),
            "dimensionality": int(self._columns.shape[0]),
            "capacity": int(self._columns.shape[1]),
        }

    def worker_location(self) -> dict:
        """The mmap buffer descriptor, after a flush so attachers see every row."""
        self.sync()
        return {"kind": "colstore", "buffer": self.mmap_location(),
                "count": int(self._count)}

    def publish_tree(self, pages: np.ndarray, meta: dict, generation: int) -> dict:
        """Write the tree's page array as a page file next to the columns;
        unlink the previous one (workers attach it as a :class:`PagedRTree`)."""
        path = self._directory / f"rtree.g{generation}.pages"
        write_pages(path, (pages,), meta)
        previous, self._tree_path = self._tree_path, path
        if previous is not None and previous != path:
            _unlink_pages(previous)
        return {"path": str(path), "meta": meta}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ColumnarRecordStore(active={self._n_active}, high_water={self._count}, "
            f"d={self.dimensionality}, generation={self._generation}, "
            f"directory={str(self._directory)!r})"
        )


def _unlink_pages(path: Path) -> None:
    """Remove a page file and its meta sidecar (either may already be gone)."""
    for stale in (path, Path(str(path) + META_SUFFIX)):
        try:
            stale.unlink()
        except FileNotFoundError:
            pass


def attach_columns(location: dict, count: int) -> np.ndarray:
    """Map a :meth:`ColumnarRecordStore.mmap_location` descriptor read-only.

    Returns the ``(count, d)`` zero-copy values view.  Raises
    :class:`FileNotFoundError` when the generation was retired (the caller
    refreshes its descriptor and retries, as with stale shm segments).
    """
    path = Path(location["directory"]) / location["columns_file"]
    columns = _map_columns(
        path, int(location["dimensionality"]), int(location["capacity"]), "r"
    )
    return columns.T[: int(count)]


def read_manifest(directory) -> dict:
    """Load and validate a colstore directory manifest."""
    path = Path(directory) / MANIFEST_NAME
    try:
        with open(path, encoding="utf-8") as handle:
            manifest = json.load(handle)
    except FileNotFoundError as exc:
        raise StorageError(f"{directory} is not a colstore directory (no manifest)") from exc
    if manifest.get("kind") != "colstore":
        raise StorageError(f"{path} is not a colstore manifest")
    if int(manifest.get("schema", -1)) != MANIFEST_SCHEMA:
        raise StorageError(
            f"unsupported colstore manifest schema {manifest.get('schema')!r} "
            f"(this build reads schema {MANIFEST_SCHEMA})"
        )
    return manifest


def write_manifest(directory, manifest: dict) -> None:
    """Atomically replace the manifest (write-new + rename)."""
    path = Path(directory) / MANIFEST_NAME
    temp = path.with_suffix(".json.tmp")
    with open(temp, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2)
        handle.write("\n")
    os.replace(temp, path)
