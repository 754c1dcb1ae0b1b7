"""Shared-memory segment lifecycle and the shared record store.

The serving tier keeps exactly one copy of the dataset per machine: the
record buffer and a published copy of the R-tree's page array live in
``multiprocessing.shared_memory`` segments, and query workers map them
zero-copy instead of rebuilding shard state on spawn.  Python's
:class:`~multiprocessing.shared_memory.SharedMemory` has two well-known
lifecycle traps this module owns centrally:

* **attacher-side tracker interference** — on POSIX every
  ``SharedMemory.__init__`` (attach included) registers the segment with a
  ``resource_tracker``.  A standalone attacher process would then *unlink*
  the owner's segment via its own tracker when it exits (and print "leaked
  shared_memory" warnings); a pool worker sharing the owner's tracker
  would instead clash with the owner's bookkeeping if it tried to
  unregister on detach.  :class:`AttachedSegment` therefore suppresses the
  registration during attach — correct in every topology — so workers can
  die, including ``SIGKILL`` mid-query, without touching the owner's
  segments;
* **owner-side unlink on interpreter exit** — :class:`OwnedSegment` carries
  a ``weakref.finalize`` (which also runs at interpreter shutdown) that
  unlinks the segment, so no ``/dev/shm`` entry outlives the serving
  process even when :meth:`close` was never called.  ``unlink`` itself
  deregisters from the tracker, so a clean exit prints no warnings either.

Unlinking is decoupled from unmapping: on POSIX, removing the name leaves
existing mappings valid, so the owner may retire a segment (e.g. after the
record buffer doubled) while late workers still read their old mapping.
"""

from __future__ import annotations

import threading
import weakref
from multiprocessing import shared_memory

import numpy as np

from repro.dynamic.store import RecordStore

#: Byte alignment of arrays packed into one segment (numpy SIMD-friendly).
_ALIGN = 64

#: Serializes SharedMemory construction against the register patch below, so
#: an OwnedSegment created concurrently with an attach still gets tracked.
_TRACKER_MUTEX = threading.Lock()


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach by name without a resource-tracker registration.

    Python < 3.13 has no ``track=False``: ``SharedMemory.__init__``
    unconditionally registers, attach included.  An attacher must not be
    registered anywhere — its own tracker would unlink the owner's segment
    at exit, and a shared (inherited) tracker holds the *owner's* entry,
    which a detach-time unregister would clobber.  Suppressing the
    registration for the duration of the attach is correct in every
    topology; the window is serialized so concurrent owned creations in
    this process still register.
    """
    try:
        from multiprocessing import resource_tracker
    except ImportError:  # pragma: no cover - non-POSIX fallback
        return shared_memory.SharedMemory(name=name)
    with _TRACKER_MUTEX:
        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


def _finalize_owned(shm: shared_memory.SharedMemory) -> None:
    """Unlink (and best-effort close) an owned segment at GC/interpreter exit."""
    try:
        shm.unlink()
    except (FileNotFoundError, OSError):
        pass
    try:
        shm.close()
    except BufferError:
        # numpy views of the mapping are still alive; the mapping dies with
        # the process, and the name is already gone.
        pass


class OwnedSegment:
    """A shared-memory segment this process created and must unlink."""

    def __init__(self, nbytes: int):
        with _TRACKER_MUTEX:
            self.shm = shared_memory.SharedMemory(
                create=True, size=max(int(nbytes), 1)
            )
        self._finalizer = weakref.finalize(self, _finalize_owned, self.shm)

    @property
    def name(self) -> str:
        return self.shm.name

    @property
    def buf(self):
        return self.shm.buf

    def unlink(self) -> None:
        """Remove the segment's name now; existing mappings stay valid."""
        try:
            self.shm.unlink()
        except (FileNotFoundError, OSError):
            pass

    def close(self) -> None:
        """Unlink and release the mapping (tolerates live numpy views)."""
        self._finalizer.detach()
        _finalize_owned(self.shm)


class AttachedSegment:
    """A segment mapped by name, never registered so no tracker unlinks it."""

    def __init__(self, name: str):
        self.shm = _attach_untracked(name)
        self._finalizer = weakref.finalize(self, _close_attached, self.shm)

    @property
    def buf(self):
        return self.shm.buf

    def close(self) -> None:
        self._finalizer.detach()
        _close_attached(self.shm)


def _close_attached(shm: shared_memory.SharedMemory) -> None:
    try:
        shm.close()
    except BufferError:
        pass


def unlink_segment(name: str) -> bool:
    """Unlink a segment by name (orphan cleanup after a ``SIGKILL``).

    A killed owner never ran its finalizers, so its segments outlive it in
    ``/dev/shm``; crash recovery calls this for every name recorded in the
    shm manifest.  Returns ``True`` when a segment was actually removed.
    """
    try:
        shm = _attach_untracked(name)
    except FileNotFoundError:
        return False
    try:
        shm.unlink()
    except (FileNotFoundError, OSError):
        return False
    finally:
        _close_attached(shm)
    return True


def pack_arrays(arrays: dict[str, np.ndarray], *, meta: dict | None = None
                ) -> tuple[OwnedSegment, dict]:
    """Copy named arrays into one owned segment; returns it plus a manifest.

    The manifest is a plain JSON-able mapping — ``{"segment": name,
    "meta": {...}, "fields": {key: {"dtype", "shape", "offset"}}}`` — that
    :func:`attach_arrays` resolves in any process.
    """
    offset = 0
    fields: dict[str, dict] = {}
    for key, array in arrays.items():
        offset = -(-offset // _ALIGN) * _ALIGN
        fields[key] = {
            "dtype": array.dtype.str,
            "shape": [int(s) for s in array.shape],
            "offset": offset,
        }
        offset += array.nbytes
    segment = OwnedSegment(offset)
    for key, array in arrays.items():
        spec = fields[key]
        view = np.ndarray(
            tuple(spec["shape"]), dtype=spec["dtype"], buffer=segment.buf,
            offset=spec["offset"],
        )
        view[...] = array
    manifest = {"segment": segment.name, "meta": dict(meta or {}), "fields": fields}
    return segment, manifest


def attach_arrays(manifest: dict) -> tuple[AttachedSegment, dict[str, np.ndarray]]:
    """Map a :func:`pack_arrays` manifest; the segment handle keeps views valid.

    Raises :class:`FileNotFoundError` when the owner already retired the
    segment (callers refresh their descriptor and retry).
    """
    segment = AttachedSegment(manifest["segment"])
    arrays = {
        key: np.ndarray(
            tuple(spec["shape"]), dtype=spec["dtype"], buffer=segment.buf,
            offset=spec["offset"],
        )
        for key, spec in manifest["fields"].items()
    }
    return segment, arrays


class SharedRecordStore(RecordStore):
    """A :class:`RecordStore` whose buffers live in shared memory.

    Behaviour (stable ids, tombstones, amortized doubling) is inherited
    unchanged; only the allocation hooks differ.  On growth the replaced
    segments are *unlinked* immediately (no ``/dev/shm`` leak) but their
    mappings are retired rather than force-closed, because the engine and
    in-flight queries may still hold numpy views of the old buffer — those
    views stay valid until the last reference dies.
    """

    def __init__(self, values, *, capacity: int | None = None):
        # Set before super().__init__, which calls _allocate.
        self._segments: list[tuple[OwnedSegment, OwnedSegment]] = []
        self._retired: list[tuple[OwnedSegment, OwnedSegment]] = []
        self._tree_segment: OwnedSegment | None = None
        super().__init__(values, capacity=capacity)

    def _allocate(self, size: int, d: int) -> tuple[np.ndarray, np.ndarray]:
        values_segment = OwnedSegment(size * d * np.dtype(np.float64).itemsize)
        active_segment = OwnedSegment(size * np.dtype(np.bool_).itemsize)
        buffer = np.ndarray((size, d), dtype=np.float64, buffer=values_segment.buf)
        active = np.ndarray((size,), dtype=np.bool_, buffer=active_segment.buf)
        buffer[...] = 0.0
        active[...] = False
        self._segments.append((values_segment, active_segment))
        return buffer, active

    def _discard(self, buffer: np.ndarray, active: np.ndarray) -> None:
        # _grow replaces the oldest live pair (there are at most two: the
        # one being retired and the one _allocate just appended).
        pair = self._segments.pop(0)
        for segment in pair:
            segment.unlink()
        self._retired.append(pair)

    def segment_names(self) -> list[str]:
        """Names of every *live* segment, the published tree's included
        (retired mappings are unlinked)."""
        names = [segment.name for pair in self._segments for segment in pair]
        if self._tree_segment is not None:
            names.append(self._tree_segment.name)
        return names

    def shared_location(self) -> dict:
        """Where the *current* value buffer lives: segment name plus shape."""
        values_segment, _ = self._segments[-1]
        return {
            "segment": values_segment.name,
            "shape": [int(s) for s in self._buffer.shape],
        }

    def worker_location(self) -> dict:
        return {"buffer": self.shared_location(), "count": int(self._count)}

    def publish_tree(self, pages: np.ndarray, meta: dict, generation: int) -> dict:
        """Copy the tree's page array into a fresh segment; close the previous
        one.  Workers read the copy with :meth:`RTree.attach
        <repro.index.rtree.RTree.attach>`."""
        segment, manifest = pack_arrays({"pages": pages.view(np.uint8)}, meta=meta)
        previous, self._tree_segment = self._tree_segment, segment
        if previous is not None:
            previous.close()
        return manifest

    def close(self) -> None:
        """Unlink every segment this store ever created (idempotent)."""
        tree, self._tree_segment = self._tree_segment, None
        if tree is not None:
            tree.close()
        for pair in self._segments + self._retired:
            for segment in pair:
                segment.close()
        self._segments = []
        self._retired = []
