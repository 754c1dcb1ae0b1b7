"""Page files of the R-tree, a pinning LRU buffer pool and the paged reader.

The R-tree has one page format (:mod:`repro.index.pages`), and a page file
is that page array on disk, root at page 0, with a ``.meta.json`` sidecar:

* :func:`build_paged_rtree` streams the STR loader's pages straight into a
  file, so a store far larger than RAM gets its index without the tree ever
  being in memory; :func:`write_pages` writes a page array that is already
  in memory, such as an engine's :attr:`~repro.index.rtree.RTree.pages`;
* :class:`BufferPool` owns the resident page set: bounded capacity, LRU
  eviction of unpinned frames, pin/unpin accounting, and hit/miss/eviction
  stats published as ``repro_bufferpool_events_total`` and
  ``repro_bufferpool_resident_pages`` while observability is enabled.
  Pinned pages are never evicted; requesting a page while every frame is
  pinned raises :class:`~repro.exceptions.StorageError`;
* :class:`PagedRTree` is the :class:`~repro.index.rtree.RTree` reader over a
  page file, with the pages fetched through the pool, so BBS, top-k and the
  skyband layers run unchanged over a tree read page by page.  A node read
  is one pin of its page.  An internal page's frame keeps its children's ids
  and MBB top corners once they have been looked up, so expanding a
  resident internal page again does no child lookups; the cache costs
  ``fanout x d x 8`` bytes (plus the id list) per resident internal frame
  (64 x 3 x 8 = 1.5 KiB at the defaults) and leaves with the frame on
  eviction.  Leaf rows are read from the record buffer, never cached.
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.exceptions import StorageError
from repro.index.pages import DEFAULT_BUDGET_ROWS, PAGE_SCHEMA, str_load
from repro.index.rtree import RTree
from repro.obs import runtime as _obs

#: Default fanout of page files built by :func:`build_paged_rtree`.  Larger
#: than the in-memory tree's 16 on purpose: a page is one I/O unit, so
#: filling it lowers tree height (10M records, d=3 → height 4).
DEFAULT_FANOUT = 64

#: Default resident-set bound of a :class:`BufferPool`, in pages.
DEFAULT_POOL_PAGES = 1024

META_SUFFIX = ".meta.json"


def write_pages(path, chunks, meta: dict) -> dict:
    """Write a page array, given as consecutive chunks, as a page file + meta.

    Returns ``meta``, also persisted as ``<path>.meta.json`` (replaced
    atomically once the pages are written).
    """
    with open(path, "wb") as handle:
        for chunk in chunks:
            chunk.tofile(handle)
    meta_path = Path(str(path) + META_SUFFIX)
    temp = meta_path.with_suffix(".tmp")
    with open(temp, "w", encoding="utf-8") as handle:
        json.dump(meta, handle, indent=2)
        handle.write("\n")
    os.replace(temp, meta_path)
    return meta


def build_paged_rtree(
    source,
    path,
    *,
    max_entries: int = DEFAULT_FANOUT,
    budget_rows: int = DEFAULT_BUDGET_ROWS,
    page_size: int | None = None,
    scratch_dir=None,
) -> dict:
    """Bulk-load the active records of ``source`` into a page file at ``path``.

    ``source`` is any record store (tombstoned rows are skipped; leaf entries
    carry stable ids) or a plain ``(n, d)`` array.  ``budget_rows`` bounds
    the coordinates touched per pass; a larger build keeps its scratch files
    under ``scratch_dir`` (a temp directory by default) and removes them on
    return.  Returns the page-file meta mapping.
    """
    with str_load(source, max_entries=max_entries, budget_rows=budget_rows,
                  page_size=page_size, scratch_dir=scratch_dir) as (meta, chunks):
        return write_pages(path, chunks, meta)


def read_meta(path) -> dict:
    """Load and validate the sidecar meta of a page file."""
    meta_path = Path(str(path) + META_SUFFIX)
    try:
        with open(meta_path, encoding="utf-8") as handle:
            meta = json.load(handle)
    except FileNotFoundError as exc:
        raise StorageError(f"{path} has no page meta ({meta_path.name} missing)") from exc
    if int(meta.get("schema", -1)) != PAGE_SCHEMA:
        raise StorageError(
            f"unsupported page schema {meta.get('schema')!r} "
            f"(this build reads schema {PAGE_SCHEMA})"
        )
    return meta


class _PageRecord:
    """One parsed node, owned by its pool frame (copied out of the mapping,
    so an evicted page's data really leaves the resident set).  ``children``
    is an internal page's ``(child ids, child top corners)`` once
    :meth:`PagedRTree.read_node` has looked them up."""

    __slots__ = ("is_leaf", "count", "lower", "upper", "ids", "children")

    def __init__(self, raw):
        self.is_leaf = bool(raw["is_leaf"])
        self.count = int(raw["count"])
        self.lower = np.array(raw["lower"])
        self.upper = np.array(raw["upper"])
        self.ids = np.array(raw["ids"][: self.count])
        self.children = None


class _Frame:
    __slots__ = ("node", "pins")

    def __init__(self, node: _PageRecord):
        self.node = node
        self.pins = 0


#: Registry label of each ``BufferPool.stats`` key.
_EVENT_LABELS = {"hits": "hit", "misses": "miss", "evictions": "eviction"}


class BufferPool:
    """Bounded resident set of parsed pages with pinning and LRU eviction.

    Invariants (covered by the buffer-pool tests):

    * a frame with ``pins > 0`` is never evicted;
    * ``hits + misses`` equals the number of lookups, ``misses`` equals the
      pages loaded, and ``resident() == loads - evictions``;
    * the resident set never exceeds ``capacity``; when every frame is
      pinned and a new page must be loaded, :class:`StorageError` is raised
      rather than silently over-committing.
    """

    def __init__(self, pages, *, capacity: int = DEFAULT_POOL_PAGES):
        self._pages = pages
        self.capacity = max(1, int(capacity))
        self._frames: OrderedDict[int, _Frame] = OrderedDict()
        self.stats = {"hits": 0, "misses": 0, "evictions": 0}

    def resident(self) -> int:
        """Number of pages currently resident."""
        return len(self._frames)

    def pinned(self) -> int:
        """Number of resident pages with at least one pin."""
        return sum(1 for frame in self._frames.values() if frame.pins)

    def _event(self, event: str, n: int = 1) -> None:
        self.stats[event] += n
        if _obs._ENABLED:
            from repro.obs.names import BUFFERPOOL_EVENTS

            BUFFERPOOL_EVENTS.inc(n, event=_EVENT_LABELS[event])

    def _publish_resident(self) -> None:
        if _obs._ENABLED:
            from repro.obs.names import BUFFERPOOL_RESIDENT

            BUFFERPOOL_RESIDENT.set(len(self._frames))

    def _frame(self, page_id: int) -> _Frame:
        frame = self._frames.get(page_id)
        if frame is not None:
            self._frames.move_to_end(page_id)
            self._event("hits")
            return frame
        self._event("misses")
        while len(self._frames) >= self.capacity:
            victim = next(
                (key for key, cand in self._frames.items() if cand.pins == 0), None
            )
            if victim is None:
                raise StorageError(
                    f"buffer pool exhausted: all {self.capacity} frames pinned"
                )
            del self._frames[victim]
            self._event("evictions")
        frame = _Frame(_PageRecord(self._pages[int(page_id)]))
        self._frames[page_id] = frame
        self._publish_resident()
        return frame

    def get(self, page_id: int) -> _PageRecord:
        """The parsed node of ``page_id`` (loaded through the pool)."""
        return self._frame(page_id).node

    def pin(self, page_id: int) -> _PageRecord:
        """Load (if needed) and pin a page; it cannot be evicted until every
        :meth:`unpin` balanced every pin."""
        frame = self._frame(page_id)
        frame.pins += 1
        return frame.node

    def unpin(self, page_id: int) -> None:
        frame = self._frames.get(page_id)
        if frame is None or frame.pins <= 0:
            raise StorageError(f"page {page_id} is not pinned")
        frame.pins -= 1

    @contextmanager
    def pinned_page(self, page_id: int):
        node = self.pin(page_id)
        try:
            yield node
        finally:
            self.unpin(page_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BufferPool(resident={len(self._frames)}/{self.capacity}, "
            f"stats={self.stats})"
        )


class PagedRTree(RTree):
    """Read-only :class:`~repro.index.rtree.RTree` over a page file, read
    page by page through a buffer pool.

    Parameters
    ----------
    path:
        The page file (its ``.meta.json`` sidecar must be present).
    values:
        Record buffer prefix; leaf entry ids index into it (for a colstore
        this is :attr:`ColumnarRecordStore.matrix` — a zero-copy mmap view).
    pool_pages:
        Resident-set bound of the buffer pool.
    """

    def __init__(self, path, values, *, pool_pages: int = DEFAULT_POOL_PAGES):
        self.path = Path(path)
        self._meta = read_meta(self.path)
        self._open(np.memmap(self.path, dtype=np.uint8, mode="r"), values, self._meta)
        if self._n_pages != int(self._meta["n_pages"]):
            raise StorageError(
                f"{path}: file holds {self._n_pages} pages, "
                f"meta says {self._meta['n_pages']}"
            )
        self.pool = BufferPool(self._pages, capacity=pool_pages)

    @property
    def meta(self) -> dict:
        """The page file's sidecar meta."""
        return self._meta

    def read_root(self) -> tuple[int, np.ndarray | None]:
        """Root page 0 and its MBB top corner (``None`` for an empty tree)."""
        upper = self.pool.get(0).upper
        return 0, None if np.isnan(upper[0]) else upper

    def read_node(self, page: int) -> tuple[bool, list[int], np.ndarray]:
        """Page ``page`` as ``(is_leaf, ids, corners)`` (see
        :meth:`repro.index.rtree.RTree.read_node`), under one pin.

        The pin keeps an internal page resident while its children are
        looked up, so it needs a pool of at least two frames.
        """
        with self.pool.pinned_page(page) as node:
            if node.is_leaf:
                return True, node.ids.tolist(), self.values[node.ids]
            if node.children is None:
                corners = np.array(
                    [self.pool.get(child).upper for child in node.ids.tolist()]
                ).reshape(node.count, node.upper.shape[0])
                corners.flags.writeable = False
                node.children = (node.ids.tolist(), corners)
            ids, corners = node.children
            return False, ids, corners

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PagedRTree(size={self.size}, pages={self._meta['n_pages']}, "
            f"fanout={self.max_entries}, height={self._meta['height']})"
        )
