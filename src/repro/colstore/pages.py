"""Paged on-disk R-tree nodes with a pinning LRU buffer pool.

The serve tier traverses :class:`~repro.serve.packed.PackedRTree` over flat
arrays in shared memory; at 10M+ records those arrays should live on disk.
This module stores one R-tree node per fixed-size **page** in a single file:

* :func:`page_dtype` defines the page layout — a small header (leaf flag,
  entry/child count), the node MBB, then ``fanout`` child page ids (internal
  nodes) or record ids (leaves), padded to a power-of-two page size;
* :func:`write_pages` serializes any :meth:`RTree.flatten`-shaped mapping
  (BFS order, page id = node position, root = page 0) in streaming chunks,
  so the arrays may be memmaps far larger than RAM;
* :class:`BufferPool` owns the resident page set: bounded capacity, LRU
  eviction of unpinned frames, pin/unpin accounting, and hit/miss/eviction
  stats published as ``repro_bufferpool_events_total`` and
  ``repro_bufferpool_resident_pages`` while observability is enabled.
  Pinned pages are never evicted; requesting a page while every frame is
  pinned raises :class:`~repro.exceptions.StorageError`;
* :class:`PagedRTree` answers the tree read contract of ``RTree`` and
  ``PackedRTree`` (``dimension``, ``read_root``, ``read_node``,
  ``count_access``), so BBS, top-k and the skyband layers run unchanged over
  a tree that is read page by page through the pool.  A node read is one
  pin of its page.  An internal page's frame keeps its children's ids and
  MBB top corners once they have been looked up, so expanding a resident
  internal page again does no child lookups; the cache costs
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
from repro.index.rtree import ACCESS_OPS
from repro.obs import runtime as _obs

#: On-disk page-file schema version (bump on incompatible layout changes).
PAGE_SCHEMA = 1

#: Default fanout of pages written from a streaming bulk load.  Larger than
#: the in-memory tree's 16 on purpose: a page is one I/O unit, so filling it
#: lowers tree height (10M records, d=3 → height 4).
DEFAULT_FANOUT = 64

#: Default resident-set bound of a :class:`BufferPool`, in pages.
DEFAULT_POOL_PAGES = 1024

META_SUFFIX = ".meta.json"


def page_dtype(d: int, fanout: int, page_size: int | None = None):
    """The structured dtype of one page and the padded page size in bytes.

    Layout: ``u8`` header (leaf flag, pad, ``u16`` count, pad), ``2*d`` f64
    MBB corners, ``fanout`` i64 ids, zero-padded to ``page_size`` (default:
    the next power of two ≥ the payload, at least 256 bytes).
    """
    d = max(int(d), 1)
    fields = [
        ("is_leaf", "u1"),
        ("_pad0", "u1"),
        ("count", "<u2"),
        ("_pad1", "<u4"),
        ("lower", "<f8", (d,)),
        ("upper", "<f8", (d,)),
        ("ids", "<i8", (int(fanout),)),
    ]
    payload = np.dtype(fields).itemsize
    if page_size is None:
        page_size = 1 << max(8, (payload - 1).bit_length())
    page_size = int(page_size)
    if page_size < payload:
        raise StorageError(
            f"page_size {page_size} cannot hold d={d}, fanout={fanout} ({payload} bytes)"
        )
    if page_size > payload:
        fields.append(("_tail", f"V{page_size - payload}"))
    return np.dtype(fields), page_size


def _tree_height(flat: dict) -> int:
    position, height = 0, 1
    while not bool(flat["node_is_leaf"][position]):
        position = int(flat["child_nodes"][int(flat["node_first"][position])])
        height += 1
    return height


def write_pages(
    path,
    flat: dict,
    *,
    fanout: int | None = None,
    page_size: int | None = None,
    chunk_pages: int = 8192,
) -> dict:
    """Write a :meth:`RTree.flatten`-shaped mapping as a page file + meta.

    ``flat`` arrays may be memmaps: pages are assembled and written in
    chunks of ``chunk_pages``, so peak memory is O(chunk), never O(tree).
    Returns the meta mapping, also persisted as ``<path>.meta.json``.
    """
    path = Path(path)
    node_count = np.asarray(flat["node_count"])
    node_first = np.asarray(flat["node_first"])
    node_is_leaf = np.asarray(flat["node_is_leaf"])
    m = node_count.shape[0]
    max_count = int(node_count.max()) if m else 0
    fanout = int(fanout) if fanout is not None else max(max_count, 2)
    if max_count > fanout:
        raise StorageError(f"node with {max_count} entries exceeds fanout {fanout}")
    dtype, page_size = page_dtype(flat["dimension"], fanout, page_size)
    child_nodes = flat["child_nodes"]
    entry_ids = flat["entry_ids"]
    n_leaves = 0
    with open(path, "wb") as handle:
        for start in range(0, m, chunk_pages):
            stop = min(start + chunk_pages, m)
            chunk = np.zeros(stop - start, dtype=dtype)
            chunk["is_leaf"] = node_is_leaf[start:stop]
            chunk["count"] = node_count[start:stop]
            chunk["lower"] = flat["node_lower"][start:stop]
            chunk["upper"] = flat["node_upper"][start:stop]
            chunk["ids"].fill(-1)
            counts = node_count[start:stop]
            total = int(counts.sum())
            if total:
                rows = np.repeat(np.arange(stop - start), counts)
                offsets = np.cumsum(counts) - counts
                within = np.arange(total) - np.repeat(offsets, counts)
                source = np.repeat(node_first[start:stop], counts) + within
                leaf_rows = node_is_leaf[start:stop][rows]
                if leaf_rows.any():
                    chunk["ids"][rows[leaf_rows], within[leaf_rows]] = np.asarray(
                        entry_ids[source[leaf_rows]]
                    )
                inner = ~leaf_rows
                if inner.any():
                    chunk["ids"][rows[inner], within[inner]] = np.asarray(
                        child_nodes[source[inner]]
                    )
            n_leaves += int(np.count_nonzero(node_is_leaf[start:stop]))
            chunk.tofile(handle)
    meta = {
        "schema": PAGE_SCHEMA,
        "dimension": int(flat["dimension"]),
        "size": int(flat["size"]),
        "fanout": fanout,
        "page_size": page_size,
        "n_pages": int(m),
        "n_leaves": n_leaves,
        "height": _tree_height(flat) if m else 0,
    }
    meta_path = Path(str(path) + META_SUFFIX)
    temp = meta_path.with_suffix(".tmp")
    with open(temp, "w", encoding="utf-8") as handle:
        json.dump(meta, handle, indent=2)
        handle.write("\n")
    os.replace(temp, meta_path)
    return meta


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


class PagedRTree:
    """Read-only R-tree traversed page by page through a buffer pool.

    Parameters
    ----------
    path:
        The page file written by :func:`write_pages` (its ``.meta.json``
        sidecar must be present).
    values:
        Record buffer prefix; leaf entry ids index into it (for a colstore
        this is :attr:`ColumnarRecordStore.matrix` — a zero-copy mmap view).
    pool_pages:
        Resident-set bound of the buffer pool.
    """

    def __init__(self, path, values, *, pool_pages: int = DEFAULT_POOL_PAGES):
        self.path = Path(path)
        meta = read_meta(self.path)
        self.meta = meta
        self.dimension = int(meta["dimension"]) or None
        self.size = int(meta["size"])
        self.fanout = int(meta["fanout"])
        dtype, _ = page_dtype(meta["dimension"], self.fanout, meta["page_size"])
        self._pages = np.memmap(self.path, dtype=dtype, mode="r")
        if self._pages.shape[0] != int(meta["n_pages"]):
            raise StorageError(
                f"{path}: file holds {self._pages.shape[0]} pages, "
                f"meta says {meta['n_pages']}"
            )
        self.pool = BufferPool(self._pages, capacity=pool_pages)
        self.values = values
        self.access_counts: dict[str, int] = dict.fromkeys(ACCESS_OPS, 0)

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
                filled = ~np.isnan(corners[:, 0])
                corners = corners[filled]
                corners.flags.writeable = False
                node.children = (node.ids[filled].tolist(), corners)
            ids, corners = node.children
            return False, ids, corners

    def count_access(self, op: str, n: int = 1) -> None:
        """Same tally contract as :meth:`RTree.count_access`."""
        if not n:
            return
        self.access_counts[op] += n
        if _obs._ENABLED:
            from repro.obs.names import RTREE_NODE_ACCESSES

            RTREE_NODE_ACCESSES.inc(n, op=op)

    def height(self) -> int:
        """Number of levels (a single leaf root has height 1)."""
        return int(self.meta["height"])

    def fill_factor(self) -> float:
        """Mean leaf occupancy relative to the fanout."""
        n_leaves = int(self.meta["n_leaves"])
        if not n_leaves:
            return 0.0
        return self.size / (n_leaves * self.fanout)

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PagedRTree(size={self.size}, pages={self.meta['n_pages']}, "
            f"fanout={self.fanout}, height={self.meta['height']})"
        )
