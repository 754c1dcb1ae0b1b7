"""The R-tree page format and its one STR bulk loader.

Every R-tree in this package is an array of fixed-size **pages**, one node
per page (:func:`page_dtype`): a leaf flag, the entry count, the node MBB,
then ``fanout`` child page ids (internal nodes) or record ids (leaves),
padded to a power-of-two page size.  The root is page 0.  The heap
:class:`~repro.index.rtree.RTree` keeps its nodes as rows of such an array,
a shared-memory segment holds a published copy of it, and a page file
(:mod:`repro.colstore.pages`) holds one on disk.

:func:`str_load` packs records into pages by sort-tile-recursive bulk
loading: near-even slabs per axis, leaves cut to ``max_entries``, parents
packed by MBB-centre lexsort, levels laid out root first.  While the active
rows fit ``budget_rows`` it works on in-memory arrays.  Past that it never
holds the dataset: the id **order** lives in a scratch file, and a pass
touches at most ``budget_rows`` record coordinates:

* ranges that fit the budget sort in memory (a stable argsort of one gathered
  key column);
* larger ranges run an external sample-splitter bucket sort — sample the key
  column for quantile splitters, count bucket occupancy in one chunked pass,
  scatter ids into a second scratch file in a second pass, then stable-sort
  each bucket in memory.  Ties across bucket boundaries keep the original
  order (buckets partition by key value and the scatter is stable), so the
  result matches a single stable argsort;
* leaf MBBs come from chunked gathers reduced with ``minimum.reduceat`` —
  leaves are contiguous spans of the order, so one gather serves many
  leaves;
* the upper levels are O(n / fanout) nodes and build in memory, then the
  pages come out in chunks, root first, so a page file is written without
  the whole tree in memory at once.

Peak resident memory is O(budget_rows + n / fanout), independent of ``n``.
"""

from __future__ import annotations

import math
import shutil
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.exceptions import InvalidDatasetError, StorageError

#: Page schema version (bump on incompatible layout changes).
PAGE_SCHEMA = 1

#: Default number of record coordinates a single sort/gather pass may touch.
DEFAULT_BUDGET_ROWS = 1 << 20

#: Rows per streaming chunk for liveness scans and scatter passes.
_CHUNK_ROWS = 1 << 18

#: Pages per chunk :func:`str_load` hands out.
_CHUNK_PAGES = 8192


def page_dtype(d: int, fanout: int, page_size: int | None = None):
    """The structured dtype of one page and the padded page size in bytes.

    Layout: ``u8`` header (leaf flag, pad, ``u16`` count, pad), ``2*d`` f64
    MBB corners, ``fanout`` i64 ids, zero-padded to ``page_size`` (default:
    the next power of two ≥ the payload, at least 256 bytes).  Ids past the
    count are ``-1``; an empty node's corners are ``NaN``.
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


def page_meta(*, dimension: int, size: int, fanout: int, page_size: int,
              n_pages: int, n_leaves: int, height: int) -> dict:
    """The mapping that describes a page array (a page file's sidecar)."""
    return {
        "schema": PAGE_SCHEMA,
        "dimension": int(dimension),
        "size": int(size),
        "fanout": int(fanout),
        "page_size": int(page_size),
        "n_pages": int(n_pages),
        "n_leaves": int(n_leaves),
        "height": int(height),
    }


class _Source:
    """Uniform chunked access to a record store or an ``(n, d)`` array."""

    def __init__(self, source):
        if hasattr(source, "active_mask"):  # a RecordStore: skip tombstones
            self.high_water = source.high_water
            self.d = source.dimensionality
            self.column = source.column
            self.active_mask = source.active_mask
            self.n_active = len(source)
        else:
            values = np.asarray(source, dtype=float)
            if values.ndim != 2:
                raise InvalidDatasetError("bulk load expects an (n, d) matrix")
            self.high_water = values.shape[0]
            self.d = values.shape[1]
            self.column = lambda axis: values[:, axis]
            self.active_mask = lambda start, stop: np.ones(stop - start, dtype=bool)
            self.n_active = values.shape[0]


def _write_active_order(source: _Source, order) -> None:
    """Fill the order with the active ids, ascending, chunk by chunk."""
    filled = 0
    for start in range(0, source.high_water, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, source.high_water)
        ids = np.flatnonzero(source.active_mask(start, stop)) + start
        order[filled:filled + ids.shape[0]] = ids
        filled += ids.shape[0]


def _external_sort(order, aux, col, lo: int, hi: int, budget: int) -> None:
    """Stable-sort ``order[lo:hi]`` by ``col`` without gathering it at once."""
    m = hi - lo
    n_buckets = min(4096, max(2, 2 * math.ceil(m / budget)))
    # Quantile splitters from a strided sample of the keys.
    step = max(1, m // min(m, n_buckets * 64))
    sample = np.sort(col[np.asarray(order[lo:hi:step])])
    cuts = (np.arange(1, n_buckets) * sample.shape[0]) // n_buckets
    splitters = sample[cuts]
    # Pass 1: bucket occupancy.
    counts = np.zeros(n_buckets, dtype=np.int64)
    for start in range(lo, hi, budget):
        ids = np.asarray(order[start:min(start + budget, hi)])
        buckets = np.searchsorted(splitters, col[ids], side="right")
        counts += np.bincount(buckets, minlength=n_buckets)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    cursors = offsets[:-1].copy()
    # Pass 2: stable scatter into the aux file.
    for start in range(lo, hi, budget):
        ids = np.asarray(order[start:min(start + budget, hi)])
        buckets = np.searchsorted(splitters, col[ids], side="right")
        by_bucket = np.argsort(buckets, kind="stable")
        ids, buckets = ids[by_bucket], buckets[by_bucket]
        present, first, runs = np.unique(buckets, return_index=True, return_counts=True)
        for bucket, begin, run in zip(present, first, runs):
            at = lo + cursors[bucket]
            aux[at:at + run] = ids[begin:begin + run]
            cursors[bucket] += run
    # Pass 3: each bucket now fits in memory (equal-key pileups may exceed the
    # budget, but they are already in stable order and sort as a no-op).
    for bucket in range(n_buckets):
        begin, end = lo + offsets[bucket], lo + offsets[bucket + 1]
        if end <= begin:
            continue
        ids = np.asarray(aux[begin:end])
        order[begin:end] = ids[np.argsort(col[ids], kind="stable")]


class _Builder:
    """STR tiling of the active ids; ``scratch`` is ``None`` for an
    in-memory build, else the directory of the order files."""

    def __init__(self, source: _Source, scratch: Path | None, *, max_entries: int,
                 budget: int):
        self.source = source
        self.capacity = max_entries
        self.budget = budget
        n = source.n_active
        if scratch is None:
            self.order = np.empty(n, dtype=np.int64)
        else:
            self.order = np.memmap(scratch / "order.bin", dtype=np.int64, mode="w+",
                                   shape=(n,))
        self._aux = None
        self._scratch = scratch
        self.bounds: list[tuple[int, int]] = []
        _write_active_order(source, self.order)

    def _sort_range(self, lo: int, hi: int, axis: int) -> None:
        col = self.source.column(axis)
        if hi - lo <= self.budget:
            ids = np.asarray(self.order[lo:hi])
            self.order[lo:hi] = ids[np.argsort(col[ids], kind="stable")]
            return
        if self._aux is None:
            self._aux = np.memmap(self._scratch / "aux.bin", dtype=np.int64,
                                  mode="w+", shape=self.order.shape)
        _external_sort(self.order, self._aux, col, lo, hi, self.budget)

    def tile(self, lo: int, hi: int, axis: int) -> None:
        """Cut ``order[lo:hi]`` into leaf spans of at most ``max_entries``.

        Slabs and groups are sized near-evenly rather than greedily: a greedy
        cut leaves a remainder group that can fall below ``min_entries``, and
        such an underfull node makes a single later delete dissolve (and
        re-insert) a whole subtree.
        """
        capacity, d = self.capacity, self.source.d
        count = hi - lo
        if count <= capacity:
            self.bounds.append((lo, hi))
            return
        self._sort_range(lo, hi, axis)
        leaf_count = math.ceil(count / capacity)
        slabs = math.ceil(leaf_count ** (1.0 / (d - axis))) if axis < d - 1 else leaf_count
        start = lo
        for size in _even_sizes(count, slabs):
            begin, end = start, start + size
            start = end
            if axis + 1 < d and end - begin > capacity:
                self.tile(begin, end, axis + 1)
            else:
                inner = begin
                for piece in _even_sizes(end - begin, math.ceil((end - begin) / capacity)):
                    self.bounds.append((inner, inner + piece))
                    inner += piece

    def leaf_mbbs(self) -> tuple[np.ndarray, np.ndarray]:
        """MBBs of the tiled leaves via chunked gather + segmented reduce."""
        starts = np.array([lo for lo, _ in self.bounds], dtype=np.int64)
        ends = np.array([hi for _, hi in self.bounds], dtype=np.int64)
        n_leaves, d = starts.shape[0], self.source.d
        lower = np.empty((n_leaves, d))
        upper = np.empty((n_leaves, d))
        leaves_per_pass = max(1, self.budget // self.capacity)
        for first in range(0, n_leaves, leaves_per_pass):
            last = min(first + leaves_per_pass, n_leaves)
            span = np.asarray(self.order[starts[first]:ends[last - 1]])
            cuts = starts[first:last] - starts[first]
            for axis in range(d):
                keys = self.source.column(axis)[span]
                lower[first:last, axis] = np.minimum.reduceat(keys, cuts)
                upper[first:last, axis] = np.maximum.reduceat(keys, cuts)
        return lower, upper


def _even_sizes(count: int, parts: int) -> list[int]:
    """Split ``count`` items into ``parts`` near-equal group sizes."""
    base, remainder = divmod(count, parts)
    return [base + 1] * remainder + [base] * (parts - remainder)


def _centre_order(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    centres = (lower + upper) / 2.0
    return np.lexsort(tuple(centres[:, axis] for axis in reversed(range(centres.shape[1]))))


def _pack_levels(leaf_lower, leaf_upper, leaf_starts, leaf_counts, capacity: int):
    """Build all tree levels bottom-up; returns them root-first.

    Each level dict holds the node MBBs plus either spans of the order
    (leaves) or a contiguous child slice into the next level down (internal
    nodes).  Every level is stored in its *written* order: children are
    lexsorted by MBB centre before grouping, so siblings are spatially close
    and a parent's children occupy a contiguous run of page ids.
    """
    levels = [{
        "is_leaf": True,
        "lower": leaf_lower,
        "upper": leaf_upper,
        "starts": leaf_starts,
        "counts": leaf_counts,
    }]
    while levels[-1]["lower"].shape[0] > 1:
        nodes = levels[-1]
        m = nodes["lower"].shape[0]
        perm = _centre_order(nodes["lower"], nodes["upper"])
        for key in ("lower", "upper", "starts", "counts", "child_start", "child_count"):
            if key in nodes:
                nodes[key] = nodes[key][perm]
        sizes = np.array(_even_sizes(m, math.ceil(m / capacity)), dtype=np.int64)
        cuts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        levels.append({
            "is_leaf": False,
            "lower": np.minimum.reduceat(nodes["lower"], cuts, axis=0),
            "upper": np.maximum.reduceat(nodes["upper"], cuts, axis=0),
            "child_start": cuts,
            "child_count": sizes,
        })
    levels.reverse()
    return levels


def _page_chunks(levels, order, dtype):
    """The pages of root-first ``levels``, :data:`_CHUNK_PAGES` at a time.

    Page ids run level by level.  An internal node's children are a
    contiguous run of the next level's pages and a leaf's record ids a
    contiguous span of ``order``, so each node's ids are ``first + within``
    (looked up in ``order`` for leaves).
    """
    offsets = np.cumsum([0] + [level["lower"].shape[0] for level in levels])
    lower = np.concatenate([level["lower"] for level in levels])
    upper = np.concatenate([level["upper"] for level in levels])
    is_leaf = np.concatenate([
        np.full(level["lower"].shape[0], level["is_leaf"]) for level in levels
    ])
    counts = np.concatenate([
        level["counts"] if level["is_leaf"] else level["child_count"] for level in levels
    ])
    first = np.concatenate([
        level["starts"] if level["is_leaf"] else offsets[depth + 1] + level["child_start"]
        for depth, level in enumerate(levels)
    ])
    for start in range(0, int(offsets[-1]), _CHUNK_PAGES):
        stop = min(start + _CHUNK_PAGES, int(offsets[-1]))
        chunk = np.zeros(stop - start, dtype=dtype)
        chunk["is_leaf"] = is_leaf[start:stop]
        chunk["count"] = counts[start:stop]
        chunk["lower"] = lower[start:stop]
        chunk["upper"] = upper[start:stop]
        chunk["ids"].fill(-1)
        run = counts[start:stop]
        rows = np.repeat(np.arange(stop - start), run)
        within = np.arange(rows.shape[0]) - np.repeat(np.cumsum(run) - run, run)
        ids = np.repeat(first[start:stop], run) + within
        leaf = is_leaf[start:stop][rows]
        if leaf.any():
            ids[leaf] = order[ids[leaf]]
        chunk["ids"][rows, within] = ids
        yield chunk


@contextmanager
def str_load(
    source,
    *,
    max_entries: int,
    budget_rows: int = DEFAULT_BUDGET_ROWS,
    page_size: int | None = None,
    scratch_dir=None,
):
    """STR-pack the active records of ``source`` into pages.

    ``source`` is any record store (tombstoned rows are skipped; leaf
    entries carry stable ids) or a plain ``(n, d)`` array (ids are row
    positions).  Yields ``(meta, chunks)``: the :func:`page_meta` of the
    result and an iterator over its pages in consecutive chunks, root first.
    Read the chunks inside the ``with`` block: past ``budget_rows`` active
    rows the leaf ids come from scratch files under ``scratch_dir`` (a temp
    directory by default), removed on exit; within it no file is made.
    """
    source = _Source(source)
    d, n = source.d, source.n_active
    dtype, page_size = page_dtype(d, max_entries, page_size)
    budget = max(max_entries, int(budget_rows))
    scratch = (Path(tempfile.mkdtemp(prefix="repro-str-", dir=scratch_dir))
               if n > budget else None)
    try:
        if n:
            builder = _Builder(source, scratch, max_entries=max_entries, budget=budget)
            builder.tile(0, n, axis=0)
            leaf_lower, leaf_upper = builder.leaf_mbbs()
            starts = np.array([lo for lo, _ in builder.bounds], dtype=np.int64)
            counts = np.array([hi - lo for lo, hi in builder.bounds], dtype=np.int64)
            levels = _pack_levels(leaf_lower, leaf_upper, starts, counts, max_entries)
            order = builder.order
        else:  # one empty leaf root
            empty = np.full((1, max(d, 1)), np.nan)
            zero = np.zeros(1, dtype=np.int64)
            levels = [{"is_leaf": True, "lower": empty, "upper": empty,
                       "starts": zero, "counts": zero}]
            order = zero
        meta = page_meta(
            dimension=d, size=n, fanout=max_entries, page_size=page_size,
            n_pages=sum(level["lower"].shape[0] for level in levels),
            n_leaves=levels[-1]["lower"].shape[0], height=len(levels),
        )
        yield meta, _page_chunks(levels, order, dtype)
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)
