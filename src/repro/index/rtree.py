"""The R-tree: one page array, bulk-loaded, updated in place, read node by node.

The tree's nodes are the rows of one growable array of pages
(:func:`~repro.index.pages.page_dtype`): a leaf flag, the entry count, the
node MBB, then child page ids (internal nodes) or record ids (leaves).  The
root stays at page 0.  Leaves hold ids only: like every reader of the
format, the tree takes leaf rows from :attr:`RTree.values`, the record
buffer its ids index, which the owner re-points whenever that buffer moves.
An insert or delete only reads rows of records already in the tree or being
placed, so ``values`` must hold those rows before the call.

* **STR bulk loading** — ``RTree(points)`` packs the points with the one
  streaming loader (:func:`~repro.index.pages.str_load`), on in-memory
  arrays while they fit its row budget.  The page array is byte for byte
  the page file :func:`~repro.colstore.pages.build_paged_rtree` writes for
  the same records.
* **Insertion** — least-enlargement descent (ties to the smaller volume)
  and quadratic split with Guttman's forced assignment.  A split node keeps
  its page and one group; the new sibling page takes the other and goes
  after it in the parent.  A root split moves the old root off page 0.
* **Deletion** — a depth-first leaf search pruned by an optional location
  hint (falling back to an unhinted search), then the classical condense
  step: underfull nodes are dissolved and their records re-inserted, and a
  root left with one child is replaced by it.  Freed pages go on a free
  list for reuse.

Traversal-oriented consumers (BBS, branch-and-bound top-k) read the tree
through :meth:`RTree.read_root` (the root page and its MBB top corner) and
:meth:`RTree.read_node` (one node as arrays — child pages with their MBB
top corners, or record ids with their rows).  The same reader serves every
copy of the pages: the heap tree's own array, a copy a worker attached from
shared memory (:meth:`RTree.attach`), and a page file read through a buffer
pool (:class:`~repro.colstore.pages.PagedRTree`).
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import InvalidDatasetError
from repro.index.pages import page_dtype, page_meta, str_load
from repro.obs import runtime as _obs

#: Node-access operations tallied by :meth:`RTree.count_access`.
ACCESS_OPS = ("search", "insert", "delete")

#: Slack of the delete's location hint test against node MBBs.
_HINT_TOL = 1e-12


class RTree:
    """R-tree over a point dataset, stored as one page array.

    Parameters
    ----------
    points:
        Optional ``(n, d)`` matrix to bulk load immediately (STR packing);
        record ``i`` gets id ``i`` and ``points`` becomes :attr:`values`.
    max_entries:
        Node capacity (the page fanout); ``min_entries`` defaults to
        ``ceil(max_entries * 0.4)``.
    """

    def __init__(self, points=None, *, max_entries: int = 16, min_entries: int | None = None):
        if max_entries < 4:
            raise InvalidDatasetError("max_entries must be at least 4")
        self.max_entries = max_entries
        self.min_entries = min_entries or max(2, math.ceil(max_entries * 0.4))
        if not 2 <= self.min_entries <= (max_entries + 1) // 2:
            # An overflowing node holds max_entries + 1 items; both split
            # groups can only reach the minimum fill when 2 * min <= max + 1.
            raise InvalidDatasetError(
                f"min_entries must be in [2, {(max_entries + 1) // 2}] "
                f"for max_entries={max_entries}"
            )
        self.dimension: int | None = None
        self.size = 0
        #: The record buffer leaf ids index.
        self.values = None
        self.access_counts: dict[str, int] = dict.fromkeys(ACCESS_OPS, 0)
        self._free: list[int] = []
        if points is not None:
            self.values = np.asarray(points, dtype=float)
            self._load(self.values)

    @classmethod
    def attach(cls, pages, values, meta: dict) -> "RTree":
        """A read-only tree over a published page array, without a copy.

        ``pages`` holds the array (its bytes will do, e.g. a view of a
        shared-memory segment) and ``meta`` is its
        :func:`~repro.index.pages.page_meta`; leaf ids index ``values``.
        """
        tree = cls.__new__(cls)
        tree._open(pages, values, meta)
        return tree

    def _open(self, pages, values, meta: dict) -> None:
        dtype, _ = page_dtype(meta["dimension"], meta["fanout"], meta["page_size"])
        pages = pages.view(dtype)
        pages.flags.writeable = False
        self.max_entries = int(meta["fanout"])
        self.min_entries = max(2, math.ceil(self.max_entries * 0.4))
        self.dimension = int(meta["dimension"]) or None
        self.size = int(meta["size"])
        self.values = values
        self.access_counts = dict.fromkeys(ACCESS_OPS, 0)
        self._free = []
        self._bind(pages, pages.shape[0])

    def _load(self, points) -> None:
        """Replace the pages with an STR-packed tree over ``points``."""
        with str_load(points, max_entries=self.max_entries) as (meta, chunks):
            chunks = list(chunks)
        self._bind(chunks[0] if len(chunks) == 1 else np.concatenate(chunks),
                   meta["n_pages"])
        self._free = []
        self.dimension = meta["dimension"]
        self.size = meta["size"]

    def _bind(self, pages: np.ndarray, n_pages: int) -> None:
        """Adopt ``pages`` (rows ``[0, n_pages)`` in use) and its field views."""
        self._pages = pages
        self._n_pages = n_pages
        self._is_leaf = pages["is_leaf"]
        self._count = pages["count"]
        self._lower = pages["lower"]
        self._upper = pages["upper"]
        self._ids = pages["ids"]

    def count_access(self, op: str, n: int = 1) -> None:
        """Tally ``n`` node accesses of kind ``op`` (search/insert/delete).

        The local :attr:`access_counts` dict is always maintained; while the
        observability layer is enabled the accesses are additionally published
        to the ``repro_rtree_node_accesses_total{op=...}`` registry series.
        Traversal loops batch their tally into a single call per operation.
        """
        if not n:
            return
        self.access_counts[op] += n
        if _obs._ENABLED:
            from repro.obs.names import RTREE_NODE_ACCESSES
            RTREE_NODE_ACCESSES.inc(n, op=op)

    # ------------------------------------------------------------ the pages
    @property
    def pages(self) -> np.ndarray:
        """The page array in use (freed pages included, unreachable)."""
        return self._pages[: self._n_pages]

    @property
    def meta(self) -> dict:
        """The :func:`~repro.index.pages.page_meta` of :attr:`pages`."""
        return page_meta(
            dimension=self.dimension or 0, size=self.size, fanout=self.max_entries,
            page_size=self._pages.dtype.itemsize, n_pages=self._n_pages,
            n_leaves=np.count_nonzero(self._is_leaf[: self._n_pages]),
            height=self.height(),
        )

    def _alloc(self, is_leaf: bool) -> int:
        """A blank page from the free list, else past the last page in use."""
        if self._free:
            page = self._free.pop()
        else:
            if self._n_pages == self._pages.shape[0]:
                grown = np.zeros(2 * self._n_pages, dtype=self._pages.dtype)
                grown[: self._n_pages] = self._pages[: self._n_pages]
                self._bind(grown, self._n_pages)
            page = self._n_pages
            self._n_pages += 1
            self._ids[page] = -1
        self._is_leaf[page] = is_leaf
        return page

    def _release(self, page: int) -> None:
        """Blank ``page`` (no leaf, no entries) and put it on the free list."""
        self._is_leaf[page] = False
        self._count[page] = 0
        self._lower[page] = np.nan
        self._upper[page] = np.nan
        self._ids[page] = -1
        self._free.append(page)

    def _set_ids(self, page: int, items) -> None:
        count = len(items)
        self._count[page] = count
        self._ids[page, :count] = items
        self._ids[page, count:] = -1

    def _refit(self, page: int) -> None:
        """Recompute the MBB of ``page`` from its entries (``NaN`` when empty)."""
        ids = self._ids[page, : self._count[page]]
        if not ids.size:
            self._lower[page] = self._upper[page] = np.nan
        elif self._is_leaf[page]:
            rows = self.values[ids]
            self._lower[page] = rows.min(axis=0)
            self._upper[page] = rows.max(axis=0)
        else:
            self._lower[page] = self._lower[ids].min(axis=0)
            self._upper[page] = self._upper[ids].max(axis=0)

    # ------------------------------------------------------------- insertion
    def insert(self, index: int, point) -> None:
        """Insert record ``index`` at ``point`` (least-enlargement descent,
        quadratic split); ``values[index]`` must equal ``point``."""
        point = np.asarray(point, dtype=float).reshape(-1)
        if self.dimension is None:
            self._load(np.empty((0, point.shape[0])))
        elif point.shape[0] != self.dimension:
            raise InvalidDatasetError("point dimensionality does not match the tree")
        self._insert_entry(int(index), point)
        self.size += 1

    def _insert_entry(self, index: int, point: np.ndarray) -> None:
        """Place one already-validated entry (shared by insert and reinsertion)."""
        path = self._choose_leaf(point)
        # Every node on the path now also covers the point: its tight MBB
        # grows by exactly that, whatever the splits below redistribute.
        rows = np.asarray(path)
        self._lower[rows] = np.fmin(self._lower[rows], point)
        self._upper[rows] = np.fmax(self._upper[rows], point)
        item, depth = index, len(path) - 1
        while True:
            page = path[depth]
            count = int(self._count[page])
            if count < self.max_entries:
                self._ids[page, count] = item
                self._count[page] = count + 1
                return
            sibling = self._split(page, np.append(self._ids[page, :count], item))
            if depth == 0:
                self._split_root(sibling)
                return
            item, depth = sibling, depth - 1

    def _choose_leaf(self, point: np.ndarray) -> list[int]:
        """Root-to-leaf path of least MBB enlargement (ties: smaller volume,
        then the earlier child)."""
        path = [0]
        while not self._is_leaf[path[-1]]:
            page = path[-1]
            children = self._ids[page, : self._count[page]]
            lower, upper = self._lower[children], self._upper[children]
            volume = np.prod(upper - lower, axis=1)
            cost = np.prod(np.maximum(upper, point) - np.minimum(lower, point), axis=1) - volume
            tied = np.flatnonzero(cost == cost.min())
            path.append(int(children[tied[np.argmin(volume[tied])]]))
        self.count_access("insert", len(path))
        return path

    def _split(self, page: int, items: np.ndarray) -> int:
        """Quadratic split of ``page`` holding ``items`` (one more than fit):
        the page keeps one group and a new sibling page, returned, the other."""
        is_leaf = bool(self._is_leaf[page])
        if is_leaf:
            lower = upper = self.values[items]
        else:
            lower, upper = self._lower[items], self._upper[items]
        group_a, group_b = _quadratic_split(lower, upper, self.min_entries)
        sibling = self._alloc(is_leaf)
        for target, group in ((page, group_a), (sibling, group_b)):
            self._set_ids(target, items[group])
            self._refit(target)
        return sibling

    def _split_root(self, sibling: int) -> None:
        """Page 0 split: its first group moves to a new page, and page 0
        becomes the parent of that page and ``sibling``."""
        moved = self._alloc(False)
        self._pages[moved] = self._pages[0]
        self._is_leaf[0] = False
        self._set_ids(0, [moved, sibling])
        self._refit(0)

    # -------------------------------------------------------------- deletion
    def delete(self, index: int, point=None) -> None:
        """Remove record ``index`` from the tree.

        ``point`` is an optional location hint: when given, only subtrees
        whose MBB contains it are searched (the common case for callers that
        know the record's coordinates); a failed hinted search falls back to
        a full traversal, so a slightly off hint degrades to a scan instead
        of a spurious ``KeyError``.  Underflowing nodes are dissolved and
        their surviving records re-inserted (the classical condense-tree
        step), which keeps every MBB tight.  Raises :class:`KeyError` when
        the record is not in the tree.
        """
        index = int(index)
        hint = None if point is None else np.asarray(point, dtype=float).reshape(-1)
        path = None
        if self.dimension is not None:
            path = self._find_leaf(index, hint)
            if path is None and hint is not None:
                path = self._find_leaf(index, None)
        if path is None:
            raise KeyError(f"record {index} is not in the tree")
        leaf = path[-1]
        ids = self._ids[leaf, : self._count[leaf]]
        self._set_ids(leaf, ids[ids != index])
        self.size -= 1
        self._condense(path)

    def _covering(self, pages, point: np.ndarray | None) -> list[bool]:
        """Whether each page's MBB contains the hint ``point`` (all, without one)."""
        if point is None:
            return [True] * len(pages)
        lower, upper = self._lower[pages], self._upper[pages]
        return np.all((lower - _HINT_TOL <= point) & (point <= upper + _HINT_TOL),
                      axis=1).tolist()

    def _find_leaf(self, index: int, point: np.ndarray | None) -> list[int] | None:
        """Root-to-leaf path to the leaf holding record ``index``, searched
        depth first (pruned by ``point`` when given), or ``None``."""
        stack = [(0, 0, self._covering([0], point)[0])]
        path: list[int] = []
        visited = 0
        try:
            while stack:
                page, depth, covered = stack.pop()
                visited += 1
                if not covered:
                    continue
                del path[depth:]
                path.append(page)
                ids = self._ids[page, : self._count[page]]
                if self._is_leaf[page]:
                    if (ids == index).any():
                        return path
                else:
                    children = ids.tolist()
                    stack.extend(zip(children, [depth + 1] * len(children),
                                     self._covering(ids, point)))
            return None
        finally:
            self.count_access("delete", visited)

    def _condense(self, path: list[int]) -> None:
        """Dissolve underfull nodes on ``path`` and re-insert their records."""
        orphans: list[int] = []
        for depth in range(len(path) - 1, 0, -1):
            page, parent = path[depth], path[depth - 1]
            if self._count[page] < self.min_entries:
                siblings = self._ids[parent, : self._count[parent]]
                self._set_ids(parent, siblings[siblings != page])
                orphans.extend(self._dissolve(page))
            else:
                self._refit(page)
        self._refit(0)
        # Shrink the root: an internal root with a single child is replaced by
        # that child; one left with no children becomes an empty leaf again.
        while not self._is_leaf[0] and self._count[0] == 1:
            child = int(self._ids[0, 0])
            self._pages[0] = self._pages[child]
            self._release(child)
        if not self._count[0]:
            self._is_leaf[0] = True
        for orphan in orphans:
            self._insert_entry(orphan, self.values[orphan])

    def _dissolve(self, page: int) -> list[int]:
        """Record ids beneath ``page`` in depth-first order; frees its subtree."""
        entries: list[int] = []
        stack = [page]
        while stack:
            current = stack.pop()
            ids = self._ids[current, : self._count[current]].tolist()
            if self._is_leaf[current]:
                entries.extend(ids)
            else:
                stack.extend(ids)
            self._release(current)
        return entries

    # ------------------------------------------------------------- traversal
    def read_root(self) -> tuple[int, np.ndarray | None]:
        """The root page 0 and its MBB top corner (``None`` for an empty tree)."""
        if not self.size:
            return 0, None
        return 0, self._upper[0]

    def read_node(self, page: int) -> tuple[bool, list[int], np.ndarray]:
        """Page ``page`` as ``(is_leaf, ids, corners)``.

        For an internal node, ``ids`` are the child pages and ``corners``
        their MBB top corners; for a leaf, the record ids and their rows
        from :attr:`values`.  ``corners`` has one row per id.
        """
        ids = self._ids[page, : self._count[page]]
        if self._is_leaf[page]:
            return True, ids.tolist(), self.values[ids]
        return False, ids.tolist(), self._upper[ids]

    def height(self) -> int:
        """Number of levels in the tree (a single leaf root has height 1)."""
        level, page = 1, 0
        while self.dimension is not None and not self._is_leaf[page]:
            page = self._ids[page, 0]
            level += 1
        return level

    def fill_factor(self) -> float:
        """Mean leaf occupancy relative to the fanout."""
        n_leaves = self.meta["n_leaves"]
        return self.size / (n_leaves * self.max_entries) if n_leaves else 0.0

    def __len__(self) -> int:
        return self.size


def _quadratic_split(lower: np.ndarray, upper: np.ndarray,
                     min_entries: int) -> tuple[list[int], list[int]]:
    """Guttman's quadratic split of the boxes ``[lower[i], upper[i]]``.

    The seeds are the pair wasting the most volume together (the first such
    pair in row-major order); each other box then joins the group whose MBB
    it enlarges less (ties: the smaller group, then the first), unless a
    group needs every box still unassigned to reach ``min_entries``.
    Returns the two groups' positions in assignment order.
    """
    volume = np.prod(upper - lower, axis=1)
    first, second = np.triu_indices(lower.shape[0], 1)
    waste = (np.prod(np.maximum(upper[first], upper[second])
                     - np.minimum(lower[first], lower[second]), axis=1)
             - volume[first] - volume[second])
    best = int(np.argmax(waste))
    seeds = (int(first[best]), int(second[best]))
    groups = ([seeds[0]], [seeds[1]])
    boxes = [[lower[seed], upper[seed]] for seed in seeds]
    remaining = [i for i in range(lower.shape[0]) if i not in seeds]
    for handed_out, position in enumerate(remaining):
        unassigned = len(remaining) - handed_out
        if len(groups[0]) + unassigned <= min_entries:
            side = 0
        elif len(groups[1]) + unassigned <= min_entries:
            side = 1
        else:
            cost_a, cost_b = (
                float(np.prod(np.maximum(box_upper, upper[position])
                              - np.minimum(box_lower, lower[position])))
                - float(np.prod(box_upper - box_lower))
                for box_lower, box_upper in boxes
            )
            side = 0 if cost_a < cost_b or (
                cost_a == cost_b and len(groups[0]) <= len(groups[1])) else 1
        groups[side].append(position)
        box = boxes[side]
        box[0] = np.minimum(box[0], lower[position])
        box[1] = np.maximum(box[1], upper[position])
    return groups
