"""A from-scratch in-memory R-tree.

The tree supports two construction modes:

* **STR bulk loading** (default) — the standard sort-tile-recursive packing,
  which produces well-shaped nodes for static datasets such as the benchmark
  workloads in the paper;
* **incremental insertion** with the classical least-enlargement descent and
  quadratic split, plus **deletion** with the classical condense-tree step
  (underfull nodes are dissolved and their records re-inserted), so dynamic
  workloads are also covered.

Traversal-oriented consumers (BBS, branch-and-bound top-k) read the tree
through two methods, which the packed (:mod:`repro.serve.packed`) and paged
(:mod:`repro.colstore.pages`) trees implement over their own memory:
:meth:`RTree.read_root` gives the root's handle and MBB top corner, and
:meth:`RTree.read_node` one node as arrays — child handles with their MBB
top corners, or record ids with their rows.  The node objects'
``children``/``entries`` serve this tree's own insert and delete.
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import InvalidDatasetError
from repro.index.mbb import MBB
from repro.obs import runtime as _obs

#: Node-access operations tallied by :meth:`RTree.count_access`.
ACCESS_OPS = ("search", "insert", "delete")


class RTreeNode:
    """A node of the R-tree.

    Leaf nodes hold ``entries`` as ``(record_index, point)`` pairs; internal
    nodes hold child nodes.  Every node maintains its MBB.
    """

    __slots__ = ("is_leaf", "children", "entries", "mbb", "parent")

    def __init__(self, is_leaf: bool):
        self.is_leaf = is_leaf
        self.children: list[RTreeNode] = []
        self.entries: list[tuple[int, np.ndarray]] = []
        self.mbb: MBB | None = None
        self.parent: RTreeNode | None = None

    def recompute_mbb(self) -> None:
        """Recompute this node's MBB from its children/entries."""
        if self.is_leaf:
            points = [point for _, point in self.entries]
            self.mbb = MBB.of_points(points) if points else None
        else:
            boxes = [child.mbb for child in self.children if child.mbb is not None]
            if not boxes:
                self.mbb = None
                return
            box = boxes[0].copy()
            for other in boxes[1:]:
                box = box.union(other)
            self.mbb = box

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "leaf" if self.is_leaf else "internal"
        count = len(self.entries) if self.is_leaf else len(self.children)
        return f"RTreeNode({kind}, fanout={count})"


class RTree:
    """R-tree over a point dataset.

    Parameters
    ----------
    points:
        Optional ``(n, d)`` matrix to bulk load immediately (STR packing).
    max_entries:
        Node capacity; ``min_entries`` defaults to ``ceil(max_entries * 0.4)``.
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
        self.root = RTreeNode(is_leaf=True)
        self.access_counts: dict[str, int] = dict.fromkeys(ACCESS_OPS, 0)
        if points is not None:
            self.bulk_load(points)

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

    # ------------------------------------------------------------ bulk loading
    def bulk_load(self, points) -> None:
        """Replace the tree contents with an STR-packed tree over ``points``."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 2:
            raise InvalidDatasetError("bulk_load expects an (n, d) matrix")
        n, d = points.shape
        self.dimension = d
        self.size = n
        if n == 0:
            self.root = RTreeNode(is_leaf=True)
            return
        leaves = self._build_leaves(points)
        self.root = self._pack_upwards(leaves)

    def _build_leaves(self, points: np.ndarray) -> list[RTreeNode]:
        """Sort-tile-recursive packing of the points into leaf nodes."""
        n, d = points.shape
        order = np.arange(n)
        groups = self._str_partition(points, order, axis=0)
        leaves = []
        for group in groups:
            node = RTreeNode(is_leaf=True)
            node.entries = [(int(i), points[i]) for i in group]
            node.recompute_mbb()
            leaves.append(node)
        return leaves

    @staticmethod
    def _even_sizes(count: int, parts: int) -> list[int]:
        """Split ``count`` items into ``parts`` near-equal group sizes."""
        base, remainder = divmod(count, parts)
        return [base + 1] * remainder + [base] * (parts - remainder)

    def _str_partition(self, points: np.ndarray, indices: np.ndarray, axis: int) -> list[
        np.ndarray
    ]:
        """Recursively tile ``indices`` into groups of at most ``max_entries``.

        Groups (and slabs) are sized near-evenly rather than greedily: a
        greedy cut leaves a remainder group that can fall below
        ``min_entries``, and such an underfull node makes a single later
        ``delete`` dissolve (and re-insert) a whole subtree.
        """
        capacity = self.max_entries
        count = indices.shape[0]
        if count <= capacity:
            return [indices]
        d = points.shape[1]
        leaf_count = math.ceil(count / capacity)
        slabs = math.ceil(leaf_count ** (1.0 / (d - axis))) if axis < d - 1 else leaf_count
        ordered = indices[np.argsort(points[indices, axis], kind="stable")]
        groups: list[np.ndarray] = []
        start = 0
        for size in self._even_sizes(count, slabs):
            chunk = ordered[start:start + size]
            start += size
            if axis + 1 < d and chunk.shape[0] > capacity:
                groups.extend(self._str_partition(points, chunk, axis + 1))
            else:
                inner_start = 0
                for inner in self._even_sizes(chunk.shape[0], math.ceil(
                        chunk.shape[0] / capacity)):
                    groups.append(chunk[inner_start:inner_start + inner])
                    inner_start += inner
        return groups

    def _pack_upwards(self, nodes: list[RTreeNode]) -> RTreeNode:
        """Pack a level of nodes into parent levels until a single root remains."""
        while len(nodes) > 1:
            parents: list[RTreeNode] = []
            # Order nodes by the first coordinate of their MBB centre so that
            # siblings are spatially close.
            centres = np.array([(node.mbb.lower + node.mbb.upper) / 2.0 for node in nodes])
            order = np.lexsort(
                tuple(centres[:, axis] for axis in reversed(range(centres.shape[1])))
            )
            ordered = [nodes[i] for i in order]
            start = 0
            for size in self._even_sizes(
                len(ordered), math.ceil(len(ordered) / self.max_entries)
            ):
                parent = RTreeNode(is_leaf=False)
                parent.children = ordered[start:start + size]
                start += size
                for child in parent.children:
                    child.parent = parent
                parent.recompute_mbb()
                parents.append(parent)
            nodes = parents
        root = nodes[0]
        root.parent = None
        return root

    # ------------------------------------------------------------- insertion
    def insert(self, index: int, point) -> None:
        """Insert a single record (least-enlargement descent, quadratic split)."""
        point = np.asarray(point, dtype=float).reshape(-1)
        if self.dimension is None:
            self.dimension = point.shape[0]
        elif point.shape[0] != self.dimension:
            raise InvalidDatasetError("point dimensionality does not match the tree")
        self.size += 1
        self._insert_entry(int(index), point)

    def _insert_entry(self, index: int, point: np.ndarray) -> None:
        """Place one already-validated entry (shared by insert and reinsertion)."""
        leaf = self._choose_leaf(self.root, point)
        leaf.entries.append((index, point))
        leaf.recompute_mbb()
        self._handle_overflow(leaf)
        self._adjust_upwards(leaf.parent)

    def _choose_leaf(self, node: RTreeNode, point: np.ndarray) -> RTreeNode:
        visited = 1
        while not node.is_leaf:
            target = MBB.of_point(point)
            best, best_cost, best_volume = None, None, None
            for child in node.children:
                cost = child.mbb.enlargement(target)
                volume = child.mbb.volume
                if best is None or cost < best_cost or (cost == best_cost and volume < best_volume):
                    best, best_cost, best_volume = child, cost, volume
            node = best
            visited += 1
        self.count_access("insert", visited)
        return node

    def _handle_overflow(self, node: RTreeNode) -> None:
        limit = self.max_entries
        count = len(node.entries) if node.is_leaf else len(node.children)
        if count <= limit:
            return
        sibling = self._split(node)
        parent = node.parent
        if parent is None:
            new_root = RTreeNode(is_leaf=False)
            new_root.children = [node, sibling]
            node.parent = new_root
            sibling.parent = new_root
            new_root.recompute_mbb()
            self.root = new_root
            return
        parent.children.append(sibling)
        sibling.parent = parent
        parent.recompute_mbb()
        self._handle_overflow(parent)

    def _split(self, node: RTreeNode) -> RTreeNode:
        """Quadratic split; ``node`` keeps one group, the returned sibling the other."""
        if node.is_leaf:
            items = node.entries
            boxes = [MBB.of_point(point) for _, point in items]
        else:
            items = node.children
            boxes = [child.mbb for child in items]
        seed_a, seed_b = self._pick_seeds(boxes)
        group_a, group_b = [seed_a], [seed_b]
        box_a, box_b = boxes[seed_a].copy(), boxes[seed_b].copy()
        remaining = [i for i in range(len(items)) if i not in (seed_a, seed_b)]
        for handed_out, position in enumerate(remaining):
            unassigned = len(remaining) - handed_out
            # Forced assignment: when a group needs every item still unassigned
            # to reach the minimum fill, it gets them all (Guttman's stopping
            # rule, evaluated against the *current* unassigned count).
            if len(group_a) + unassigned <= self.min_entries:
                group_a.append(position)
                box_a = box_a.union(boxes[position])
                continue
            if len(group_b) + unassigned <= self.min_entries:
                group_b.append(position)
                box_b = box_b.union(boxes[position])
                continue
            cost_a = box_a.enlargement(boxes[position])
            cost_b = box_b.enlargement(boxes[position])
            if cost_a < cost_b or (cost_a == cost_b and len(group_a) <= len(group_b)):
                group_a.append(position)
                box_a = box_a.union(boxes[position])
            else:
                group_b.append(position)
                box_b = box_b.union(boxes[position])
        sibling = RTreeNode(is_leaf=node.is_leaf)
        if node.is_leaf:
            all_entries = node.entries
            node.entries = [all_entries[i] for i in group_a]
            sibling.entries = [all_entries[i] for i in group_b]
        else:
            all_children = node.children
            node.children = [all_children[i] for i in group_a]
            sibling.children = [all_children[i] for i in group_b]
            for child in sibling.children:
                child.parent = sibling
        node.recompute_mbb()
        sibling.recompute_mbb()
        return sibling

    @staticmethod
    def _pick_seeds(boxes: list[MBB]) -> tuple[int, int]:
        worst_pair, worst_waste = (0, 1), -np.inf
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                waste = boxes[i].union(boxes[j]).volume - boxes[i].volume - boxes[j].volume
                if waste > worst_waste:
                    worst_waste, worst_pair = waste, (i, j)
        return worst_pair

    def _adjust_upwards(self, node: RTreeNode | None) -> None:
        while node is not None:
            node.recompute_mbb()
            node = node.parent

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
        leaf = self._find_leaf(index, hint)
        if leaf is None and hint is not None:
            leaf = self._find_leaf(index, None)
        if leaf is None:
            raise KeyError(f"record {index} is not in the tree")
        leaf.entries = [entry for entry in leaf.entries if entry[0] != index]
        self.size -= 1
        self._condense(leaf)

    def _find_leaf(self, index: int, point: np.ndarray | None) -> RTreeNode | None:
        """The leaf holding record ``index`` (pruned by ``point`` when given)."""
        stack = [self.root]
        visited = 0
        try:
            while stack:
                node = stack.pop()
                visited += 1
                if point is not None and (
                    node.mbb is None or not node.mbb.contains_point(point, tol=1e-12)
                ):
                    continue
                if node.is_leaf:
                    if any(entry_index == index for entry_index, _ in node.entries):
                        return node
                else:
                    stack.extend(node.children)
            return None
        finally:
            self.count_access("delete", visited)

    def _condense(self, leaf: RTreeNode) -> None:
        """Dissolve underfull ancestors of ``leaf`` and re-insert their records."""
        orphans: list[tuple[int, np.ndarray]] = []
        node = leaf
        while node.parent is not None:
            parent = node.parent
            count = len(node.entries) if node.is_leaf else len(node.children)
            if count < self.min_entries:
                parent.children.remove(node)
                orphans.extend(self._collect_entries(node))
            else:
                node.recompute_mbb()
            node = parent
        node.recompute_mbb()
        # Shrink the root: an internal root with a single child is replaced by
        # that child; one left with no children becomes an empty leaf again.
        while not self.root.is_leaf and len(self.root.children) == 1:
            self.root = self.root.children[0]
            self.root.parent = None
        if not self.root.is_leaf and not self.root.children:
            self.root = RTreeNode(is_leaf=True)
        for orphan_index, orphan_point in orphans:
            self._insert_entry(orphan_index, orphan_point)

    @staticmethod
    def _collect_entries(node: RTreeNode) -> list[tuple[int, np.ndarray]]:
        """All leaf entries stored beneath ``node``."""
        entries: list[tuple[int, np.ndarray]] = []
        stack = [node]
        while stack:
            current = stack.pop()
            if current.is_leaf:
                entries.extend(current.entries)
            else:
                stack.extend(current.children)
        return entries

    # ------------------------------------------------------------- flattening
    def flatten(self) -> dict:
        """Pack the tree into flat numpy arrays (BFS order) for sharing.

        The node graph of Python objects cannot cross a process boundary
        without pickling every MBB and entry; the flat form can live in
        shared memory and be traversed zero-copy by
        :class:`repro.serve.packed.PackedRTree`.  Layout (``m`` nodes, node 0
        is the root):

        * ``node_lower``/``node_upper`` — ``(m, d)`` MBB corners (``NaN``
          rows for the empty root);
        * ``node_is_leaf`` — ``(m,)`` bool;
        * ``node_first``/``node_count`` — per node, the slice of
          ``child_nodes`` (internal: BFS positions of its children) or of
          ``entry_ids`` (leaf: record ids of its entries) it owns.

        Entry *points* are not duplicated: a leaf entry's coordinates are the
        record's row in the store buffer, so consumers index the shared
        values matrix by ``entry_ids``.
        """
        order: list[RTreeNode] = [self.root]
        positions: dict[int, int] = {id(self.root): 0}
        for node in order:  # grows during iteration: BFS without a deque
            if not node.is_leaf:
                for child in node.children:
                    positions[id(child)] = len(order)
                    order.append(child)
        m = len(order)
        d = int(self.dimension or 0)
        node_lower = np.full((m, max(d, 1)), np.nan, dtype=float)
        node_upper = np.full((m, max(d, 1)), np.nan, dtype=float)
        node_is_leaf = np.zeros(m, dtype=bool)
        node_first = np.zeros(m, dtype=np.int64)
        node_count = np.zeros(m, dtype=np.int64)
        child_nodes: list[int] = []
        entry_ids: list[int] = []
        for position, node in enumerate(order):
            node_is_leaf[position] = node.is_leaf
            if node.mbb is not None:
                node_lower[position] = node.mbb.lower
                node_upper[position] = node.mbb.upper
            if node.is_leaf:
                node_first[position] = len(entry_ids)
                node_count[position] = len(node.entries)
                entry_ids.extend(int(index) for index, _ in node.entries)
            else:
                node_first[position] = len(child_nodes)
                node_count[position] = len(node.children)
                child_nodes.extend(positions[id(child)] for child in node.children)
        return {
            "dimension": d,
            "size": int(self.size),
            "node_lower": node_lower,
            "node_upper": node_upper,
            "node_is_leaf": node_is_leaf,
            "node_first": node_first,
            "node_count": node_count,
            "child_nodes": np.asarray(child_nodes, dtype=np.int64),
            "entry_ids": np.asarray(entry_ids, dtype=np.int64),
        }

    # ------------------------------------------------------------- traversal
    def read_root(self) -> tuple[RTreeNode, np.ndarray | None]:
        """The root's handle and MBB top corner (``None`` for an empty tree)."""
        root = self.root
        return root, None if root.mbb is None else root.mbb.top_corner

    def read_node(self, node: RTreeNode) -> tuple[bool, list, np.ndarray]:
        """One node as ``(is_leaf, ids, corners)``.

        For an internal node, ``ids`` are the child handles and ``corners``
        their MBB top corners (empty children skipped); for a leaf, the
        record ids and their rows.  ``corners`` has one row per id.
        """
        if node.is_leaf:
            ids = [index for index, _ in node.entries]
            rows = [point for _, point in node.entries]
        else:
            ids = [child for child in node.children if child.mbb is not None]
            rows = [child.mbb.top_corner for child in ids]
        corners = np.array(rows, dtype=float).reshape(len(ids), self.dimension or 0)
        return node.is_leaf, ids, corners

    # ---------------------------------------------------------------- queries
    def range_search(self, lower, upper) -> list[int]:
        """Indices of all records inside the axis-aligned box ``[lower, upper]``."""
        box = MBB(np.asarray(lower, dtype=float), np.asarray(upper, dtype=float))
        result: list[int] = []
        if self.root.mbb is None:
            return result
        stack = [self.root]
        visited = 0
        while stack:
            node = stack.pop()
            visited += 1
            if node.mbb is None or not node.mbb.intersects(box):
                continue
            if node.is_leaf:
                for index, point in node.entries:
                    if box.contains_point(point):
                        result.append(index)
            else:
                stack.extend(node.children)
        self.count_access("search", visited)
        return sorted(result)

    def all_indices(self) -> list[int]:
        """Indices of all records stored in the tree."""
        result: list[int] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                result.extend(index for index, _ in node.entries)
            else:
                stack.extend(node.children)
        return sorted(result)

    def height(self) -> int:
        """Number of levels in the tree (a single leaf root has height 1)."""
        level, node = 1, self.root
        while not node.is_leaf:
            node = node.children[0]
            level += 1
        return level

    def __len__(self) -> int:
        return self.size
