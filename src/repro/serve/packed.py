"""Zero-copy R-tree traversal over :meth:`RTree.flatten` arrays.

:class:`PackedRTree` answers the tree read contract the BBS traversal
(:func:`repro.skyline.bbs.bbs_candidates`) and branch-and-bound top-k
consume — ``dimension``, ``read_root``, ``read_node`` and ``count_access``
— from the flat arrays a serving worker attached from shared memory.  A
node read is one slice of the child or entry ids plus one fancy index into
``node_upper`` or the record buffer, so attaching costs O(1) regardless of
tree size and no per-node object is ever built.
"""

from __future__ import annotations

import numpy as np

from repro.index.rtree import ACCESS_OPS
from repro.obs import runtime as _obs


class PackedRTree:
    """Read-only R-tree over flattened node arrays plus the value matrix.

    Parameters
    ----------
    flat:
        The :meth:`~repro.index.rtree.RTree.flatten` mapping (or the same
        arrays re-attached from shared memory, with ``dimension``/``size``
        restored from the pack manifest's ``meta``).
    values:
        The record buffer prefix; leaf entry ids index into it.
    """

    def __init__(self, flat: dict, values: np.ndarray):
        self.node_upper = flat["node_upper"]
        self.node_is_leaf = flat["node_is_leaf"]
        self.node_first = flat["node_first"]
        self.node_count = flat["node_count"]
        self.child_nodes = flat["child_nodes"]
        self.entry_ids = flat["entry_ids"]
        self.dimension = int(flat["dimension"]) or None
        self.size = int(flat["size"])
        self.values = values
        self.access_counts: dict[str, int] = dict.fromkeys(ACCESS_OPS, 0)

    def read_root(self) -> tuple[int, np.ndarray | None]:
        """Root position 0 and its MBB top corner (``None`` for an empty tree)."""
        corner = self.node_upper[0]
        return 0, None if np.isnan(corner[0]) else corner

    def read_node(self, position: int) -> tuple[bool, list[int], np.ndarray]:
        """Node ``position`` as ``(is_leaf, ids, corners)`` (see
        :meth:`repro.index.rtree.RTree.read_node`)."""
        first = int(self.node_first[position])
        stop = first + int(self.node_count[position])
        if self.node_is_leaf[position]:
            ids = self.entry_ids[first:stop]
            return True, ids.tolist(), self.values[ids]
        children = self.child_nodes[first:stop]
        corners = self.node_upper[children]
        filled = ~np.isnan(corners[:, 0])
        return False, children[filled].tolist(), corners[filled]

    def count_access(self, op: str, n: int = 1) -> None:
        """Same tally contract as :meth:`RTree.count_access`."""
        if not n:
            return
        self.access_counts[op] += n
        if _obs._ENABLED:
            from repro.obs.names import RTREE_NODE_ACCESSES

            RTREE_NODE_ACCESSES.inc(n, op=op)

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PackedRTree(size={self.size}, nodes={self.node_is_leaf.shape[0]})"
