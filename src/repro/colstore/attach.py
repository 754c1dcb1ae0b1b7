"""Binding colstore directories to query engines.

Two entry points:

* :func:`materialize` builds a fresh store (and its paged R-tree) from an
  ``(n, d)`` matrix under a directory;
* :func:`attach_engine_inputs` resolves ``make_engine(store="colstore")``:
  either materialize the supplied data, or re-attach a persisted directory
  read-only (building the index file on demand if it is missing).

The conventional index file name inside a store directory is
:data:`INDEX_NAME`; the serve tier uses its own per-generation names.
"""

from __future__ import annotations

from pathlib import Path

from repro.colstore.pages import DEFAULT_FANOUT, PagedRTree, build_paged_rtree
from repro.colstore.store import ColumnarRecordStore
from repro.exceptions import StorageError
from repro.index.pages import DEFAULT_BUDGET_ROWS

#: Page-file name of the store-resident index built by :func:`materialize`.
INDEX_NAME = "rtree.pages"


def materialize(
    data,
    directory,
    *,
    max_entries: int = DEFAULT_FANOUT,
    budget_rows: int = DEFAULT_BUDGET_ROWS,
    build_index: bool = True,
) -> ColumnarRecordStore:
    """Create a colstore at ``directory`` holding ``data`` (plus its index)."""
    store = ColumnarRecordStore(data, directory=directory)
    if build_index:
        build_paged_rtree(
            store,
            Path(directory) / INDEX_NAME,
            max_entries=max_entries,
            budget_rows=budget_rows,
        )
    store.sync()
    return store


def attach_engine_inputs(data, store_dir, *, pool_pages: int | None = None):
    """``(store, tree)`` for a read-only engine over the colstore backend.

    With ``data`` given, materializes it at ``store_dir`` first; otherwise
    attaches the persisted store there read-only.  The engine queries the
    store's zero-copy mmap view, and the tree is a :class:`PagedRTree` whose
    leaf ids index that view (tombstoned rows are unreachable through the
    index, as in an engine that maintains its own tree).
    """
    if store_dir is None:
        raise StorageError("the colstore backend needs store_dir=<directory>")
    directory = Path(store_dir)
    if data is not None:
        store = materialize(data, directory)
    else:
        store = ColumnarRecordStore.open(directory, mode="r")
    index_path = directory / INDEX_NAME
    if not index_path.exists():
        # The loader only reads the store, so building from a read-only
        # attachment is fine — the page file lands next to the manifest.
        build_paged_rtree(store, index_path)
    options = {} if pool_pages is None else {"pool_pages": pool_pages}
    tree = PagedRTree(index_path, store.matrix, **options)
    return store, tree
