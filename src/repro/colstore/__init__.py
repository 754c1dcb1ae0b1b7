"""repro.colstore — memory-mapped columnar storage with a paged R-tree.

Scales the UTK stack past RAM: records live in mmap'ed column files
(:class:`ColumnarRecordStore`), the index lives in a page file of the
R-tree's one page format, traversed through a pinning LRU buffer pool
(:class:`PagedRTree` / :class:`BufferPool`), and :func:`build_paged_rtree`
bulk-loads it with external chunked STR passes that never materialize the
dataset.
"""

from repro.colstore.attach import INDEX_NAME, attach_engine_inputs, materialize
from repro.colstore.pages import (
    BufferPool,
    PagedRTree,
    build_paged_rtree,
    read_meta,
    write_pages,
)
from repro.colstore.store import (
    ColumnarRecordStore,
    attach_columns,
    read_manifest,
    write_manifest,
)

__all__ = [
    "BufferPool",
    "ColumnarRecordStore",
    "INDEX_NAME",
    "PagedRTree",
    "attach_columns",
    "attach_engine_inputs",
    "materialize",
    "build_paged_rtree",
    "read_meta",
    "read_manifest",
    "write_manifest",
    "write_pages",
]
