"""The serving tier: shared-memory dataset, striped caches, socket front-end.

One process owns the dataset (a :class:`~repro.serve.engine.ServeEngine`
wrapping shared-memory record buffers and a packable R-tree); query workers
attach the shared segments zero-copy instead of rebuilding per spawn; an
asyncio JSONL server (``repro serve``) multiplexes concurrent query and
update clients over it.  See the README's "Serving" section for the
protocol and knobs.
"""

from repro.engine.cache import DEFAULT_STRIPES, StripedCache, stripe_index
from repro.serve.engine import ServeEngine
from repro.serve.packed import PackedRTree
from repro.serve.shm import (
    AttachedSegment,
    OwnedSegment,
    SharedRecordStore,
    attach_arrays,
    pack_arrays,
)

__all__ = [
    "AttachedSegment",
    "DEFAULT_STRIPES",
    "OwnedSegment",
    "PackedRTree",
    "ServeEngine",
    "SharedRecordStore",
    "StripedCache",
    "attach_arrays",
    "pack_arrays",
    "stripe_index",
]
