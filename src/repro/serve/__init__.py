"""The serving tier: an engine over shared memory behind a socket front-end.

One process owns the dataset (a :class:`~repro.serve.engine.ServeEngine`
over shared-memory record buffers, publishing a copy of its R-tree pages);
query workers attach the shared segments zero-copy instead of rebuilding
per spawn; an asyncio JSONL server (``repro serve``) multiplexes concurrent
query and update clients over it.  See the README's "Serving" section for the
protocol and knobs.
"""

from repro.serve.engine import ServeEngine
from repro.serve.shm import (
    AttachedSegment,
    OwnedSegment,
    SharedRecordStore,
    attach_arrays,
    pack_arrays,
)

__all__ = [
    "AttachedSegment",
    "OwnedSegment",
    "ServeEngine",
    "SharedRecordStore",
    "attach_arrays",
    "pack_arrays",
]
