"""repro.engine — persistent query serving for UTK workloads.

The engine subsystem turns the library's one-shot algorithms into a serving
layer: bind a dataset once, then answer repeated, nearby and batched queries
through memoized r-skybands, region-containment reuse and a thread-pool batch
executor.  See :class:`UTKEngine` for the full story.
"""

from repro.engine.batch import (BatchItem, BatchQuery, as_batch_query, run_batch, summarize_batch)
from repro.engine.cache import LRUCache, region_contains, region_signature
from repro.engine.engine import (EngineStatistics, UpdateStatistics, UTKEngine,
                                 clip_partitioning)

__all__ = [
    "UTKEngine",
    "EngineStatistics",
    "UpdateStatistics",
    "clip_partitioning",
    "BatchQuery",
    "BatchItem",
    "as_batch_query",
    "run_batch",
    "summarize_batch",
    "LRUCache",
    "region_contains",
    "region_signature",
]
