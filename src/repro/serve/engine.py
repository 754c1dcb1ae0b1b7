"""The serving tier's engine defaults: :class:`ServeEngine`.

The serving tier runs the one :class:`~repro.engine.engine.UTKEngine`.  Its
query path, update path, seqlock, worker descriptors and statistics are the
engine's; :class:`ServeEngine` only changes two defaults for concurrent
traffic:

* ``store="shm"``: the records live in a
  :class:`~repro.serve.shm.SharedRecordStore`, so query workers attach the
  buffer and a copy of the R-tree's pages zero-copy instead of rebuilding;
* ``stripes=DEFAULT_STRIPES``: each engine cache is split into that many
  independently locked stripes, so warm queries touching different
  region-hash stripes never contend and an update's maintenance sweep
  blocks one stripe at a time.

Every other keyword argument, ``store="colstore"`` and ``store_dir=``
included, passes through to the engine unchanged.
"""

from __future__ import annotations

from repro.engine.cache import DEFAULT_STRIPES
from repro.engine.engine import UTKEngine


class ServeEngine(UTKEngine):
    """A :class:`UTKEngine` with the serving tier's defaults (see module docstring)."""

    def __init__(self, data, *, store: str = "shm", stripes: int = DEFAULT_STRIPES,
                 **options):
        super().__init__(data, store=store, stripes=stripes, **options)
