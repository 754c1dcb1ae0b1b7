"""The serving tier's engine defaults: :class:`ServeEngine`.

The serving tier runs the one :class:`~repro.engine.engine.UTKEngine`.  Its
query path, update path, seqlock, caches, worker descriptors and statistics
are the engine's; :class:`ServeEngine` only changes the default store to
``store="shm"``: the records live in a
:class:`~repro.serve.shm.SharedRecordStore`, so query workers attach the
buffer and a copy of the R-tree's pages zero-copy instead of rebuilding.

Every other keyword argument, ``store="colstore"`` and ``store_dir=``
included, passes through to the engine unchanged.
"""

from __future__ import annotations

from repro.engine.engine import UTKEngine


class ServeEngine(UTKEngine):
    """A :class:`UTKEngine` with the serving tier's default store (see module docstring)."""

    def __init__(self, data, *, store: str = "shm", **options):
        super().__init__(data, store=store, **options)
