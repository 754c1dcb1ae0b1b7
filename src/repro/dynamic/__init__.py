"""repro.dynamic — streaming insert/delete maintenance for the UTK stack.

A static stack would force a full rebuild on any record change (re-bulk-load
the R-tree, recompute every r-skyband, drop every engine cache).  This
subsystem holds the pieces that make :class:`~repro.engine.UTKEngine`
update-aware instead:

* :class:`RecordStore` — a growable record buffer with stable ids and
  tombstoned deletes (:mod:`repro.dynamic.store`), the base of every storage
  backend;
* :func:`repair_insert` / :func:`repair_delete` — exact incremental
  r-skyband maintenance (:mod:`repro.dynamic.maintenance`);
* :func:`serve_events` — an interleaved update/query event stream driven
  through an engine (:mod:`repro.dynamic.engine`, the ``repro stream`` CLI
  mode).
"""

from repro.dynamic.engine import serve_events
from repro.dynamic.maintenance import (
    KIND_NOOP,
    KIND_PATCHED,
    KIND_REFILTERED,
    SkybandRepair,
    repair_delete,
    repair_insert,
)
from repro.dynamic.store import RecordStore

__all__ = [
    "serve_events",
    "RecordStore",
    "SkybandRepair",
    "repair_insert",
    "repair_delete",
    "KIND_NOOP",
    "KIND_PATCHED",
    "KIND_REFILTERED",
]
