"""Interleaved update/query event streams over one :class:`~repro.engine.UTKEngine`.

Every engine accepts record insertions and deletions (see
:mod:`repro.engine.engine`); :func:`serve_events` drives one through the
event shape the ``repro stream`` CLI reads from JSONL and
:func:`repro.datasets.synthetic.update_stream` generates, and
:data:`OP_INSERT` / :data:`OP_DELETE` name the two update operations of that
shape.
"""

from __future__ import annotations

from repro.core.region import Region
from repro.core.result import UTK1Result, UTK2Result
from repro.exceptions import InvalidQueryError

#: Update operations accepted by :meth:`UTKEngine.apply_updates`.
OP_INSERT = "insert"
OP_DELETE = "delete"


def serve_events(engine, events) -> list[dict]:
    """Process an interleaved update/query event stream; returns per-event reports.

    Each event is a mapping: ``{"op": "insert", "values": [...]}`` /
    ``{"op": "delete", "id": ...}`` or ``{"op": "query", "lower": [...],
    "upper": [...], "k": ..., "version": "utk1"|"utk2"|"both"}`` (the exact
    shape the ``repro stream`` CLI reads from JSONL and
    :func:`repro.datasets.synthetic.update_stream` generates).  Query events
    may alternatively carry a prebuilt ``"region"``.
    """
    from repro.core.region import hyperrectangle

    # Streams revisit hot regions; constructing a Region runs a Chebyshev
    # LP, so identical corner pairs are interned instead of rebuilt.
    region_memo: dict[tuple, Region] = {}

    def corners_region(lower, upper) -> Region:
        key = (tuple(float(v) for v in lower), tuple(float(v) for v in upper))
        cached = region_memo.get(key)
        if cached is None:
            cached = region_memo[key] = hyperrectangle(lower, upper)
        return cached

    reports: list[dict] = []
    for number, event in enumerate(events):
        op = event.get("op") if isinstance(event, dict) else None
        if op in (OP_INSERT, OP_DELETE):
            outcome = engine.apply_updates([event])
            record = {"event": number, "op": op,
                      "entries_repaired": outcome["entries_repaired"],
                      "entries_evicted": outcome["entries_evicted"]}
            if op == OP_INSERT:
                record["id"] = outcome["inserted_ids"][0]
            else:
                record["id"] = int(event["id"])
            reports.append(record)
            continue
        if op != "query":
            raise InvalidQueryError(f"event {number}: unknown op {op!r}")
        region = event.get("region")
        if region is None:
            region = corners_region(event["lower"], event["upper"])
        elif not isinstance(region, Region):
            raise InvalidQueryError(f"event {number}: region must be a Region")
        k = int(event["k"])
        version = event.get("version", "utk1")
        if version not in ("utk1", "utk2", "both"):
            raise InvalidQueryError(f"event {number}: unknown version {version!r}")
        record = {"event": number, "op": "query", "k": k, "version": version, "sources": {}}
        first: UTK1Result | None = None
        second: UTK2Result | None = None
        if version in ("utk2", "both"):
            second, record["sources"]["utk2"] = engine.serve_utk2(region, k)
        if version in ("utk1", "both"):
            first, record["sources"]["utk1"] = engine.serve_utk1(region, k)
        if first is not None:
            record["utk1"] = {"records": first.indices}
        if second is not None:
            record["utk2"] = {
                "partitions": len(second),
                "distinct_top_k_sets": sorted(sorted(s) for s in second.distinct_top_k_sets),
            }
        reports.append(record)
    return reports
