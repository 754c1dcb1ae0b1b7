"""Per-layer figures from a traced run: span arithmetic and registry reads.

Everything here reads what the program already records through
:mod:`repro.obs` -- span trees (``take_finished``) and the ``REGISTRY``
series of :mod:`repro.obs.names` -- plus the benchmark's own spans around
each call it makes into a layer.  Nothing is added under ``src/``.

The buffer-pool figures are read from ``PagedRTree.pool.stats`` and never
from ``repro_bufferpool_events_total``: ``BufferPool._event`` derives the
registry label with ``event.rstrip("s")``, which exports misses as
``event="misse"``.  The label is a defect for a later fix; the benchmark
must not depend on it.
"""

from __future__ import annotations

import math

from repro.obs import names

#: Minimum number of samples that must lie beyond a reported percentile.
MIN_TAIL_SAMPLES = 10

#: Reuse paths of ``repro_queries_total``; one ``engine.queries.<source>`` each.
QUERY_SOURCES = ("hit", "containment", "skyband-hit", "skyband-containment", "cold")

_REUSE_SOURCES = frozenset({"containment", "skyband-hit", "skyband-containment"})
_CORE_PREFIXES = ("rsa.", "jaa.")


# ----------------------------------------------------------------- percentiles
def percentile(samples, q: float) -> float:
    """The ``q``-th percentile with linear interpolation between order statistics.

    Position ``(n - 1) * q / 100`` of the sorted samples -- numpy's default
    ``"linear"`` rule and ``statistics.quantiles(..., method="inclusive")``.
    """
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_supported(count: int, q: float) -> bool:
    """Whether ``count`` samples leave at least ten beyond the ``q``-th percentile."""
    return count * (100.0 - q) / 100.0 >= MIN_TAIL_SAMPLES


def reported_percentile(samples, q: float) -> float:
    """:func:`percentile`, refusing a tail the sample cannot support."""
    if not tail_supported(len(samples), q):
        raise ValueError(
            f"p{q:g} needs at least {MIN_TAIL_SAMPLES} samples beyond it; "
            f"got {len(samples)} samples"
        )
    return percentile(samples, q)


# ------------------------------------------------------------------ span trees
def self_time(node) -> float:
    """A span's duration minus the durations of its children."""
    return node.duration - sum(child.duration for child in node.children)


def walk(roots):
    """Pre-order ``(span, ancestors)`` pairs over a span forest."""
    stack = [(root, ()) for root in reversed(list(roots))]
    while stack:
        node, ancestors = stack.pop()
        yield node, ancestors
        below = ancestors + (node,)
        stack.extend((child, below) for child in reversed(node.children))


def span_figures(roots, *, wal_fsync_s: float = 0.0) -> dict:
    """Per-layer sums over a traced window's span forest.

    ``roots`` holds the benchmark's own root spans and the server threads'
    root spans (``engine.*`` query spans and ``dynamic.apply_updates``).
    ``wal_fsync_s`` is the window's ``repro_wal_fsync_seconds`` sum, taken
    off the client round trips together with the server-side spans to leave
    ``serve.wire_s``.
    """
    out = dict.fromkeys((
        "core.refine_s", "core.arrangement_s", "core.halfspace_build_s",
        "geometry.build_cache_refine_s", "geometry.build_cache_clip_s",
        "engine.cold_self_s", "engine.reuse_self_s", "engine.hit_self_s",
        "dynamic.apply_s", "dynamic.apply_max_s", "colstore.build_s",
        "serve.rtt_s.query", "serve.rtt_s.insert", "serve.rtt_s.delete",
    ), 0.0)
    out["core.halfspaces_inserted"] = 0
    out["core.arrangements_built"] = 0
    server_side = 0.0
    for node, ancestors in walk(roots):
        name = node.name
        if name in ("rsa.refine", "jaa.refine"):
            out["core.refine_s"] += node.duration
        elif name in ("rsa.arrangement", "jaa.arrangement"):
            out["core.arrangement_s"] += node.duration
            out["core.arrangements_built"] += 1
            out["core.halfspaces_inserted"] += int(node.attrs.get("halfspaces", 0))
        elif name in ("rsa.halfspace_build", "jaa.halfspace_build"):
            out["core.halfspace_build_s"] += node.duration
        elif name == "cell.build_cache":
            if any(up.name.startswith(_CORE_PREFIXES) for up in ancestors):
                out["geometry.build_cache_refine_s"] += self_time(node)
            elif any(up.name.startswith("engine.") for up in ancestors):
                out["geometry.build_cache_clip_s"] += self_time(node)
        elif name in ("engine.utk1", "engine.utk2"):
            source = node.attrs.get("source")
            if source == "cold":
                out["engine.cold_self_s"] += self_time(node)
            elif source == "hit":
                out["engine.hit_self_s"] += self_time(node)
            elif source in _REUSE_SOURCES:
                out["engine.reuse_self_s"] += self_time(node)
            if not ancestors:
                server_side += node.duration
        elif name == "dynamic.apply_updates":
            out["dynamic.apply_s"] += node.duration
            out["dynamic.apply_max_s"] = max(out["dynamic.apply_max_s"], node.duration)
            if not ancestors:
                server_side += node.duration
        elif name == "bench.setup" and node.attrs.get("store") == "colstore":
            out["colstore.build_s"] += node.duration
        elif name == "bench.request":
            out[f"serve.rtt_s.{node.attrs['op']}"] += node.duration
    rtt = out["serve.rtt_s.query"] + out["serve.rtt_s.insert"] + out["serve.rtt_s.delete"]
    out["serve.wire_s"] = rtt - server_side - wal_fsync_s if rtt else 0.0
    return out


# -------------------------------------------------------------------- registry
def _counter_sum(counter, **match) -> float:
    return sum(sample["value"] for sample in counter.samples()
               if all(sample["labels"].get(key) == value for key, value in match.items()))


def histogram_p50(histogram) -> float:
    """Upper bound of the bucket holding the median observation (0 when empty)."""
    snapshot = histogram.snapshot_of()
    count = snapshot["count"]
    if not count:
        return 0.0
    # The last bucket (+Inf) holds every observation, so the loop returns.
    for bound, cumulative in snapshot["buckets"].items():
        if cumulative * 2 >= count:
            return float(bound)


def registry_figures() -> dict:
    """Counters and histograms recorded since the window's ``REGISTRY.reset()``."""
    out = {
        "core.skyband_size_p50": histogram_p50(names.SKYBAND_SIZE),
        "geometry.vertex_clip_calls": names.GEOMETRY_CALLS.value(kind="vertex_clip"),
        "geometry.lp_calls": names.GEOMETRY_CALLS.value(kind="lp"),
        "geometry.fallback_calls": names.GEOMETRY_CALLS.value(kind="fallback"),
        "engine.evictions": _counter_sum(names.CACHE_EVENTS, event="eviction"),
        "index.search_nodes": names.RTREE_NODE_ACCESSES.value(op="search"),
        "index.insert_nodes": names.RTREE_NODE_ACCESSES.value(op="insert"),
        "index.delete_nodes": names.RTREE_NODE_ACCESSES.value(op="delete"),
        "serve.errors": (_counter_sum(names.SERVE_REQUESTS, outcome="error")
                         + _counter_sum(names.RETRIES)),
        "serve.stripe_lock_wait_s": sum(
            sample["sum"] for sample in names.STRIPE_LOCK_WAIT_SECONDS.samples()),
    }
    for source in QUERY_SOURCES:
        out[f"engine.queries.{source}"] = _counter_sum(names.QUERIES, source=source)
    for kind in ("repaired", "noop", "evicted", "retained"):
        out[f"dynamic.{kind}"] = names.MAINTENANCE_OUTCOMES.value(kind=kind)
    fsync = names.WAL_FSYNC_SECONDS.snapshot_of()
    out["resilience.wal_fsync_s"] = fsync["sum"]
    out["resilience.wal_fsyncs"] = fsync["count"]
    return out
