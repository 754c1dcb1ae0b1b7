"""Geometry telemetry counters (the always-on substrate under the registry).

The refinement algorithms answer every geometric question either from a
cell's cached V-representation (one dot product), from the exact
vertex-enumeration LP fast path, or — as a last resort — from a scipy
``linprog`` round-trip.  These counters record which of the three actually
ran, so a query's stats show whether it stayed on the fast path:

* ``lp_calls`` — linear programs solved by cell geometry (classification,
  Chebyshev data, drill vectors, linear ranges) because no vertex cache was
  available;
* ``vertex_clip_calls`` — incremental vertex clips performed by
  :mod:`repro.geometry.vertex_clip`;
* ``enumeration_calls`` — from-scratch ``C(m, d)`` vertex enumerations run
  by ``build_cache`` (cells whose cache could not be derived by a clip);
* ``fallback_calls`` — actual :func:`scipy.optimize.linprog` invocations
  (programs the vertex-enumeration fast path could not answer).

Counters are *thread-local*: the engine's batch executor serves independent
queries on separate threads, and each query's delta must not see its
neighbours' work.  Worker processes of the parallel executor count in their
own interpreter; their per-shard deltas travel back inside the result stats
and are summed by the merge step.

Unlike the rest of :mod:`repro.obs`, these counters are *not* gated on the
observability flag: a bare integer increment is cheaper than the check would
make meaningful, and the per-query deltas feed the always-available
``--stats`` output.  When observability *is* enabled, RSA/JAA publish each
run's delta into :data:`repro.obs.names.GEOMETRY_CALLS`, folding this
telemetry into the registry schema.
"""

from __future__ import annotations

import threading

#: Registry label values for the four counters, in snapshot order.
GEOMETRY_KINDS = ("lp", "vertex_clip", "enumeration", "fallback")


class GeometryCounters(threading.local):
    """Thread-local monotonic counters; read them via snapshot/delta pairs."""

    def __init__(self):
        self.lp_calls = 0
        self.vertex_clip_calls = 0
        self.enumeration_calls = 0
        self.fallback_calls = 0

    def snapshot(self) -> tuple[int, int, int, int]:
        """Current counter values, for a later :meth:`since` delta."""
        return (self.lp_calls, self.vertex_clip_calls, self.enumeration_calls,
                self.fallback_calls)

    def since(self, snapshot: tuple[int, int, int, int]) -> dict[str, int]:
        """Counter increments since ``snapshot``, as plain stats keys."""
        return {
            "lp_calls": self.lp_calls - snapshot[0],
            "vertex_clip_calls": self.vertex_clip_calls - snapshot[1],
            "enumeration_calls": self.enumeration_calls - snapshot[2],
            "fallback_calls": self.fallback_calls - snapshot[3],
        }


#: Process-wide (per-thread) counter instance.
COUNTERS = GeometryCounters()


def publish_delta(delta: dict) -> None:
    """Fold one run's geometry delta into the registry (no-op when disabled)."""
    from repro.obs import runtime

    if not runtime._ENABLED:
        return
    from repro.obs import names

    for kind, key in zip(GEOMETRY_KINDS, ("lp_calls", "vertex_clip_calls",
                                          "enumeration_calls", "fallback_calls")):
        count = delta.get(key, 0)
        if count:
            names.GEOMETRY_CALLS.inc(count, kind=kind)
