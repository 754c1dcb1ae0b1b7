"""Computational-geometry substrate used by the UTK algorithms.

The subpackage provides a linear-programming toolkit over H-polytopes
(:mod:`repro.geometry.linear_programming`), incremental V-representation
maintenance for arrangement cells (:mod:`repro.geometry.vertex_clip`), exact
one-dimensional interval helpers (:mod:`repro.geometry.interval`),
convex-hull utilities (:mod:`repro.geometry.convex_hull`) and onion-layer
computation (:mod:`repro.geometry.onion`).
"""

from repro.geometry.linear_programming import (
    LPResult,
    chebyshev_center,
    feasible_point,
    has_interior,
    maximize,
    minimize,
    polytope_vertices,
)
from repro.obs.geometry import COUNTERS, GeometryCounters
from repro.geometry.vertex_clip import VertexCache, build_cache, clip
from repro.geometry.interval import Interval
from repro.geometry.convex_hull import (
    hull_vertices,
    upper_hull_members,
    is_upper_hull_member,
)
from repro.geometry.onion import onion_layers

__all__ = [
    "LPResult",
    "chebyshev_center",
    "feasible_point",
    "has_interior",
    "maximize",
    "minimize",
    "polytope_vertices",
    "COUNTERS",
    "GeometryCounters",
    "VertexCache",
    "build_cache",
    "clip",
    "Interval",
    "hull_vertices",
    "upper_hull_members",
    "is_upper_hull_member",
    "onion_layers",
]
