"""Preference regions.

The third input to a UTK query is a convex region ``R`` of the preference
domain: the approximate description of the user's weights.  The paper uses
axis-parallel hyper-rectangles for presentation but the techniques apply to
arbitrary convex polytopes; :class:`Region` supports both.

A region is stored in H-representation (``A u <= b``) and, whenever possible,
also carries its vertex set.  Vertices make r-dominance tests a cheap
vectorized evaluation (the minimum of a linear function over a polytope is
attained at a vertex); when they are unavailable the region falls back to
linear programming.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.exceptions import InvalidRegionError
from repro.geometry.linear_programming import chebyshev_center, maximize, minimize

#: Numerical slack used when validating that a region lies inside the simplex.
_SIMPLEX_TOL = 1e-9


class Region:
    """A convex polytope in the preference domain.

    Parameters
    ----------
    a_ub, b_ub:
        H-representation ``{u : a_ub @ u <= b_ub}``.
    vertices:
        Optional ``(m, dim)`` array of the polytope's vertices.  When given,
        min/max of linear functions and the pivot are computed from them.
    validate:
        When true (default), check that the region has a non-empty interior
        and is contained in the valid preference simplex
        ``{u : u >= 0, sum(u) <= 1}``.
    """

    def __init__(self, a_ub, b_ub, vertices=None, *, validate: bool = True):
        self._setup(a_ub, b_ub, vertices, validate, ball=None)

    def _setup(self, a_ub, b_ub, vertices, validate: bool, ball) -> None:
        """The constructor's body; ``ball`` is a known inscribed ball
        ``(centre, radius)`` (a box's), ``None`` to solve the Chebyshev LP."""
        a = np.asarray(a_ub, dtype=float)
        b = np.asarray(b_ub, dtype=float).reshape(-1)
        if a.ndim != 2 or a.shape[0] != b.shape[0]:
            raise InvalidRegionError("inconsistent region constraint shapes")
        self._a = a
        self._b = b
        self._dim = a.shape[1]
        self._vertices = None
        if vertices is not None:
            verts = np.asarray(vertices, dtype=float)
            if verts.ndim != 2 or verts.shape[1] != self._dim:
                raise InvalidRegionError("vertex matrix does not match region dimension")
            self._vertices = verts
        centre, radius = chebyshev_center(a, b, dim=self._dim) if ball is None else ball
        if centre is None or radius <= 0.0:
            raise InvalidRegionError("region has an empty interior")
        self._chebyshev = centre
        self._radius = float(radius)
        if validate:
            self._validate_simplex()

    def _validate_simplex(self) -> None:
        """Ensure the region is inside ``{u >= 0, sum(u) <= 1}``."""
        dim = self._dim
        for axis in range(dim):
            coef = np.zeros(dim)
            coef[axis] = 1.0
            if self.linear_min(coef) < -_SIMPLEX_TOL:
                raise InvalidRegionError(f"region allows negative weight on axis {axis}")
        if self.linear_max(np.ones(dim)) > 1.0 + _SIMPLEX_TOL:
            raise InvalidRegionError("region exceeds the weight simplex (sum of weights > 1)")

    # ------------------------------------------------------------------ basic
    @property
    def dimension(self) -> int:
        """Dimensionality of the preference domain (``d - 1``)."""
        return self._dim

    @property
    def constraints(self) -> tuple[np.ndarray, np.ndarray]:
        """H-representation ``(A, b)`` of the region."""
        return self._a, self._b

    @property
    def vertices(self) -> np.ndarray | None:
        """Vertex matrix, or ``None`` when unknown."""
        return self._vertices

    @property
    def pivot(self) -> np.ndarray:
        """The pivot vector of the region (Section 4.1 of the paper).

        The pivot averages the region's vertices; convexity guarantees it lies
        inside.  Regions without a vertex representation use the Chebyshev
        centre, which is also interior.
        """
        if self._vertices is not None:
            return self._vertices.mean(axis=0)
        return self._chebyshev

    @property
    def interior_point(self) -> np.ndarray:
        """A point strictly inside the region (the Chebyshev centre)."""
        return self._chebyshev

    @property
    def inradius(self) -> float:
        """Radius of the largest ball that fits inside the region."""
        return self._radius

    def contains(self, point, tol: float = 1e-9) -> bool:
        """Whether ``point`` satisfies every constraint (within ``tol``)."""
        point = np.asarray(point, dtype=float).reshape(-1)
        return bool(np.all(self._a @ point <= self._b + tol))

    # ------------------------------------------------------ linear functionals
    def linear_min(self, coef) -> float:
        """Minimum of ``coef @ u`` over the region."""
        coef = np.asarray(coef, dtype=float).reshape(-1)
        if self._vertices is not None:
            return float((self._vertices @ coef).min())
        result = minimize(coef, self._a, self._b)
        if not result.is_optimal:
            raise InvalidRegionError("region LP failed while minimizing a linear function")
        return float(result.value)

    def linear_max(self, coef) -> float:
        """Maximum of ``coef @ u`` over the region."""
        coef = np.asarray(coef, dtype=float).reshape(-1)
        if self._vertices is not None:
            return float((self._vertices @ coef).max())
        result = maximize(coef, self._a, self._b)
        if not result.is_optimal:
            raise InvalidRegionError("region LP failed while maximizing a linear function")
        return float(result.value)

    # ----------------------------------------------------------------- sampling
    def sample(self, count: int, rng: np.random.Generator | None = None) -> np.ndarray:
        """Random points inside the region.

        Regions with a vertex representation draw Dirichlet-weighted convex
        combinations of the vertices (guaranteed interior up to boundary
        effects); others perturb the Chebyshev centre within the inradius.
        """
        rng = np.random.default_rng() if rng is None else rng
        if count <= 0:
            return np.zeros((0, self._dim), dtype=float)
        if self._vertices is not None:
            weights = rng.dirichlet(np.ones(self._vertices.shape[0]), size=count)
            return weights @ self._vertices
        directions = rng.normal(size=(count, self._dim))
        norms = np.linalg.norm(directions, axis=1, keepdims=True)
        radii = rng.uniform(0.0, self._radius * 0.95, size=(count, 1))
        return self._chebyshev[None, :] + directions / norms * radii

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Region(dim={self._dim}, constraints={self._a.shape[0]})"


def hyperrectangle(lower, upper, *, validate: bool = True) -> Region:
    """Axis-parallel hyper-rectangle region ``[lower, upper]`` (per axis).

    This is the region shape used throughout the paper's experiments: a
    hyper-cube of side length ``sigma`` placed in the preference domain.
    The box's own facets are its only constraints, so its largest inscribed
    ball is known without the Chebyshev LP: the smallest half-width is the
    radius, and the box centre lies that deep.
    """
    lower = np.asarray(lower, dtype=float).reshape(-1)
    upper = np.asarray(upper, dtype=float).reshape(-1)
    if lower.shape != upper.shape:
        raise InvalidRegionError("lower and upper corners have different shapes")
    if np.any(upper <= lower):
        raise InvalidRegionError("hyper-rectangle must have positive extent on every axis")
    dim = lower.shape[0]
    a = np.vstack([np.eye(dim), -np.eye(dim)])
    b = np.concatenate([upper, -lower])
    corners = np.array(list(itertools.product(*zip(lower, upper))), dtype=float)
    half = (upper - lower) / 2.0
    region = Region.__new__(Region)
    region._setup(a, b, corners, validate, ball=(lower + half, float(half.min())))
    return region


def simplex_region(dimension: int, margin: float = 0.0) -> Region:
    """The entire preference domain ``{u : u >= margin, sum(u) <= 1 - margin}``.

    Useful for running UTK with *no* restriction on the weight vector, which
    degenerates UTK1 into "all records appearing in any top-k set".
    """
    if dimension < 1:
        raise InvalidRegionError("preference dimension must be at least 1")
    a = np.vstack([-np.eye(dimension), np.ones((1, dimension))])
    b = np.concatenate([-np.full(dimension, margin), [1.0 - margin]])
    vertices = [np.full(dimension, margin)]
    for axis in range(dimension):
        vertex = np.full(dimension, margin)
        vertex[axis] = 1.0 - margin * dimension
        vertices.append(vertex)
    return Region(a, b, vertices=np.asarray(vertices, dtype=float))


def region_from_vertices(vertices, *, validate: bool = True) -> Region:
    """Build a region from an explicit vertex set (convex polytope).

    For one-dimensional preference domains the H-representation is derived
    analytically; in higher dimensions qhull supplies the facet inequalities.
    """
    verts = np.asarray(vertices, dtype=float)
    if verts.ndim != 2 or verts.shape[0] < 2:
        raise InvalidRegionError("need at least two vertices")
    dim = verts.shape[1]
    if dim == 1:
        lo, hi = float(verts.min()), float(verts.max())
        a = np.array([[1.0], [-1.0]])
        b = np.array([hi, -lo])
        return Region(a, b, vertices=np.array([[lo], [hi]]), validate=validate)
    from scipy.spatial import ConvexHull, QhullError

    try:
        hull = ConvexHull(verts)
    except (QhullError, ValueError) as exc:
        raise InvalidRegionError(f"could not build region from vertices: {exc}") from exc
    a = hull.equations[:, :-1]
    b = -hull.equations[:, -1]
    return Region(a, b, vertices=verts[hull.vertices], validate=validate)
