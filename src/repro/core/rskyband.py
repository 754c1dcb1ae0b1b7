"""r-skyband computation and the r-dominance graph (Section 4.1).

The r-skyband contains exactly the records that are r-dominated by fewer than
``k`` others; it is a subset of the traditional k-skyband and a superset of
the UTK1 answer, which makes it the filtering step of both RSA and JAA.

Alongside the member set we record every pairwise r-dominance relationship in
the *r-dominance graph* ``G`` (a DAG); RSA and JAA use ancestor/descendant
sets and r-dominance counts throughout their refinement steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.dominance import DOMINANCE_TOL, RDominance
from repro.core.preference import scores
from repro.core.region import Region
from repro.index.rtree import RTree
from repro.skyline.bbs import BBSStatistics, bbs_candidates

#: Datasets at most this large skip the R-tree and use the vectorized
#: brute-force path (faster than building the index).
_BRUTE_FORCE_LIMIT = 512


@dataclass
class RSkyband:
    """The r-skyband of a dataset together with its r-dominance graph.

    Attributes
    ----------
    indices:
        Dataset indices of the r-skyband members, sorted ascending.
    values:
        Attribute rows of the members (aligned with ``indices``).
    ancestors:
        ``ancestors[i]`` is the frozenset of dataset indices r-dominating
        member ``i`` (its full ancestor set in ``G``).
    descendants:
        Inverse mapping of ``ancestors``.
    region:
        The query region the skyband was computed for.
    stats:
        BBS traversal statistics (empty for the brute-force path).
    adjacency:
        Boolean ``(m, m)`` matrix over member *positions*:
        ``adjacency[i, j]`` iff member ``i`` r-dominates member ``j``.  The
        dense form of ``G`` that the refinement steps use for vectorized
        restricted-count computations; reconstructed from ``ancestors`` when
        not supplied.
    """

    indices: np.ndarray
    values: np.ndarray
    ancestors: dict[int, frozenset[int]]
    descendants: dict[int, frozenset[int]]
    region: Region
    stats: BBSStatistics = field(default_factory=BBSStatistics)
    adjacency: np.ndarray | None = None

    @property
    def size(self) -> int:
        """Number of r-skyband members."""
        return int(self.indices.shape[0])

    def count_of(self, index: int) -> int:
        """r-dominance count of member ``index`` (number of its ancestors)."""
        return len(self.ancestors[index])

    def row_of(self, index: int) -> np.ndarray:
        """Attribute row of member ``index``."""
        return self.values[self._position[index]]

    def __post_init__(self):
        self._position = {int(idx): pos for pos, idx in enumerate(self.indices)}
        if self.adjacency is None:
            size = int(self.indices.shape[0])
            adjacency = np.zeros((size, size), dtype=bool)
            for column, dataset_index in enumerate(self.indices):
                for ancestor in self.ancestors[int(dataset_index)]:
                    adjacency[self._position[int(ancestor)], column] = True
            self.adjacency = adjacency

    def members(self) -> list[int]:
        """Member indices as a plain list."""
        return [int(i) for i in self.indices]

    def has_member(self, index: int) -> bool:
        """Whether dataset record ``index`` is an r-skyband member."""
        return int(index) in self._position

    def positions_of(self, indices) -> np.ndarray:
        """Row positions (into ``values``/``adjacency``) of member indices."""
        return np.fromiter((self._position[int(i)] for i in indices), dtype=int, count=len(indices))

    def subset_values(self, indices) -> np.ndarray:
        """Attribute rows for a list of member indices (one fancy index)."""
        return self.values[self.positions_of(indices)]

    def restricted_counts(self, indices) -> np.ndarray:
        """r-dominance counts restricted to the given member subset.

        ``result[i]`` is the number of members of ``indices`` that r-dominate
        ``indices[i]`` — the quantity RSA/JAA rank competitors by — computed
        as column sums of an adjacency submatrix instead of per-candidate
        ancestor-set intersections.
        """
        positions = self.positions_of(indices)
        return self.adjacency[np.ix_(positions, positions)].sum(axis=0)


def compute_r_skyband(
    values: np.ndarray,
    region: Region,
    k: int,
    *,
    tree: RTree | None = None,
    tol: float = DOMINANCE_TOL,
) -> RSkyband:
    """Compute the r-skyband of ``values`` for ``region`` and parameter ``k``.

    Small datasets use a fully vectorized quadratic pass; larger datasets (or
    callers that supply an R-tree) run the adapted BBS traversal of the paper
    — max-heap keyed by the score at the region's pivot, r-dominance tests
    of whole nodes and frontier sweeps against the growing member set — and
    finalize the candidate superset with an exact quadratic pass.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    tester = RDominance(region, tol)
    stats = BBSStatistics()

    if tree is None and n <= _BRUTE_FORCE_LIMIT:
        candidate_idx = np.arange(n, dtype=int)
        candidate_rows = values
    else:
        if tree is None:
            tree = RTree(values)
        pivot = region.pivot

        def dominator_counts(rows: np.ndarray, members: np.ndarray) -> np.ndarray:
            return tester.dominators_mask(rows, members).sum(axis=1)

        candidate_idx, candidate_rows, stats = bbs_candidates(
            tree, k, key=lambda rows: scores(rows, pivot), dominator_counts=dominator_counts
        )
        if not candidate_idx.size:
            return RSkyband(
                indices=candidate_idx,
                values=values[:0],
                ancestors={},
                descendants={},
                region=region,
                stats=stats,
            )

    return _finalize_skyband(candidate_idx, candidate_rows, tester, region, k, stats)


def refilter_r_skyband(
    skyband: RSkyband, region: Region, k: int, *, tol: float = DOMINANCE_TOL
) -> RSkyband:
    """Re-filter a cached r-skyband for a contained sub-query.

    When ``region`` is contained in ``skyband.region`` and ``k`` does not
    exceed the ``k`` the skyband was computed for, r-dominance relationships
    only grow as the region shrinks, so the cached member set is a candidate
    superset of the sub-query's r-skyband (the paper's progressiveness
    property).  The exact sub-query skyband is then obtained with a single
    quadratic pass over the (small) cached member set — no index traversal,
    no scan of the full dataset.

    Callers are responsible for the containment check; this function only
    performs the re-filtering.
    """
    return skyband_from_candidates(skyband.indices, skyband.values, region, k, tol=tol)


def skyband_from_candidates(
    candidate_idx: np.ndarray,
    candidate_rows: np.ndarray,
    region: Region,
    k: int,
    *,
    tol: float = DOMINANCE_TOL,
) -> RSkyband:
    """The exact r-skyband of ``region`` from a candidate superset.

    ``candidate_idx``/``candidate_rows`` must contain every r-skyband member
    of ``region`` for parameter ``k`` (for example the members of a skyband
    computed for a containing region, or for a larger ``k``).  One quadratic
    pass over the candidates produces the exact skyband and its r-dominance
    graph.  This is the rebuild entry of the parallel shard workers, which
    ship only the parent skyband slice across the process boundary instead of
    the full dataset.
    """
    candidate_idx = np.asarray(candidate_idx, dtype=int)
    candidate_rows = np.asarray(candidate_rows, dtype=float)
    tester = RDominance(region, tol)
    return _finalize_skyband(candidate_idx, candidate_rows, tester, region, k, BBSStatistics())


def _finalize_skyband(
    candidate_idx: np.ndarray,
    candidate_rows: np.ndarray,
    tester: RDominance,
    region: Region,
    k: int,
    stats: BBSStatistics,
) -> RSkyband:
    """Exact quadratic pass turning a candidate superset into the r-skyband."""
    matrix = tester.dominance_matrix(candidate_rows)
    counts = matrix.sum(axis=0)
    keep = counts < k
    member_positions = np.flatnonzero(keep)
    order = np.argsort(candidate_idx[member_positions])
    member_positions = member_positions[order]
    member_idx = candidate_idx[member_positions]
    member_rows = candidate_rows[member_positions]

    # Restrict the dominance matrix to the final members; every true ancestor
    # of a member is itself a member, so this restriction loses nothing.
    sub = matrix[np.ix_(member_positions, member_positions)]
    ancestors: dict[int, frozenset[int]] = {}
    descendants: dict[int, frozenset[int]] = {}
    for local, dataset_index in enumerate(member_idx):
        anc = frozenset(int(member_idx[i]) for i in np.flatnonzero(sub[:, local]))
        ancestors[int(dataset_index)] = anc
    for local, dataset_index in enumerate(member_idx):
        desc = frozenset(int(member_idx[i]) for i in np.flatnonzero(sub[local, :]))
        descendants[int(dataset_index)] = desc

    stats.candidate_count = int(member_idx.shape[0])
    return RSkyband(
        indices=member_idx,
        values=member_rows,
        ancestors=ancestors,
        descendants=descendants,
        region=region,
        stats=stats,
        adjacency=sub,
    )
