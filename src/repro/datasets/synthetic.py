"""Synthetic benchmark generators: Independent, Correlated, Anticorrelated.

These are the standard preference-query workloads of Börzsönyi et al. (the
skyline paper), which the UTK paper uses for its scalability experiments.
Attribute values lie in ``[0, 1]``.

* **IND** — attributes drawn independently and uniformly.
* **COR** — attributes positively correlated: records that are good in one
  dimension tend to be good in all (skylines/skybands are tiny).
* **ANTI** — attributes anticorrelated: records that are good in one
  dimension tend to be poor in the others (skylines/skybands are large).
* **CLUS** — attributes clustered around a handful of Gaussian centres, the
  workload of real catalogues (hotels group by class, players by role):
  query cost depends on where the region's score gradient points relative
  to the nearest cluster.
"""

from __future__ import annotations

import numpy as np

from repro.core.records import Dataset
from repro.exceptions import InvalidDatasetError

#: Registry of distribution names accepted by :func:`synthetic_dataset`.
DISTRIBUTIONS = ("IND", "COR", "ANTI", "CLUS")


def _rng(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def independent(cardinality: int, dimensionality: int, seed=0) -> np.ndarray:
    """Uniform, independent attributes in ``[0, 1]``."""
    if cardinality <= 0 or dimensionality < 2:
        raise InvalidDatasetError("need a positive cardinality and d >= 2")
    return _rng(seed).random((cardinality, dimensionality))


def correlated(cardinality: int, dimensionality: int, seed=0, spread: float = 0.12) -> np.ndarray:
    """Positively correlated attributes.

    Every record is a common base value (its overall quality) plus small
    per-attribute perturbations, mirroring the classic generator: records
    good in one dimension are good in all.
    """
    if cardinality <= 0 or dimensionality < 2:
        raise InvalidDatasetError("need a positive cardinality and d >= 2")
    rng = _rng(seed)
    base = rng.normal(loc=0.5, scale=0.18, size=(cardinality, 1))
    noise = rng.normal(scale=spread, size=(cardinality, dimensionality))
    return np.clip(base + noise, 0.0, 1.0)


def anticorrelated(
    cardinality: int, dimensionality: int, seed=0, spread: float = 0.25
) -> np.ndarray:
    """Anticorrelated attributes.

    Records lie close to the hyperplane ``sum(x) = d / 2`` with large
    variance across attributes: excelling in one dimension comes at the
    expense of the others, which maximizes skyline/skyband sizes.
    """
    if cardinality <= 0 or dimensionality < 2:
        raise InvalidDatasetError("need a positive cardinality and d >= 2")
    rng = _rng(seed)
    base = rng.normal(loc=0.5, scale=0.05, size=(cardinality, 1))
    offsets = rng.normal(scale=spread, size=(cardinality, dimensionality))
    offsets -= offsets.mean(axis=1, keepdims=True)  # trade-off across attributes
    return np.clip(base + offsets, 0.0, 1.0)


def clustered(
    cardinality: int,
    dimensionality: int,
    seed=0,
    *,
    clusters: int = 5,
    spread: float = 0.06,
) -> np.ndarray:
    """Clustered attributes: Gaussian blobs around random centres.

    Records are assigned to one of ``clusters`` centres (uniformly placed in
    ``[0.15, 0.85]^d`` so the blobs rarely clip against the domain boundary)
    and perturbed by isotropic noise of scale ``spread``.  Skyband sizes sit
    between COR and ANTI, but — unlike either — vary sharply with the query
    direction, which is what makes this a distinct scenario axis.
    """
    if cardinality <= 0 or dimensionality < 2:
        raise InvalidDatasetError("need a positive cardinality and d >= 2")
    if clusters <= 0:
        raise InvalidDatasetError("need at least one cluster")
    rng = _rng(seed)
    centres = rng.uniform(0.15, 0.85, size=(clusters, dimensionality))
    assignment = rng.integers(clusters, size=cardinality)
    noise = rng.normal(scale=spread, size=(cardinality, dimensionality))
    return np.clip(centres[assignment] + noise, 0.0, 1.0)


# -------------------------------------------------------------- update streams
def update_stream(
    initial,
    count: int,
    *,
    insert_prob: float = 0.2,
    delete_prob: float = 0.2,
    k_choices=(1, 2, 5),
    zipf_exponent: float = 1.2,
    sigma: float = 0.08,
    hot_regions: int = 3,
    hot_prob: float = 0.65,
    churn_exponent: float = 1.1,
    jitter: float = 0.05,
    seed=0,
) -> list[dict]:
    """A reproducible interleaved stream of insert/delete/query events.

    This is the workload of the dynamic-data serving path: a dataset under
    churn while queries keep arriving.  Each event is a JSON-able mapping in
    the shape :func:`repro.dynamic.serve_events` and the ``repro stream`` CLI
    consume: ``{"op": "insert", "values": [...]}``,
    ``{"op": "delete", "id": ...}`` or ``{"op": "query", "lower": [...],
    "upper": [...], "k": ..., "version": ...}``.

    Parameters
    ----------
    initial:
        The dataset the stream starts from (a
        :class:`~repro.core.records.Dataset` or an ``(n, d)`` matrix); its
        records are assumed to hold ids ``0..n-1``, as a
        :class:`~repro.engine.engine.UTKEngine` assigns them.
    count:
        Number of events to generate.
    insert_prob, delete_prob:
        Update mix; the remainder are queries.  A delete drawn while fewer
        than two records are live degrades to an insert.
    k_choices, zipf_exponent:
        Query ``k`` values with Zipf-distributed popularity (as in
        :func:`repro.bench.workloads.engine_query_stream`).
    sigma, hot_regions, hot_prob:
        Query regions are hyper-cubes of side ``sigma``; with probability
        ``hot_prob`` a query revisits one of ``hot_regions`` fixed hot cubes
        (the cache-friendly serving pattern), otherwise a fresh random cube.
    churn_exponent:
        Skew of the key churn: deletes (and insert templates) pick live
        records rank-weighted by recency, ``1 / rank ** churn_exponent`` with
        the newest record at rank 1 — hot keys churn the most, as in real
        update streams.
    jitter:
        Inserted records perturb a recency-sampled template row by this
        Gaussian spread (clipped to ``[0, 1]``), so the data distribution
        drifts slowly instead of resetting.
    """
    # Imported lazily: repro.bench pulls in the experiment generators, which
    # in turn import this module.
    from repro.bench.workloads import _random_cube, zipfian_k

    if count < 0:
        raise InvalidDatasetError("count must be non-negative")
    if insert_prob < 0 or delete_prob < 0 or insert_prob + delete_prob > 1.0:
        raise InvalidDatasetError("insert_prob/delete_prob must be a sub-probability pair")
    values = initial.values if isinstance(initial, Dataset) else np.asarray(initial, dtype=float)
    if values.ndim != 2:
        raise InvalidDatasetError("initial dataset must be an (n, d) matrix")
    n, d = values.shape
    if n == 0 or d < 2:
        raise InvalidDatasetError("need a non-empty initial dataset with d >= 2")
    rng = _rng(seed)
    corners = [_random_cube(d - 1, sigma, rng) for _ in range(max(1, hot_regions))]

    rows = {i: values[i] for i in range(n)}
    live: list[int] = list(range(n))  # insertion order: newest last
    next_id = n

    def churn_pick() -> int:
        """Position into ``live``, recency-skewed (newest = rank 1)."""
        ranks = np.arange(1, len(live) + 1, dtype=float)
        weights = ranks ** (-float(churn_exponent))
        probabilities = weights / weights.sum()
        rank = int(rng.choice(len(live), p=probabilities))
        return len(live) - 1 - rank

    events: list[dict] = []
    for _ in range(count):
        roll = rng.random()
        if roll < insert_prob or (roll < insert_prob + delete_prob and len(live) < 2):
            template = rows[live[churn_pick()]]
            row = np.clip(template + rng.normal(scale=jitter, size=d), 0.0, 1.0)
            rows[next_id] = row
            live.append(next_id)
            events.append({"op": "insert", "values": [float(v) for v in row]})
            next_id += 1
        elif roll < insert_prob + delete_prob:
            position = churn_pick()
            victim = live.pop(position)
            rows.pop(victim)
            events.append({"op": "delete", "id": int(victim)})
        else:
            if rng.random() < hot_prob:
                lower, upper = corners[int(rng.integers(len(corners)))]
            else:
                lower, upper = _random_cube(d - 1, sigma, rng)
            events.append(
                {
                    "op": "query",
                    "lower": [float(v) for v in lower],
                    "upper": [float(v) for v in upper],
                    "k": zipfian_k(k_choices, zipf_exponent, rng),
                    "version": str(rng.choice(["utk1", "utk2", "both"], p=[0.5, 0.3, 0.2])),
                }
            )
    return events


def _generate(distribution: str, cardinality: int, dimensionality: int, seed) -> np.ndarray:
    name = distribution.upper()
    if name == "IND":
        return independent(cardinality, dimensionality, seed)
    if name == "COR":
        return correlated(cardinality, dimensionality, seed)
    if name == "ANTI":
        return anticorrelated(cardinality, dimensionality, seed)
    if name == "CLUS":
        return clustered(cardinality, dimensionality, seed)
    raise InvalidDatasetError(
        f"unknown distribution {distribution!r}; expected one of {DISTRIBUTIONS}"
    )


def synthetic_dataset(distribution: str, cardinality: int, dimensionality: int, seed=0) -> Dataset:
    """Build a :class:`~repro.core.records.Dataset` for a named distribution."""
    return Dataset(_generate(distribution, cardinality, dimensionality, seed))


def synthetic_chunks(
    distribution: str,
    cardinality: int,
    dimensionality: int,
    seed=0,
    *,
    chunk_rows: int = 1 << 18,
):
    """Yield the dataset as ``(n_i, d)`` chunks without ever holding all of it.

    Each chunk draws from its own ``default_rng([seed, chunk_index])``
    stream, so the sequence is deterministic for a given ``(distribution,
    cardinality, dimensionality, seed, chunk_rows)`` tuple and chunks can be
    regenerated independently — the 10M-record colstore benchmark builds
    its store from this and re-derives reference chunks for verification.
    Note the per-chunk streams make the result differ from the monolithic
    :func:`synthetic_dataset` draw, and CLUS draws chunk-local cluster
    centres (each chunk is its own blob family).
    """
    if cardinality <= 0 or dimensionality < 2:
        raise InvalidDatasetError("need a positive cardinality and d >= 2")
    if chunk_rows <= 0:
        raise InvalidDatasetError("chunk_rows must be positive")
    # Validate the name once up front, before the first chunk is drawn.
    if distribution.upper() not in DISTRIBUTIONS:
        raise InvalidDatasetError(
            f"unknown distribution {distribution!r}; expected one of {DISTRIBUTIONS}"
        )
    emitted = 0
    index = 0
    while emitted < cardinality:
        rows = min(chunk_rows, cardinality - emitted)
        rng = np.random.default_rng([seed, index])
        yield _generate(distribution, rows, dimensionality, rng)
        emitted += rows
        index += 1
