"""repro — exact processing of uncertain top-k (UTK) queries.

A faithful, from-scratch Python reproduction of *Mouratidis & Tang, "Exact
Processing of Uncertain Top-k Queries in Multi-criteria Settings", PVLDB
11(8), 2018*.  The library implements the UTK problem model, the RSA and JAA
algorithms, the k-skyband / onion / kSPR baselines the paper compares
against, and every substrate they depend on (R-tree, BBS, half-space
arrangements, LP toolkit, workload generators, benchmark harness).

Quickstart
----------
>>> import numpy as np
>>> from repro import Dataset, hyperrectangle, utk1, utk2
>>> data = Dataset(np.random.default_rng(7).random((200, 3)) * 10.0)
>>> region = hyperrectangle([0.05, 0.05], [0.45, 0.25])
>>> result = utk1(data, region, k=2)
>>> partitioning = utk2(data, region, k=2)
"""

from repro.core.api import k_skyband, make_engine, utk1, utk2, utk_query
from repro.core.records import Dataset
from repro.core.region import Region, hyperrectangle, region_from_vertices, simplex_region
from repro.core.result import UTK1Result, UTK2Result, UTKPartition
from repro.core.rsa import RSA
from repro.core.jaa import JAA
from repro.core.scoring import LinearScoring, MonotoneScoring, PowerScoring
from repro.dynamic import RecordStore
from repro.engine import BatchQuery, UTKEngine
from repro.parallel import parallel_utk1, parallel_utk2, parallel_utk_query, subdivide_region
from repro.exceptions import (
    GeometryError,
    InvalidDatasetError,
    InvalidQueryError,
    InvalidRegionError,
    LinearProgramError,
    ReproError,
)

__version__ = "1.9.0"

__all__ = [
    "utk1",
    "utk2",
    "utk_query",
    "parallel_utk1",
    "parallel_utk2",
    "parallel_utk_query",
    "subdivide_region",
    "k_skyband",
    "make_engine",
    "UTKEngine",
    "RecordStore",
    "BatchQuery",
    "Dataset",
    "Region",
    "hyperrectangle",
    "region_from_vertices",
    "simplex_region",
    "UTK1Result",
    "UTK2Result",
    "UTKPartition",
    "RSA",
    "JAA",
    "LinearScoring",
    "MonotoneScoring",
    "PowerScoring",
    "ReproError",
    "InvalidDatasetError",
    "InvalidQueryError",
    "InvalidRegionError",
    "LinearProgramError",
    "GeometryError",
    "__version__",
]
