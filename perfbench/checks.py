"""Answer checks, run outside every timed window.

Three rules, each applied to every answer a workload produced:

* **vertex rule** (the scenario matrix's oracle rule): the top-k computed by
  plain scoring at each region vertex must be one of the UTK2 sets and a
  subset of the UTK1 answer;
* **witness rule**: each UTK1 witness must put its record in the top-k;
* **one-shot rule**: an answer served from a cache or reuse path must equal
  a cold one-shot :mod:`repro.core.api` answer on the same data state.

UTK answers are defined only up to ties between identical records, so ids
are compared modulo exact-duplicate classes (as :mod:`repro.scenarios.matrix`
does): any implementation may report either twin.
"""

from __future__ import annotations

import numpy as np

from repro.core import api
from repro.core.preference import score_gradients
from repro.core.rskyband import _BRUTE_FORCE_LIMIT
from repro.index.rtree import RTree

#: Score slack of the witness rule (records tied within it count as tied).
WITNESS_TOL = 1e-9


class State:
    """One data state: live record ids and their rows, ids ascending.

    The R-tree handed to the one-shot API is built on the first one-shot
    call and shared by the rest; the API would otherwise bulk-load a
    throwaway tree on every call.  A state small enough for the API's
    brute-force filter gets no tree: that path is faster than building one.
    """

    def __init__(self, ids, rows):
        self.ids = np.asarray(ids, dtype=int)
        self.rows = np.asarray(rows, dtype=float)
        self._tree = None
        self._gradients, self._offsets = score_gradients(self.rows)
        self._position = {int(i): p for p, i in enumerate(self.ids)}
        classes: dict[bytes, int] = {}
        self.canon = {int(i): classes.setdefault(row.tobytes(), int(i))
                      for i, row in zip(self.ids, self.rows)}
        self._oneshot: dict = {}
        self._vertex_sets: dict = {}

    def canonical(self, ids) -> frozenset:
        return frozenset(self.canon.get(int(i), int(i)) for i in ids)

    def scores(self, weights) -> np.ndarray:
        """Plain linear scores of every record at reduced weights ``weights``."""
        return self._offsets + self._gradients @ np.asarray(weights, dtype=float)

    def top_k(self, weights, k: int) -> np.ndarray:
        """Ids of the ``k`` best records at ``weights``, ties to the smaller id."""
        values = self.scores(weights)
        k = min(k, values.shape[0])
        kth = np.partition(values, values.shape[0] - k)[values.shape[0] - k]
        contenders = np.flatnonzero(values >= kth)
        order = np.lexsort((contenders, -values[contenders]))
        return self.ids[contenders[order[:k]]]

    def vertex_sets(self, region, k: int) -> list[frozenset]:
        """Top-k id sets by plain scoring at each region vertex (memoized)."""
        key = (_region_key(region), k)
        if key not in self._vertex_sets:
            self._vertex_sets[key] = [self.canonical(self.top_k(vertex, k))
                                      for vertex in region.vertices]
        return self._vertex_sets[key]

    def oneshot(self, region, k: int, version: str):
        """Cold one-shot answer (canonical), memoized per query on this state."""
        key = (_region_key(region), k, version)
        if key not in self._oneshot:
            if self._tree is None and len(self.ids) > _BRUTE_FORCE_LIMIT:
                self._tree = RTree(self.rows)
            if version == "utk1":
                found = api.utk1(self.rows, region, k, tree=self._tree)
                answer = self.canonical(self.ids[found.indices])
            else:
                found = api.utk2(self.rows, region, k, tree=self._tree)
                answer = frozenset(self.canonical(self.ids[sorted(s)])
                                   for s in found.distinct_top_k_sets)
            self._oneshot[key] = answer
        return self._oneshot[key]

    def witness_ok(self, record_id: int, witness, k: int) -> bool:
        """Fewer than ``k`` records score strictly above the record at ``witness``."""
        values = self.scores(witness)
        own = values[self._position[int(record_id)]]
        return int(np.count_nonzero(values > own + WITNESS_TOL)) < k


def _region_key(region) -> tuple:
    a, b = region.constraints
    return a.tobytes(), b.tobytes()


def check_answer(state: State, region, k: int, version: str, source: str,
                 *, utk1=None, utk2_sets=None, witnesses=None) -> list[str]:
    """Every rule violated by one answer (empty when the answer is right).

    ``utk1`` is the reported record ids, ``utk2_sets`` the distinct top-k id
    sets, ``witnesses`` an optional ``{record id: weight vector}`` map.
    """
    problems = []
    reported1 = state.canonical(utk1) if version == "utk1" else None
    reported2 = ({state.canonical(s) for s in utk2_sets} if version == "utk2" else None)
    for vertex_set in state.vertex_sets(region, k):
        if reported1 is not None and not vertex_set <= reported1:
            problems.append("utk1-missing-vertex-top-k")
            break
        if reported2 is not None and vertex_set not in reported2:
            problems.append("utk2-missing-vertex-top-k")
            break
    for record_id, witness in (witnesses or {}).items():
        if not state.witness_ok(record_id, witness, k):
            problems.append("witness-outside-top-k")
            break
    if source != "cold":
        expected = state.oneshot(region, k, version)
        got = reported1 if version == "utk1" else frozenset(reported2)
        if got != expected:
            problems.append(f"{source}-differs-from-one-shot")
    return problems
