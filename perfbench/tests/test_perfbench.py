"""Tests of the benchmark itself: ``python -m pytest perfbench/tests``.

Covers the percentile rule, self-time arithmetic on a synthetic span tree,
and a tiny-size run of every workload: every metric of ``BENCHMARK.json``
prints with its unit, every answer passes its checks, and the exact counts
repeat across two runs with one seed.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from repro.obs.trace import Span  # noqa: E402

from perfbench import layers, run, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: Tiny sizes and the nominal seconds that give each one >= 100 queries (and
#: the churn run >= 100 updates), which the p90 rule needs: 5 storm sessions
#: of 24 queries and 2 churn sessions of 200 events.
TINY = {
    "storm-colstore": ((5 - 0.5) / workloads.StormColstore.SESSIONS_PER_SECOND,
                       workloads.StormSize(records=3000, queries_per_session=24)),
    "churn-serve": (200 * 2 / workloads.ChurnServe.EVENTS_PER_SECOND,
                    workloads.ChurnSize(records=150, cache_size=8, sessions=2)),
}

#: Per-layer figures that are exact counts and must repeat for one seed.
EXACT = ("core.halfspaces_inserted", "core.arrangements_built", "index.search_nodes",
         "index.insert_nodes", "index.delete_nodes", "colstore.pool_hits",
         "colstore.pool_misses", "colstore.pool_evictions", "dynamic.repaired",
         "dynamic.noop", "dynamic.evicted", "dynamic.retained", "engine.evictions",
         "resilience.wal_fsyncs", "geometry.vertex_clip_calls", "geometry.lp_calls",
         "geometry.fallback_calls",
         *(f"engine.queries.{source}" for source in layers.QUERY_SOURCES))


# ----------------------------------------------------------------- percentiles
class TestPercentileRule:
    def test_linear_interpolation(self):
        samples = [float(v) for v in range(1, 11)]
        assert layers.percentile(samples, 50) == pytest.approx(5.5)
        assert layers.percentile(samples, 90) == pytest.approx(9.1)
        assert layers.percentile(samples, 0) == 1.0
        assert layers.percentile(samples, 100) == 10.0
        assert layers.percentile([3.0, 1.0, 2.0], 50) == 2.0

    def test_matches_inclusive_quantiles(self):
        samples = [((7 * i) % 101) / 3.0 for i in range(137)]
        deciles = statistics.quantiles(samples, n=10, method="inclusive")
        assert layers.percentile(samples, 90) == pytest.approx(deciles[8])
        assert layers.percentile(samples, 50) == pytest.approx(statistics.median(samples))

    def test_tail_needs_ten_samples_beyond(self):
        assert layers.tail_supported(100, 90)
        assert not layers.tail_supported(99, 90)
        assert layers.tail_supported(20, 50)
        assert layers.reported_percentile(list(range(100)), 90) == pytest.approx(89.1)
        with pytest.raises(ValueError, match="p90"):
            layers.reported_percentile(list(range(99)), 90)

    def test_empty_sample_refused(self):
        with pytest.raises(ValueError):
            layers.percentile([], 50)


# ------------------------------------------------------------------ span trees
def _span(name: str, duration: float, *children, **attrs) -> Span:
    node = Span(name, attrs)
    node.duration = duration
    node.children = list(children)
    return node


class TestSpanArithmetic:
    def test_self_time_subtracts_direct_children_only(self):
        leaf = _span("c", 1.0)
        middle = _span("a", 3.0, leaf)
        root = _span("root", 10.0, middle, _span("b", 4.0))
        assert layers.self_time(root) == pytest.approx(3.0)
        assert layers.self_time(middle) == pytest.approx(2.0)
        assert layers.self_time(leaf) == pytest.approx(1.0)
        assert [node.name for node, _ in layers.walk([root])] == ["root", "a", "c", "b"]

    def test_layer_figures_of_a_synthetic_forest(self):
        refine = _span("rsa.refine", 2.5,
                       _span("rsa.halfspace_build", 0.25, competitors=4),
                       _span("rsa.arrangement", 1.0, halfspaces=4),
                       _span("cell.build_cache", 0.5, _span("cell.lp", 0.125)))
        cold = _span("engine.utk1", 5.0, _span("rsa.run", 3.0, refine), source="cold")
        reuse = _span("engine.utk2", 2.0, _span("cell.build_cache", 1.5), source="containment")
        hit = _span("engine.utk2", 0.25, source="hit")
        apply = _span("dynamic.apply_updates", 0.75, updates=1)
        setup = _span("bench.setup", 0.5, store="colstore")
        requests = [_span("bench.request", 9.0, op="query"),
                    _span("bench.request", 1.0, op="insert"),
                    _span("bench.request", 0.5, op="delete")]
        figures = layers.span_figures([cold, reuse, hit, apply, setup, *requests],
                                      wal_fsync_s=0.25)
        assert figures["core.refine_s"] == pytest.approx(2.5)
        assert figures["core.arrangement_s"] == pytest.approx(1.0)
        assert figures["core.halfspace_build_s"] == pytest.approx(0.25)
        assert figures["core.halfspaces_inserted"] == 4
        assert figures["core.arrangements_built"] == 1
        assert figures["geometry.build_cache_refine_s"] == pytest.approx(0.375)
        assert figures["geometry.build_cache_clip_s"] == pytest.approx(1.5)
        assert figures["engine.cold_self_s"] == pytest.approx(2.0)
        assert figures["engine.reuse_self_s"] == pytest.approx(0.5)
        assert figures["engine.hit_self_s"] == pytest.approx(0.25)
        assert figures["dynamic.apply_s"] == pytest.approx(0.75)
        assert figures["dynamic.apply_max_s"] == pytest.approx(0.75)
        assert figures["colstore.build_s"] == pytest.approx(0.5)
        assert figures["serve.rtt_s.query"] == pytest.approx(9.0)
        # 10.5 s of round trips - (5 + 2 + 0.25 + 0.75) s server-side - 0.25 s fsync
        assert figures["serve.wire_s"] == pytest.approx(2.25)


# ------------------------------------------------------------------- workloads
def _run(workload: str, seed: int, trace: bool, capsys) -> dict:
    seconds, size = TINY[workload]
    result = run.run_one(workload, seed, seconds, trace, size=size)
    capsys.readouterr()
    return result


@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_run(workload, capsys):
    untraced = [_run(workload, 5, False, capsys) for _ in range(2)]
    traced = [_run(workload, 5, True, capsys) for _ in range(2)]
    for result, wanted in ((untraced[0], SPEC["end_to_end"]), (traced[0], SPEC["per_layer"])):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 100
        assert set(result["metrics"]) == {metric["name"] for metric in wanted}
        for metric in wanted:
            value = result["metrics"][metric["name"]]
            assert value["unit"] == metric["unit"]
            assert isinstance(value["value"], (int, float))
    for name in ("setup_s", "ops_per_s", "query_p50_ms", "query_p90_ms", "peak_rss_mb"):
        assert untraced[0]["metrics"][name]["value"] > 0
    stored = [result["metrics"]["disk_bytes_per_record"]["value"] for result in untraced]
    assert stored[0] == stored[1] > 0
    counts = [{name: result["metrics"][name]["value"] for name in EXACT} for result in traced]
    assert counts[0] == counts[1]
    assert sum(counts[0][f"engine.queries.{source}"] for source in layers.QUERY_SOURCES) > 0


@pytest.mark.parametrize("workload", sorted(TINY))
def test_checks_add_nothing_to_traced_figures(workload, tmp_path):
    """The answer checks' one-shot oracle runs BBS and RSA/JAA too; none of
    that work may reach a traced pass's per-layer figures."""
    seconds, size = TINY[workload]
    bench = workloads.WORKLOADS[workload](5, seconds, tmp_path, size=size)
    counts = []
    for check in (False, True):
        traced = bench.run(traced=True, check=check)
        assert traced.failed == 0
        figures = {**layers.span_figures(traced.spans), **traced.registry}
        counts.append({name: figures[name] for name in EXACT if name in figures})
    assert traced.notes["check_s"] > 0  # the second pass did check its answers
    assert counts[0]["core.halfspaces_inserted"] > 0
    assert counts[0] == counts[1]


def test_churn_pass_runs_on_one_cpu(tmp_path):
    """A churn pass confines itself, and so the server threads it starts,
    to one CPU, and gives the caller its CPU set back."""
    before = os.sched_getaffinity(0)
    seconds, size = TINY["churn-serve"]
    out = workloads.ChurnServe(5, seconds, tmp_path, size=size).run(traced=False, check=False)
    assert out.failed == 0
    assert out.notes["cpus"] == [max(before)]
    assert os.sched_getaffinity(0) == before


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "storm-colstore",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
