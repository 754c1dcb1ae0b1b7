"""Tests of the observability layer: spans, metrics, propagation, surfaces.

Covers the tracer (nesting, exception safety, serialization, cross-process
grafting), the metrics registry (labels, histogram bucket math, Prometheus
and JSONL exposition), the zero-overhead-when-off contract, the instrumented
subsystems (engine caches, R-tree, dynamic maintenance), and the CLI
``--trace`` / ``--metrics`` / ``--version`` surfaces.
"""

import json

import numpy as np
import pytest

from repro import __version__, obs
from repro.cli import main
from repro.core.region import hyperrectangle
from repro.core.scoring import LinearScoring
from repro.datasets.synthetic import synthetic_dataset
from repro.engine import UTKEngine
from repro.engine.cache import LRUCache
from repro.index.rtree import RTree
from repro.obs import names as metric_names
from repro.obs import runtime, trace
from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.obs.names import observe_phase
from repro.parallel import parallel_utk_query


@pytest.fixture(autouse=True)
def clean_obs():
    """Every test starts and ends with observability off and empty state."""
    runtime.disable()
    trace.reset()
    REGISTRY.reset()
    yield
    runtime.disable()
    trace.reset()
    REGISTRY.reset()


def small_instance(seed=7, n=250, d=3):
    data = synthetic_dataset("IND", n, d, seed)
    region = hyperrectangle([0.2] * (d - 1), [0.45] * (d - 1))
    return data, region


class TestSpans:
    def test_disabled_span_is_shared_noop(self):
        assert obs.span("anything") is trace.NOOP_SPAN
        with obs.span("outer") as scope:
            scope.set(key="value")
            scope.inc("events")
            assert obs.span("inner") is trace.NOOP_SPAN
        assert trace.take_finished() == []

    def test_nesting_structure_and_duration(self):
        obs.enable()
        with obs.capture() as spans:
            with obs.span("outer", k=3) as outer:
                with obs.span("inner") as inner:
                    inner.inc("steps", 2)
        assert [root.name for root in spans] == ["outer"]
        assert outer.children == [inner]
        assert inner.counters == {"steps": 2}
        assert outer.attrs == {"k": 3}
        assert outer.duration >= inner.duration >= 0.0
        assert outer.span_count() == 2

    def test_exception_safety(self):
        obs.enable()
        with obs.capture() as spans:
            with pytest.raises(ValueError):
                with obs.span("outer"):
                    with obs.span("failing"):
                        raise ValueError("boom")
            # The stack unwound: new spans are roots again, not orphans.
            with obs.span("after"):
                pass
        names = [root.name for root in spans]
        assert names == ["outer", "after"]
        failing = spans[0].find("failing")
        assert failing.attrs["error"] == "ValueError"
        assert failing.duration >= 0.0

    def test_capture_isolation(self):
        obs.enable()
        with obs.capture() as first:
            with obs.span("one"):
                pass
        with obs.capture() as second:
            with obs.span("two"):
                pass
        assert [s.name for s in first] == ["one"]
        assert [s.name for s in second] == ["two"]
        assert trace.take_finished() == []

    def test_serialization_round_trip(self):
        obs.enable()
        with obs.capture() as spans:
            with obs.span("root", k=2) as root:
                root.inc("lp_calls", 3)
                with obs.span("child", phase="refine"):
                    pass
        payload = spans[0].to_dict()
        rebuilt = trace.span_from_dict(payload)
        assert rebuilt.name == "root"
        assert rebuilt.attrs == {"k": 2}
        assert rebuilt.counters == {"lp_calls": 3}
        assert [c.name for c in rebuilt.children] == ["child"]
        assert rebuilt.children[0].attrs == {"phase": "refine"}
        assert rebuilt.duration == pytest.approx(root.duration)

    def test_graft_attaches_under_current_span(self):
        obs.enable()
        with obs.capture() as spans:
            with obs.span("shipped"):
                pass
        payloads = [s.to_dict() for s in spans]
        with obs.capture() as outer:
            with obs.span("coordinator"):
                trace.graft(payloads)
        coordinator = outer[0]
        assert [c.name for c in coordinator.children] == ["shipped"]

    def test_chrome_trace_export(self, tmp_path):
        obs.enable()
        with obs.capture() as spans:
            with obs.span("root", k=1):
                with obs.span("child"):
                    pass
        path = tmp_path / "trace.json"
        payload = trace.write_chrome_trace(path, spans, metadata={"version": "x"})
        on_disk = json.loads(path.read_text())
        assert on_disk == json.loads(json.dumps(payload))
        events = on_disk["traceEvents"]
        assert {event["ph"] for event in events} == {"X"}
        assert {event["name"] for event in events} == {"root", "child"}
        for event in events:
            assert event["dur"] >= 0 and "pid" in event and "tid" in event
        assert on_disk["otherData"] == {"version": "x"}


class TestMetrics:
    def test_counter_labels_and_disabled_gate(self):
        registry = MetricsRegistry()
        counter = registry.counter("events_total", "test counter", ("kind",))
        counter.inc(kind="a")  # disabled: must not move
        assert counter.value(kind="a") == 0
        runtime.enable()
        counter.inc(kind="a")
        counter.inc(2, kind="b")
        assert counter.value(kind="a") == 1
        assert counter.value(kind="b") == 2
        with pytest.raises(ValueError):
            counter.inc(-1, kind="a")
        with pytest.raises(ValueError):
            counter.inc(kind="a", extra="nope")

    def test_get_or_create_rejects_mismatches(self):
        registry = MetricsRegistry()
        registry.counter("thing_total", "help", ("a",))
        assert registry.counter("thing_total", "help", ("a",)) is registry.get("thing_total")
        with pytest.raises(ValueError):
            registry.gauge("thing_total", "help", ("a",))
        with pytest.raises(ValueError):
            registry.counter("thing_total", "help", ("b",))

    def test_histogram_bucket_math(self):
        runtime.enable()
        registry = MetricsRegistry()
        histogram = registry.histogram("lat_seconds", "latency", (), (0.1, 1.0, 10.0))
        for value in (0.05, 0.1, 0.5, 5.0, 100.0):
            histogram.observe(value)
        snapshot = histogram.snapshot_of()
        # le buckets are cumulative and inclusive (0.1 counts into le=0.1).
        assert snapshot["buckets"] == {"0.1": 2, "1": 3, "10": 4, "+Inf": 5}
        assert snapshot["count"] == 5
        assert snapshot["sum"] == pytest.approx(105.65)

    def test_prometheus_exposition_format(self):
        runtime.enable()
        registry = MetricsRegistry()
        counter = registry.counter("queries_total", "Queries served", ("version",))
        counter.inc(3, version="utk1")
        histogram = registry.histogram("lat_seconds", "latency", (), (0.5,))
        histogram.observe(0.25)
        text = registry.prometheus_text()
        assert "# HELP queries_total Queries served" in text
        assert "# TYPE queries_total counter" in text
        # The canonical name already ends in _total: no double suffix.
        assert 'queries_total{version="utk1"} 3' in text
        assert "queries_total_total" not in text
        assert "# TYPE lat_seconds histogram" in text
        assert 'lat_seconds_bucket{le="0.5"} 1' in text
        assert 'lat_seconds_bucket{le="+Inf"} 1' in text
        assert "lat_seconds_sum 0.25" in text
        assert "lat_seconds_count 1" in text

    def test_jsonl_export_shape(self, tmp_path):
        runtime.enable()
        registry = MetricsRegistry()
        registry.counter("things_total", "things", ()).inc(4)
        path = tmp_path / "metrics.jsonl"
        registry.write_jsonl(path, header={"version": "1.2.3"})
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0] == {"record": "header", "version": "1.2.3"}
        metric = lines[1]
        assert metric["record"] == "metric"
        assert metric["name"] == "things_total"
        assert metric["samples"] == [{"labels": {}, "value": 4}]

    def test_schema_lists_canonical_names(self):
        names = {entry["name"] for entry in metric_names.schema()}
        assert "repro_queries_total" in names
        assert "repro_cache_events_total" in names
        assert "repro_phase_seconds" in names

    def test_observe_phase(self):
        runtime.enable()
        with obs.capture():
            with obs.span("rsa.refine") as phase:
                pass
        observe_phase("rsa.refine", phase)
        sample = metric_names.PHASE_SECONDS.snapshot_of(phase="rsa.refine")
        assert sample["count"] == 1
        # Disabled: observe_phase with the noop span is itself a no-op.
        runtime.disable()
        observe_phase("rsa.refine", obs.span("rsa.refine"))
        assert metric_names.PHASE_SECONDS.snapshot_of(phase="rsa.refine")["count"] == 1


class TestInstrumentedSubsystems:
    def test_named_cache_publishes_events(self):
        runtime.enable()
        cache = LRUCache(2, name="probe")
        cache.get("missing")
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")
        cache.put("c", 3)  # evicts b
        events = metric_names.CACHE_EVENTS
        assert events.value(cache="probe", event="miss") == 1
        assert events.value(cache="probe", event="hit") == 1
        assert events.value(cache="probe", event="eviction") == 1
        assert cache.stats()["hits"] == 1

    def test_buffer_pool_publishes_event_labels(self, tmp_path):
        from repro.colstore.pages import PagedRTree, write_pages

        values = np.random.default_rng(4).random((300, 3))
        tree = RTree(values, max_entries=8)
        write_pages(tmp_path / "t.pages", (tree.pages,), tree.meta)
        paged = PagedRTree(tmp_path / "t.pages", values, pool_pages=2)
        runtime.enable()
        for page in (0, 1, 0, 2):  # miss, miss, hit, miss + eviction
            paged.pool.get(page)
        samples = metric_names.BUFFERPOOL_EVENTS.samples()
        assert {sample["labels"]["event"]: sample["value"] for sample in samples} == {
            "hit": 1, "miss": 3, "eviction": 1,
        }

    def test_anonymous_cache_stays_local(self):
        runtime.enable()
        cache = LRUCache(2)
        cache.get("missing")
        assert cache.misses == 1
        assert not metric_names.CACHE_EVENTS.samples()

    def test_rtree_access_counters(self):
        from repro.skyline.skyband import k_skyband

        rng = np.random.default_rng(3)
        points = np.vstack([rng.random((64, 3)), [[0.5, 0.5, 0.5]]])
        tree = RTree(points[:64], max_entries=4)
        tree.values = points
        k_skyband(points[:64], 2, tree=tree)  # a BBS traversal
        assert tree.access_counts["search"] > 0
        tree.insert(64, points[64])
        assert tree.access_counts["insert"] > 0
        tree.delete(64, points[64])
        assert tree.access_counts["delete"] > 0
        # Mirrored into the registry only while enabled.
        assert not metric_names.RTREE_NODE_ACCESSES.samples()
        runtime.enable()
        searched = tree.access_counts["search"]
        k_skyband(points[:64], 1, tree=tree)
        assert (metric_names.RTREE_NODE_ACCESSES.value(op="search")
                == tree.access_counts["search"] - searched > 0)

    def test_engine_serve_publishes_query_metrics(self):
        data, region = small_instance()
        engine = UTKEngine(data)
        try:
            runtime.enable()
            engine.serve_utk1(region, 2)
            engine.serve_utk1(region, 2)
        finally:
            engine.close()
        assert metric_names.QUERIES.value(version="utk1", source="cold") == 1
        assert metric_names.QUERIES.value(version="utk1", source="hit") == 1
        latency = metric_names.QUERY_SECONDS.snapshot_of(version="utk1")
        assert latency["count"] == 2
        assert metric_names.SKYBAND_SIZE.snapshot_of()["count"] == 1

    def test_engine_serve_disabled_records_nothing(self):
        data, region = small_instance()
        engine = UTKEngine(data)
        try:
            engine.serve_utk1(region, 2)
        finally:
            engine.close()
        assert not metric_names.QUERIES.samples()
        assert engine.stats.utk1_queries == 1

    def test_dynamic_maintenance_counters(self):
        rng = np.random.default_rng(11)
        engine = UTKEngine(rng.random((120, 3)), cache_size=8)
        try:
            region = hyperrectangle([0.25, 0.25], [0.4, 0.4])
            engine.utk1(region, 2)  # warm a cache entry for maintenance to visit
            runtime.enable()
            new_id = engine.insert([0.99, 0.99, 0.99])
            engine.delete(new_id)
        finally:
            engine.close()
        updates = metric_names.MAINTENANCE_UPDATES
        assert updates.value(op="insert") == 1
        assert updates.value(op="delete") == 1
        outcomes = metric_names.MAINTENANCE_OUTCOMES
        total_outcomes = sum(sample["value"] for sample in outcomes.samples())
        assert total_outcomes > 0


class TestCrossProcessTracing:
    def _phase_names(self, spans, prefixes=("rsa.", "jaa.")):
        return {
            name
            for root in spans
            for name in root.names()
            if name.startswith(prefixes)
        }

    def test_serial_and_sharded_traces_cover_same_phases(self):
        data, region = small_instance(n=300)
        values = LinearScoring().transform(data.values)
        obs.enable()
        with obs.capture() as serial_spans:
            parallel_utk_query(values, region, 3, workers=1, backend="serial")
        with obs.capture() as sharded_spans:
            parallel_utk_query(values, region, 3, workers=4, shards=4, backend="serial")
        serial_phases = self._phase_names(serial_spans)
        sharded_phases = self._phase_names(sharded_spans)
        assert serial_phases and serial_phases == sharded_phases

    def test_shard_spans_graft_under_coordinator(self):
        data, region = small_instance(n=300)
        values = LinearScoring().transform(data.values)
        obs.enable()
        with obs.capture() as spans:
            parallel_utk_query(values, region, 3, workers=4, shards=4, backend="serial")
        coordinator = next(
            root for root in spans
            if root.name == "parallel.query" or root.find("parallel.query")
        )
        query_span = (coordinator if coordinator.name == "parallel.query"
                      else coordinator.find("parallel.query"))
        shard_names = [c.name for c in query_span.children if c.name.startswith("shard[")]
        assert shard_names == ["shard[0]", "shard[1]", "shard[2]", "shard[3]"]

    def test_process_pool_spans_carry_worker_pids(self):
        import os

        data, region = small_instance(n=300)
        values = LinearScoring().transform(data.values)
        obs.enable()
        with obs.capture() as spans:
            parallel_utk_query(values, region, 3, workers=2, shards=2, backend="process")
        query_span = next(
            (root if root.name == "parallel.query" else root.find("parallel.query"))
            for root in spans
            if root.name == "parallel.query" or root.find("parallel.query")
        )
        shards = [c for c in query_span.children if c.name.startswith("shard[")]
        assert len(shards) == 2
        assert all(s.pid != os.getpid() for s in shards)
        assert all(s.span_count() >= 1 for s in shards)


class TestCLISurfaces:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_query_trace_and_metrics_round_trip(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.prom"
        code = main(["query", "--dataset", "IND", "--cardinality", "400",
                     "--dimensionality", "3", "--k", "3",
                     "--lower", "0.2", "0.2", "--upper", "0.5", "0.5",
                     "--trace", str(trace_path), "--metrics", str(metrics_path),
                     "--json"])
        assert code == 0
        assert not runtime.enabled()  # the CLI turns observability back off
        payload = json.loads(capsys.readouterr().out)
        assert payload["utk1"]["records"]
        on_disk = json.loads(trace_path.read_text())
        names = {event["name"] for event in on_disk["traceEvents"]}
        assert any(name.startswith("query.") for name in names)
        assert any(name.startswith(("rsa.", "jaa.")) for name in names)
        assert any(name.startswith("cell.") for name in names)
        assert on_disk["otherData"]["version"] == __version__
        prom_text = metrics_path.read_text()
        assert f"# version: {__version__}" in prom_text
        assert "repro_phase_seconds_bucket" in prom_text

    def test_query_metrics_jsonl(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.jsonl"
        code = main(["query", "--dataset", "IND", "--cardinality", "150",
                     "--dimensionality", "3", "--k", "2",
                     "--lower", "0.2", "0.2", "--upper", "0.35", "0.35",
                     "--version", "utk1", "--metrics", str(metrics_path)])
        assert code == 0
        capsys.readouterr()
        lines = [json.loads(line) for line in metrics_path.read_text().splitlines()]
        assert lines[0]["record"] == "header"
        assert lines[0]["version"] == __version__
        assert any(record["name"] == "repro_geometry_calls_total" for record in lines[1:])

    def test_metrics_subcommand_schema(self, capsys):
        assert main(["metrics"]) == 0
        out = capsys.readouterr().out
        assert "repro_queries_total" in out
        assert "histogram" in out

    def test_metrics_subcommand_summarizes_snapshot(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.jsonl"
        main(["query", "--dataset", "IND", "--cardinality", "150",
              "--dimensionality", "3", "--k", "2",
              "--lower", "0.2", "0.2", "--upper", "0.35", "0.35",
              "--version", "utk1", "--metrics", str(metrics_path)])
        capsys.readouterr()
        assert main(["metrics", "--input", str(metrics_path)]) == 0
        out = capsys.readouterr().out
        assert f"# version: {__version__}" in out
        assert "repro_phase_seconds" in out

    def test_batch_metrics_export(self, tmp_path, capsys):
        queries = tmp_path / "queries.jsonl"
        queries.write_text(json.dumps(
            {"lower": [0.2, 0.2], "upper": [0.35, 0.35], "k": 2, "version": "utk1"}
        ) + "\n")
        metrics_path = tmp_path / "batch.prom"
        report_path = tmp_path / "report.json"
        code = main(["batch", "--input", str(queries), "--dataset", "IND",
                     "--cardinality", "150", "--dimensionality", "3",
                     "--output", str(report_path), "--metrics", str(metrics_path)])
        assert code == 0
        capsys.readouterr()
        prom_text = metrics_path.read_text()
        assert "repro_batches_total 1" in prom_text
        assert "repro_batch_queries_total 1" in prom_text
        assert 'repro_cache_events_total{cache="utk1",event="miss"} 1' in prom_text


class TestProvenance:
    def test_version_string_and_provenance(self):
        from repro.obs import provenance as provenance_module

        assert __version__ in provenance_module.version_string()
        payload = provenance_module.provenance()
        assert payload["version"] == __version__
        assert set(payload) >= {"tool", "version", "git"}
