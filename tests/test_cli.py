"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import EXPERIMENTS, main


class TestQueryCommand:
    def test_text_output(self, capsys):
        code = main(["query", "--dataset", "IND", "--cardinality", "200",
                     "--dimensionality", "3", "--k", "2",
                     "--lower", "0.1", "0.1", "--upper", "0.3", "0.3"])
        captured = capsys.readouterr().out
        assert code == 0
        assert "UTK1" in captured and "UTK2" in captured

    def test_json_output_is_parseable(self, capsys):
        code = main(["query", "--dataset", "COR", "--cardinality", "150",
                     "--dimensionality", "3", "--k", "2",
                     "--lower", "0.1", "0.1", "--upper", "0.3", "0.3",
                     "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dataset"] == "COR"
        assert set(payload["utk2"]) == {"partitions", "distinct_top_k_sets"}
        assert payload["utk1"]["records"]

    def test_utk1_only(self, capsys):
        code = main(["query", "--dataset", "IND", "--cardinality", "100",
                     "--dimensionality", "3", "--k", "1",
                     "--lower", "0.2", "0.2", "--upper", "0.3", "0.3",
                     "--version", "utk1", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "utk1" in payload and "utk2" not in payload

    def test_real_dataset_by_name(self, capsys):
        code = main(["query", "--dataset", "HOTEL", "--cardinality", "300",
                     "--k", "2", "--lower", "0.1", "0.1", "0.1",
                     "--upper", "0.2", "0.2", "0.2", "--version", "utk1"])
        assert code == 0
        assert "UTK1" in capsys.readouterr().out

    def test_invalid_region_errors_out(self):
        with pytest.raises(Exception):
            main(["query", "--dataset", "IND", "--cardinality", "50",
                  "--dimensionality", "3", "--k", "1",
                  "--lower", "0.9", "0.9", "--upper", "0.95", "0.95"])


class TestBatchCommand:
    def _write_queries(self, path):
        lines = [
            {"lower": [0.1, 0.1], "upper": [0.35, 0.3], "k": 2, "version": "both"},
            {"lower": [0.15, 0.12], "upper": [0.3, 0.22], "k": 2, "version": "utk2"},
            {"lower": [0.15, 0.12], "upper": [0.3, 0.22], "k": 2, "version": "utk2"},
        ]
        path.write_text("\n".join(json.dumps(line) for line in lines) + "\n")

    def test_batch_report(self, tmp_path, capsys):
        queries = tmp_path / "queries.jsonl"
        self._write_queries(queries)
        code = main(["batch", "--input", str(queries), "--dataset", "IND",
                     "--cardinality", "150", "--workers", "1"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["queries"] == 3
        assert report["sources"].get("hit") == 1
        assert report["sources"].get("containment") == 2
        assert report["sources"].get("cold") == 1
        assert set(report["cache"]) == {"engine", "skyband", "utk1", "utk2", "k_skyband",
                                        "dynamic", "serve"}
        assert report["results"][0]["utk1"]["records"]
        assert report["results"][1]["utk2"]["partitions"] >= 1

    def test_batch_output_file(self, tmp_path, capsys):
        queries = tmp_path / "queries.jsonl"
        self._write_queries(queries)
        out = tmp_path / "report.json"
        code = main(
            ["batch", "--input", str(queries), "--cardinality", "120", "--output", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["queries"] == 3

    def test_batch_empty_input_fails(self, tmp_path):
        queries = tmp_path / "empty.jsonl"
        queries.write_text("")
        assert main(["batch", "--input", str(queries)]) == 1

    def test_batch_malformed_line_rejected(self, tmp_path):
        queries = tmp_path / "bad.jsonl"
        queries.write_text('{"lower": [0.1, 0.1], "k": 2}\n')
        with pytest.raises(Exception):
            main(["batch", "--input", str(queries), "--cardinality", "100"])


class TestStreamCommand:
    def _write_events(self, path):
        lines = [
            {"op": "query", "lower": [0.1, 0.1], "upper": [0.3, 0.3], "k": 2,
             "version": "both"},
            {"op": "insert", "values": [0.9, 0.9, 0.9]},
            {"op": "query", "lower": [0.1, 0.1], "upper": [0.3, 0.3], "k": 2},
            {"op": "delete", "id": 0},
            {"op": "query", "lower": [0.1, 0.1], "upper": [0.3, 0.3], "k": 2,
             "version": "utk2"},
        ]
        path.write_text("\n".join(json.dumps(line) for line in lines) + "\n")

    def test_stream_report(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        self._write_events(events)
        code = main(["stream", "--input", str(events), "--dataset", "IND",
                     "--cardinality", "150", "--dimensionality", "3"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["events"] == 5
        assert report["queries"] == 3 and report["updates"] == 2
        assert report["n_initial"] == 150 and report["n_final"] == 150
        assert report["dynamic"]["updates_applied"] == 2
        assert "dynamic" not in report["cache"]  # counters appear exactly once
        query_records = [item for item in report["results"] if item["op"] == "query"]
        assert len(query_records) == 3
        assert "utk1" in query_records[0] and "utk2" in query_records[0]
        insert_record = next(item for item in report["results"] if item["op"] == "insert")
        assert insert_record["id"] == 150  # fresh stable id after the initial 0..149

    def test_stream_output_file(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        self._write_events(events)
        out = tmp_path / "report.json"
        code = main(["stream", "--input", str(events), "--cardinality", "120",
                     "--output", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["events"] == 5
        assert capsys.readouterr().out == ""

    def test_stream_empty_input_fails(self, tmp_path):
        events = tmp_path / "empty.jsonl"
        events.write_text("\n")
        assert main(["stream", "--input", str(events)]) == 1

    def test_stream_malformed_line_rejected(self, tmp_path):
        events = tmp_path / "bad.jsonl"
        events.write_text('{"lower": [0.1, 0.1]}\n')
        with pytest.raises(Exception):
            main(["stream", "--input", str(events), "--cardinality", "50"])


class TestExperimentCommand:
    def test_table1(self, capsys):
        code = main(["experiment", "table1"])
        assert code == 0
        assert "parameter" in capsys.readouterr().out

    def test_tiny_fig14(self, capsys):
        scale = json.dumps({"cardinality": 200, "dimensionality": 3, "k": 2,
                            "sigma_values": [0.02, 0.05], "queries": 1, "seed": 1})
        code = main(["experiment", "fig14", "--scale", scale])
        assert code == 0
        out = capsys.readouterr().out
        assert "rsa_seconds" in out

    def test_experiment_registry_complete(self):
        assert {"table1", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
                "fig16", "ablation-rsa", "ablation-jaa"} == set(EXPERIMENTS)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])


class TestMatrixCommand:
    def test_single_cell_smoke_json(self, tmp_path, capsys):
        code = main(["matrix", "--scenario", "cor-storm", "--backend", "serial",
                     "--smoke", "--output-dir", str(tmp_path), "--report", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 1
        assert payload["gates"]["oracle:cor-storm/serial"] is True
        [row] = payload["rows"]
        assert row["oracle"] == "ok" and row["backend"] == "serial"
        assert (tmp_path / "BENCH_matrix.json").exists()
        assert (tmp_path / "METRICS_matrix_cor-storm_serial.jsonl").exists()

    def test_markdown_report(self, tmp_path, capsys):
        code = main(["matrix", "--scenario", "cor-storm", "--backend", "serial",
                     "--smoke", "--no-oracle", "--output-dir", str(tmp_path),
                     "--report", "md"])
        assert code == 0
        out = capsys.readouterr().out
        assert "## Scenario matrix" in out
        assert "| scenario | traffic | serial |" in out

    def test_unknown_scenario_rejected(self, tmp_path):
        with pytest.raises(Exception):
            main(["matrix", "--scenario", "no-such-scenario", "--smoke",
                  "--output-dir", str(tmp_path)])


class TestTrendCommand:
    def _write_matrix(self, path, qps):
        from repro.bench.reporting import write_bench_json

        rows = [{"scenario": "s", "backend": "b", "traffic": "cold", "queries": 4,
                 "seconds": 1.0, "qps": qps, "oracle": "ok", "gated": True}]
        write_bench_json(path, "matrix", rows,
                         gates={"oracle:s/b": True, "oracle_checked": True, "passed": True},
                         meta={"smoke": True})

    def test_identical_runs_pass(self, tmp_path, capsys):
        current = tmp_path / "current.json"
        self._write_matrix(current, 100.0)
        code = main(["trend", "--current", str(current), "--baseline", str(current)])
        assert code == 0
        assert "ok" in capsys.readouterr().out

    def test_regression_fails_and_writes_output(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        current = tmp_path / "current.json"
        summary = tmp_path / "summary.md"
        self._write_matrix(baseline, 100.0)
        self._write_matrix(current, 50.0)
        code = main(["trend", "--current", str(current), "--baseline", str(baseline),
                     "--report", "md", "--output", str(summary)])
        assert code == 1
        assert "regression" in capsys.readouterr().out
        assert "## Benchmark trend" in summary.read_text()

    def test_custom_threshold(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        current = tmp_path / "current.json"
        self._write_matrix(baseline, 100.0)
        self._write_matrix(current, 50.0)
        code = main(["trend", "--current", str(current), "--baseline", str(baseline),
                     "--threshold", "0.6"])
        assert code == 0
