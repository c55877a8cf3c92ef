"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main


class TestCLI:
    def test_corpus(self, capsys):
        assert main(["corpus"]) == 0
        out = capsys.readouterr().out
        assert "kerberos" in out and "needham-schroeder" in out

    def test_analyze(self, capsys):
        assert main(["analyze", "kerberos", "--logic", "ban"]) == 0
        out = capsys.readouterr().out
        assert "A-key: derived" in out

    def test_analyze_with_explain(self, capsys):
        assert main(["analyze", "kerberos", "--explain", "B-key"]) == 0
        out = capsys.readouterr().out
        assert "A15" in out

    def test_analyze_unknown_protocol(self, capsys):
        with pytest.raises(SystemExit):
            main(["analyze", "nonexistent"])

    def test_unknown_protocol_via_direct_dispatch(self, capsys):
        import argparse

        from repro.__main__ import _cmd_analyze

        args = argparse.Namespace(name="zz", logic="at", explain=None)
        assert _cmd_analyze(args) == 2

    def test_cointoss(self, capsys):
        assert main(["cointoss"]) == 0
        out = capsys.readouterr().out
        assert "optimum exists: False" in out
        assert "optimum exists: True" in out

    def test_sweep_small(self, capsys):
        assert main(["sweep", "--systems", "1", "--instances", "10"]) == 0
        out = capsys.readouterr().out
        assert "TOTAL" in out and "0 violations" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_analyze_with_certify(self, capsys):
        assert main(["analyze", "kerberos", "--certify", "B-key"]) == 0
        out = capsys.readouterr().out
        assert "certified B-key" in out and "Hilbert" in out

    def test_certify_unknown_goal(self, capsys):
        assert main(["analyze", "kerberos", "--certify", "nope"]) == 2

    def test_trace_schema(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "TRACE_report.jsonl"
        assert main([
            "trace", "--systems", "1", "--schema", "A3",
            "--instances", "1", "--output", str(out_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "evaluations" in out and f"wrote {out_path}" in out
        lines = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert lines[0]["record"] == "meta"
        assert lines[0]["python"]
        traces = [line for line in lines[1:] if line["record"] == "trace"]
        assert traces and all(t["schema"] == "A3" for t in traces)
        roots = [t for t in traces if t["parent"] is None]
        assert roots and all(t["verdict"] is True for t in roots)

    def test_trace_formula_why_false(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "TRACE_report.jsonl"
        assert main([
            "trace", "--systems", "1",
            "--formula", "P1 believes p0",
            "--only-failures", "--output", str(out_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "first why-false tree:" in out
        assert "✗ Believes" in out
        assert "possible_points=" in out
        lines = [json.loads(line) for line in out_path.read_text().splitlines()]
        roots = [
            line for line in lines[1:]
            if line["record"] == "trace" and line["parent"] is None
        ]
        assert roots and all(root["verdict"] is False for root in roots)

    def test_trace_unknown_schema(self, capsys):
        assert main(["trace", "--schema", "ZZ"]) == 2

    def test_perf_reports_spans_and_meta(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "BENCH_sweep.json"
        assert main([
            "perf", "--systems", "1", "--instances", "10",
            "--output", str(out_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "sweep.schema" in out and "p95_s" in out
        # The span table is grouped by engine: the good-runs stage rows
        # split per construction engine with no manual post-filtering.
        assert "goodruns.stage{engine=naive}" in out
        assert "goodruns.stage{engine=worklist}" in out
        record = json.loads(out_path.read_text())
        assert "sweep.schema" in record["spans"]
        assert record["spans"]["sweep.schema"]["count"] > 0
        assert record["meta"]["python"]
        assert record["meta"]["command"] == "perf"

    def test_obs_prometheus_exposition(self, capsys):
        assert main([
            "obs", "--systems", "1", "--instances", "10",
        ]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_perf_events_total counter" in out
        assert "repro_cache_hit_ratio{" in out
        assert 'repro_span_duration_seconds{quantile="0.95"' in out
        assert "repro_journal_capacity" in out
        assert 'repro_build_info{' in out and 'command="obs"' in out

    def test_obs_json_journal_and_reexport(self, tmp_path, capsys):
        import json

        snap_path = tmp_path / "snapshot.json"
        journal_path = tmp_path / "journal.jsonl"
        assert main([
            "obs", "--systems", "1", "--instances", "10",
            "--format", "json", "--output", str(snap_path),
            "--journal", str(journal_path),
        ]) == 0
        snapshot = json.loads(snap_path.read_text())
        assert {"perf", "spans", "journal", "meta"} <= set(snapshot)
        events = [
            json.loads(line)
            for line in journal_path.read_text().splitlines()
        ]
        assert events
        # The whole workload ran under one fresh correlation ID.
        corrs = {event["corr"] for event in events}
        assert len(corrs) == 1
        assert next(iter(corrs)).startswith("obs-")
        # A saved JSON snapshot re-exports as Prometheus text.
        capsys.readouterr()
        assert main([
            "obs", "--input", str(snap_path), "--format", "prometheus",
        ]) == 0
        out = capsys.readouterr().out
        assert "repro_perf_events_total{" in out
