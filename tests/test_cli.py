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
        with pytest.raises(SystemExit) as exited:
            main(["analyze", "nonexistent"])
        assert exited.value.code == 2

    def test_explain_unknown_goal(self, capsys):
        assert main(["analyze", "kerberos", "--explain", "NOPE"]) == 2
        assert "no goal labelled 'NOPE'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep", "fuzz", "serve"])
    def test_unknown_backend_is_a_usage_error(self, command, capsys):
        # argparse rejects it before any work starts or port is bound.
        with pytest.raises(SystemExit) as exited:
            main([command, "--backend", "nope"])
        assert exited.value.code == 2
        assert "belief" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["sweep", "--systems", "1", "--instances", "-1"],
        ["sweep", "--systems", "-2"],
        ["sweep", "--systems", "0"],
        ["sweep", "--instances", "0"],
        ["obs", "--systems", "0", "--output", "OUT"],
        ["obs", "--instances", "-1", "--output", "OUT"],
        ["trace", "--systems", "-1", "--output", "OUT"],
        ["trace", "--instances", "0", "--output", "OUT"],
        ["fuzz", "--iterations", "-1", "--report", "OUT"],
        ["fuzz", "--iterations", "0", "--report", "OUT"],
    ])
    def test_count_below_one_is_a_usage_error(self, argv, tmp_path, capsys):
        # A run over no systems, instances or iterations checks nothing:
        # argparse rejects it before any work starts or file is written.
        out_path = tmp_path / "out"
        with pytest.raises(SystemExit) as exited:
            main([str(out_path) if arg == "OUT" else arg for arg in argv])
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert "must be positive" in captured.err and captured.out == ""
        assert not out_path.exists()

    @pytest.fixture
    def started(self, monkeypatch):
        """The configs a stubbed ``run_daemon`` was started with."""
        configs = []

        async def run_daemon(config):
            configs.append(config)

        monkeypatch.setattr("repro.serve.run_daemon", run_daemon)
        return configs

    @pytest.mark.parametrize("flags", [
        ["--workers", "0"], ["--workers", "-3"], ["--queue-size", "0"],
        ["--timeout", "0"], ["--timeout", "-1"], ["--timeout", "nan"],
    ])
    def test_serve_sizing_that_cannot_answer_is_a_usage_error(
        self, flags, started, capsys
    ):
        with pytest.raises(SystemExit) as exited:
            main(["serve", *flags])
        assert exited.value.code == 2
        assert "must be positive" in capsys.readouterr().err
        assert started == []  # no daemon started, no port bound

    @pytest.mark.parametrize("port", ["70000", "-1"])
    def test_serve_port_outside_its_range_is_a_usage_error(
        self, port, started, capsys
    ):
        with pytest.raises(SystemExit) as exited:
            main(["serve", "--port", port])
        assert exited.value.code == 2
        assert "must be within 0-65535" in capsys.readouterr().err
        assert started == []  # no daemon started, no port bound

    @pytest.mark.parametrize("port", [0, 65535])
    def test_serve_takes_the_port_range_ends(self, port, started):
        # 0 asks for an ephemeral port (how the benchmark starts serve).
        assert main(["serve", "--port", str(port)]) == 0
        (config,) = started
        assert config.port == port

    def test_serve_takes_the_smallest_sizes(self, started):
        assert main(["serve", "--workers", "1", "--queue-size", "1",
                     "--timeout", "0.5"]) == 0
        (config,) = started
        assert (config.workers, config.queue_size,
                config.request_timeout_s) == (1, 1, 0.5)

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

    @pytest.mark.parametrize("formula", ["P1 believes", "P9 sees N1"])
    def test_trace_bad_formula_leaves_output_untouched(
        self, tmp_path, capsys, formula
    ):
        out_path = tmp_path / "TRACE_report.jsonl"
        out_path.write_text("sentinel\n")
        assert main([
            "trace", "--systems", "1", "--formula", formula,
            "--output", str(out_path),
        ]) == 2
        assert "bad --formula:" in capsys.readouterr().err
        assert out_path.read_text() == "sentinel\n"

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
