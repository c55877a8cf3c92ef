"""Tests for the CI bench-regression gate (``tools/bench_gate.py``).

The gate reads its workloads, bounds and directions from the repo's
``BENCHMARK.json``.  These tests feed its comparison synthetic result
lines (the JSON line the benchmark ends with), so they never run the
benchmark: with no comparable history the gate passes and seeds the
baseline, the same numbers pass, each metric fails past its own bound
in its own direction, the baseline is the best prior value, entries
from another environment, workload or run length never gate, and a
result with wrong answers fails.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import bench_gate  # noqa: E402

SPEC = bench_gate.load_spec()
META = {"git_sha": "aaa111", "timestamp": "2026-10-18T00:00:00+00:00"}
BASE = {"setup_s": 1.0, "op_p50_ms": 10.0, "op_tail_ms": 14.0,
        "ops_per_s": 100.0, "peak_rss_mb": 50.0}


def result_line(correct=True, failed=0, **values):
    metrics = {**BASE, **values}
    return {
        "correct": correct, "attempted": 200, "failed": failed,
        "metrics": {name: {"value": value, "unit": "x"}
                    for name, value in metrics.items()},
    }


def run_gate(tmp_path, result, workload="sweep", environment="local",
             spec=SPEC):
    history = tmp_path / "history.jsonl"
    passed = bench_gate.gate(spec, workload, result, history, environment,
                             META)
    return passed, history


def bound(name):
    return next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == name)


class TestHistory:
    def test_entry_keeps_sha_parameters_and_numeric_measurements(self):
        entry = bench_gate.history_entry(SPEC, "serve", result_line(),
                                         "local", META)
        assert entry == {
            "git_sha": "aaa111",
            "timestamp": META["timestamp"],
            "environment": "local",
            "workload": "serve",
            "seconds": SPEC["run_seconds"],
            "metrics": BASE,
        }

    def test_append_and_read_round_trip(self, tmp_path):
        path = tmp_path / "history.jsonl"
        for sha in ("one", "two"):
            bench_gate.append_history(path, bench_gate.history_entry(
                SPEC, "sweep", result_line(), "local", {"git_sha": sha}))
        entries = bench_gate.read_history(path)
        assert [e["git_sha"] for e in entries] == ["one", "two"]

    def test_missing_history_reads_empty(self, tmp_path):
        assert bench_gate.read_history(tmp_path / "absent.jsonl") == []


class TestGate:
    def test_no_history_passes_and_seeds_baseline(self, tmp_path, capsys):
        passed, history = run_gate(tmp_path, result_line())
        assert passed
        assert "seeds the baseline" in capsys.readouterr().out
        assert [e["metrics"] for e in bench_gate.read_history(history)] == [
            BASE]

    def test_same_speed_passes_against_prior_entry(self, tmp_path):
        assert run_gate(tmp_path, result_line())[0]
        passed, history = run_gate(tmp_path, result_line())
        assert passed
        assert len(bench_gate.read_history(history)) == 2

    def test_synthetic_regression_fails(self, tmp_path):
        # op_p50_ms is lower-is-better: rising past its bound fails.
        assert run_gate(tmp_path, result_line())[0]
        slow = BASE["op_p50_ms"] * (1 + bound("op_p50_ms") + 0.05)
        assert not run_gate(tmp_path, result_line(op_p50_ms=slow))[0]

    def test_throughput_drop_fails(self, tmp_path):
        # ops_per_s is higher-is-better: falling past its bound fails,
        # and rising never does.
        assert run_gate(tmp_path, result_line())[0]
        assert run_gate(tmp_path, result_line(ops_per_s=1000.0))[0]
        slow = 1000.0 * (1 - bound("ops_per_s") - 0.05)
        assert not run_gate(tmp_path, result_line(ops_per_s=slow))[0]

    def test_peak_rss_fails_at_its_own_bound(self, tmp_path):
        assert bound("peak_rss_mb") < bound("op_p50_ms")
        assert run_gate(tmp_path, result_line())[0]
        # 15% up passes a 25% metric but fails the 10% RSS bound.
        assert run_gate(tmp_path, result_line(op_p50_ms=11.5))[0]
        assert not run_gate(tmp_path, result_line(peak_rss_mb=57.5))[0]

    def test_baseline_is_best_known_not_latest(self, tmp_path):
        # A slow entry must not ratchet the bar down: 13.0 is 30% over
        # the best prior p50 and fails, though within 25% of the latest.
        assert run_gate(tmp_path, result_line(op_p50_ms=10.0))[0]
        assert run_gate(tmp_path, result_line(op_p50_ms=12.0))[0]
        assert not run_gate(tmp_path, result_line(op_p50_ms=13.0))[0]
        assert run_gate(tmp_path, result_line(op_p50_ms=12.0))[0]

    def test_baseline_comes_from_the_last_window_entries(self):
        current = bench_gate.history_entry(SPEC, "sweep", result_line(
            op_p50_ms=20.0), "local", META)
        fast = {**current, "metrics": {**BASE, "op_p50_ms": 10.0}}
        old = [fast] + [current] * bench_gate.WINDOW
        assert bench_gate.compare(SPEC, current, old)[0] == []
        assert bench_gate.compare(SPEC, current, old[:-1])[0] != []

    @pytest.mark.parametrize("correct, failed", [(False, 0), (True, 3)])
    def test_wrong_answers_fail_and_are_not_recorded(self, tmp_path,
                                                     correct, failed):
        passed, history = run_gate(
            tmp_path, result_line(correct=correct, failed=failed))
        assert not passed
        assert bench_gate.read_history(history) == []

    def test_failed_run_fails(self, tmp_path):
        passed, history = run_gate(tmp_path, None)
        assert not passed
        assert not history.exists()

    def test_main_gates_every_workload(self, tmp_path, monkeypatch):
        runs = []

        def fake_run(spec, workload):
            runs.append(workload)
            return None if workload == "serve" else result_line()

        monkeypatch.setattr(bench_gate, "run_workload", fake_run)
        history = tmp_path / "history.jsonl"
        assert bench_gate.main(["--history", str(history)]) == 1
        assert runs == [w["name"] for w in SPEC["workloads"]]
        assert [e["workload"] for e in bench_gate.read_history(history)] == [
            "sweep", "goodruns"]


class TestComparability:
    def test_different_environment_never_gates(self, tmp_path):
        assert run_gate(tmp_path, result_line(), environment="local")[0]
        assert run_gate(tmp_path, result_line(op_p50_ms=100.0),
                        environment="github-actions")[0]

    def test_different_parameters_never_gate(self, tmp_path):
        # Another workload, or the same one at another run length.
        assert run_gate(tmp_path, result_line(), workload="sweep")[0]
        assert run_gate(tmp_path, result_line(op_p50_ms=100.0),
                        workload="goodruns")[0]
        longer = {**SPEC, "run_seconds": SPEC["run_seconds"] * 2}
        assert run_gate(tmp_path, result_line(op_p50_ms=100.0),
                        spec=longer)[0]
        assert not run_gate(tmp_path, result_line(op_p50_ms=100.0))[0]


class TestSpec:
    def test_bounds_come_from_the_repo_benchmark(self, tmp_path):
        spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
        assert SPEC == spec
        # Every end-to-end metric passes just inside its own bound and
        # fails just past it, in its own direction.
        for metric in spec["end_to_end"]:
            name, sign = metric["name"], (
                1 if metric["better"] == "lower" else -1)
            for scale, passes in ((0.9, True), (1.1, False)):
                workdir = tmp_path / f"{name}-{scale}"
                workdir.mkdir()
                assert run_gate(workdir, result_line())[0]
                value = BASE[name] * (1 + sign * metric["bound"] * scale)
                assert run_gate(workdir, result_line(**{name: value}))[0] \
                    is passes, (name, scale)
