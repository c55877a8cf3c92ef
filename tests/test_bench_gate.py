"""Tests for the CI bench-regression gate (``tools/bench_gate.py``).

The gate must pass vacuously with no comparable history, pass on a
same-speed record, fail (exit 1) on a synthetically regressed one, and
never compare entries across environments or parameter sets — the
committed local-machine history must not gate CI runners.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import bench_gate  # noqa: E402


def make_bench(cold=0.10, sha="aaa111", **parameter_overrides):
    parameters = {"systems": 3, "instances": 60, "seed": 0,
                  "workers": 1, "engine": "both", "backend": "belief"}
    parameters.update(parameter_overrides)
    return {
        "meta": {"git_sha": sha, "timestamp": "2026-08-08T00:00:00+00:00"},
        "parameters": parameters,
        "measurements": {
            "sweep_cold_compiled_s": cold,
            "sweep_warm_compiled_s": cold / 4,
            "total_instances": 2307,
        },
    }


def write_bench(tmp_path, name, bench):
    path = tmp_path / name
    path.write_text(json.dumps(bench), encoding="utf-8")
    return path


def run_gate(tmp_path, bench, *extra):
    bench_path = write_bench(tmp_path, "bench.json", bench)
    history_path = tmp_path / "history.jsonl"
    return bench_gate.main([
        "--bench", str(bench_path), "--history", str(history_path), *extra
    ]), history_path


class TestHistory:
    def test_entry_keeps_sha_parameters_and_numeric_measurements(self):
        entry = bench_gate.history_entry(make_bench(sha="deadbeef"), "local")
        assert entry["git_sha"] == "deadbeef"
        assert entry["environment"] == "local"
        assert entry["parameters"]["systems"] == 3
        assert entry["measurements"]["sweep_cold_compiled_s"] == 0.10
        # Nested dicts (goodruns_stage_spans etc.) are not headline
        # numbers and stay out of the compact history line.
        assert all(isinstance(v, (int, float))
                   for v in entry["measurements"].values())

    def test_append_and_read_round_trip(self, tmp_path):
        path = tmp_path / "history.jsonl"
        first = bench_gate.history_entry(make_bench(sha="one"), "local")
        second = bench_gate.history_entry(make_bench(sha="two"), "local")
        bench_gate.append_history(path, first)
        bench_gate.append_history(path, second)
        entries = bench_gate.read_history(path)
        assert [e["git_sha"] for e in entries] == ["one", "two"]

    def test_missing_history_reads_empty(self, tmp_path):
        assert bench_gate.read_history(tmp_path / "absent.jsonl") == []


class TestGate:
    def test_no_history_passes_and_seeds_baseline(self, tmp_path):
        code, history_path = run_gate(tmp_path, make_bench())
        assert code == 0
        entries = bench_gate.read_history(history_path)
        assert len(entries) == 1

    def test_same_speed_passes_against_prior_entry(self, tmp_path):
        code, history_path = run_gate(tmp_path, make_bench(cold=0.10))
        assert code == 0
        bench = write_bench(tmp_path, "again.json", make_bench(cold=0.105))
        code = bench_gate.main([
            "--bench", str(bench), "--history", str(history_path)
        ])
        assert code == 0

    def test_synthetic_regression_fails(self, tmp_path):
        code, history_path = run_gate(tmp_path, make_bench(cold=0.10))
        assert code == 0
        regressed = write_bench(
            tmp_path, "regressed.json", make_bench(cold=0.15, sha="bbb222")
        )
        code = bench_gate.main([
            "--bench", str(regressed), "--history", str(history_path)
        ])
        assert code == 1

    def test_threshold_is_configurable(self, tmp_path):
        code, history_path = run_gate(tmp_path, make_bench(cold=0.10))
        assert code == 0
        regressed = write_bench(
            tmp_path, "regressed.json", make_bench(cold=0.15)
        )
        code = bench_gate.main([
            "--bench", str(regressed), "--history", str(history_path),
            "--threshold", "0.60",
        ])
        assert code == 0

    def test_baseline_is_best_known_not_latest(self, tmp_path):
        # A slow entry in history must not ratchet the bar down: the
        # baseline is the minimum, so a record 50% over the *best*
        # prior time fails even if it matches the latest one.
        code, history_path = run_gate(tmp_path, make_bench(cold=0.10))
        assert code == 0
        slow = write_bench(tmp_path, "slow.json", make_bench(cold=0.15))
        bench_gate.main(["--bench", str(slow), "--history",
                         str(history_path), "--threshold", "0.60"])
        again = write_bench(tmp_path, "again.json", make_bench(cold=0.15))
        code = bench_gate.main([
            "--bench", str(again), "--history", str(history_path)
        ])
        assert code == 1

    def test_no_append_leaves_history_unchanged(self, tmp_path):
        code, history_path = run_gate(tmp_path, make_bench(), "--no-append")
        assert code == 0
        assert not history_path.exists()

    def test_missing_bench_record_is_usage_error(self, tmp_path):
        code = bench_gate.main([
            "--bench", str(tmp_path / "absent.json"),
            "--history", str(tmp_path / "history.jsonl"),
        ])
        assert code == 2


class TestComparability:
    def test_different_environment_never_gates(self, tmp_path):
        code, history_path = run_gate(
            tmp_path, make_bench(cold=0.10), "--environment", "local"
        )
        assert code == 0
        regressed = write_bench(
            tmp_path, "ci.json", make_bench(cold=10.0)
        )
        code = bench_gate.main([
            "--bench", str(regressed), "--history", str(history_path),
            "--environment", "github-actions",
        ])
        assert code == 0

    def test_different_parameters_never_gate(self, tmp_path):
        code, history_path = run_gate(tmp_path, make_bench(cold=0.10))
        assert code == 0
        bigger = write_bench(
            tmp_path, "bigger.json",
            make_bench(cold=10.0, systems=10, instances=500),
        )
        code = bench_gate.main([
            "--bench", str(bigger), "--history", str(history_path)
        ])
        assert code == 0

    def test_epistemic_record_never_gates_against_belief_history(
            self, tmp_path):
        code, history_path = run_gate(tmp_path, make_bench(cold=0.10))
        assert code == 0
        epistemic = write_bench(
            tmp_path, "epistemic.json",
            make_bench(cold=10.0, backend="epistemic"),
        )
        code = bench_gate.main([
            "--bench", str(epistemic), "--history", str(history_path)
        ])
        assert code == 0

    def test_pre_backend_history_entry_gates_belief_records(self, tmp_path):
        # History written before ``backend`` was a comparability key
        # carries no backend; those runs were all belief runs.
        history_path = tmp_path / "history.jsonl"
        old = bench_gate.history_entry(make_bench(cold=0.10), "local")
        del old["parameters"]["backend"]
        bench_gate.append_history(history_path, old)
        assert bench_gate.read_history(history_path)[0]["parameters"][
            "backend"] == "belief"
        regressed = write_bench(
            tmp_path, "regressed.json", make_bench(cold=0.15)
        )
        code = bench_gate.main([
            "--bench", str(regressed), "--history", str(history_path)
        ])
        assert code == 1

    def test_committed_seed_history_passes_for_real_record(self):
        """The repo's own BENCH_history.jsonl must gate BENCH_sweep.json
        cleanly (the acceptance demonstration, run without appending)."""
        bench = REPO_ROOT / "BENCH_sweep.json"
        history = REPO_ROOT / "BENCH_history.jsonl"
        assert history.exists(), "seed history missing"
        code = bench_gate.main([
            "--bench", str(bench), "--history", str(history),
            "--no-append", "--threshold", "1000",
        ])
        assert code == 0
