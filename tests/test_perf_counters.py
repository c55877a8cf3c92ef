"""Regression tests for the perf-counter bugs the fuzzer rig surfaced.

1. ``hit_rates()`` dropped layers that recorded only misses (a layer
   with 5 misses and 0 hits was absent while ``report()`` showed it at
   0.0%).
2. ``sweep_system(..., workers=N)`` lost the worker processes' perf
   counters: only ``sweep.parallel_shards`` was counted in the parent,
   so ``BENCH_sweep.json`` under-reported cache hits/misses for
   parallel runs.
"""

from __future__ import annotations

import pytest

from repro import context, perf
from repro.soundness import GeneratorConfig, generate_system, sweep_system
from repro.soundness.sweep import _schema_names, _slice_names, _sweep_shard
from repro.logic.axioms import AXIOMS


@pytest.fixture(autouse=True)
def _clean_counters():
    saved = dict(context.current().counters)
    perf.reset_counters()
    yield
    perf.reset_counters()
    context.current().counters.update(saved)


class TestHitRates:
    def test_miss_only_layer_appears(self):
        perf.count("coldcache.miss", 5)
        rates = perf.hit_rates()
        assert rates == {"coldcache": 0.0}

    def test_hit_only_and_mixed_layers(self):
        perf.count("warm.hit", 4)
        perf.count("mixed.hit", 1)
        perf.count("mixed.miss", 3)
        rates = perf.hit_rates()
        assert rates["warm"] == 1.0
        assert rates["mixed"] == 0.25

    def test_report_and_hit_rates_agree_on_layers(self):
        perf.count("missonly.miss", 2)
        perf.count("both.hit")
        perf.count("both.miss")
        assert set(perf.hit_rates()) == {"missonly", "both"}
        assert "missonly" in perf.report()

    def test_non_hit_miss_counters_ignored(self):
        perf.count("sweep.parallel_shards", 7)
        assert perf.hit_rates() == {}


class TestMergeCounters:
    def test_merge_adds_and_creates(self):
        perf.count("layer.hit", 2)
        ctx = context.current()
        ctx.absorb({"counters": {"layer.hit": 3, "other.miss": 1}})
        assert ctx.counters["layer.hit"] == 5
        assert ctx.counters["other.miss"] == 1


class TestParallelSweepCounters:
    def _shards(self, system, workers):
        names = _schema_names(tuple(AXIOMS.values()))
        return [(system, group) for group in _slice_names(names, workers)]

    @staticmethod
    def _eval_memo_events(counters):
        # compiled_eval is scoped to the per-shard compiled system, so
        # its counts are identical whichever process runs the shard.
        # The node-attached structural memos (ops.*) and the term-keyed
        # layers warm differently depending on whether the system's
        # terms arrived warm (in-process) or freshly unpickled (worker
        # process), so only compiled_eval events are comparable.
        return {
            event: n for event, n in counters.items()
            if event.startswith("compiled_eval.")
        }

    def test_parallel_sweep_merges_worker_counters(self):
        system = generate_system(GeneratorConfig(seed=11))
        shards = self._shards(system, 2)

        # Expected: the same shards executed in-process, sequentially.
        # Each shard runs in its own ephemeral context and *returns*
        # its telemetry (no side effect on the caller's table), so the
        # expected totals are the absorbed shard counters.
        ctx = context.current()
        perf.reset_counters()
        for shard_system, group in shards:
            _report, telemetry = _sweep_shard(
                shard_system, group, None, 12, False, 25
            )
            ctx.absorb({"counters": telemetry["counters"]})
        expected = self._eval_memo_events(ctx.counters)

        perf.reset_counters()
        sweep_system(system, max_instances_per_schema=12, workers=2)
        assert ctx.counters.get("sweep.parallel_shards") == len(shards)
        merged = self._eval_memo_events(ctx.counters)

        # Identical totals for the same workload: nothing from the
        # workers is lost, nothing double-counted on process reuse.
        assert merged == expected
        assert sum(merged.values()) > 0

    def test_shard_returns_delta_not_raw_table(self):
        system = generate_system(GeneratorConfig(seed=11))
        (shard_system, group) = self._shards(system, 1)[0]
        perf.count("preexisting.hit", 99)
        _report, telemetry = _sweep_shard(
            shard_system, group, None, 5, False, 25
        )
        delta, span_delta = telemetry["counters"], telemetry["spans"]
        assert "preexisting.hit" not in delta
        assert any(event.startswith("compiled_eval.") for event in delta)
        # The span delta is likewise shard-local: one sweep.schema span
        # per schema in the slice, nothing from before the mark.
        assert [s["name"] for s in span_delta].count("sweep.schema") == len(group)

    def test_bench_snapshot_includes_worker_counters(self):
        system = generate_system(GeneratorConfig(seed=4))
        perf.reset_counters()
        sweep_system(system, max_instances_per_schema=8, workers=2)
        snapshot = perf.snapshot()
        assert snapshot["counters"].get("compiled_eval.miss", 0) > 0
