"""Perf-counter regressions and the counter hand-off between contexts.

1. ``hit_rates()`` dropped layers that recorded only misses (a layer
   with 5 misses and 0 hits was absent, though it had a rate of 0.0%).
2. Work run in a fresh child context reaches its parent only through
   ``telemetry()`` and ``absorb()``: a sweep absorbed that way must
   leave the parent the counters and cache peaks of the same sweep run
   in the parent directly, and the child must ship only its own work.
"""

from __future__ import annotations

import pytest

from repro import context, perf
from repro.soundness import GeneratorConfig, generate_system, sweep_system
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

    def test_non_hit_miss_counters_ignored(self):
        perf.count("fuzz.iterations", 7)
        assert perf.hit_rates() == {}


class TestMergeCounters:
    def test_merge_adds_and_creates(self):
        perf.count("layer.hit", 2)
        ctx = context.current()
        ctx.absorb({"counters": {"layer.hit": 3, "other.miss": 1}})
        assert ctx.counters["layer.hit"] == 5
        assert ctx.counters["other.miss"] == 1


class TestSweepCounterHandOff:
    @staticmethod
    def _sweep(via_child, instances):
        """One seed-11 sweep, in a fresh parent that already counted
        something, or in a child of it whose telemetry it absorbs.
        Returns the parent and the child's telemetry."""
        parent = context.fresh(f"counter-sweep-{via_child}")
        with context.use(parent):
            perf.count("preexisting.hit", 99)
            child = context.fresh("counter-sweep-child")
            with context.use(child if via_child else parent):
                sweep_system(generate_system(GeneratorConfig(seed=11)),
                             max_instances_per_schema=instances)
        telemetry = child.telemetry()
        if via_child:
            parent.absorb(telemetry)
        return parent, telemetry

    def test_absorbed_child_counters_match_direct_run(self):
        # Nothing the child counted is lost, nothing double-counted.
        direct, _ = self._sweep(False, 12)
        absorbed, _ = self._sweep(True, 12)
        assert absorbed.counters == direct.counters
        assert absorbed.counters.get("compiled_eval.miss", 0) > 0

    def test_child_telemetry_is_its_own_delta(self):
        _parent, telemetry = self._sweep(True, 5)
        delta, span_delta = telemetry["counters"], telemetry["spans"]
        assert "preexisting.hit" not in delta
        assert any(event.startswith("compiled_eval.") for event in delta)
        # One sweep.schema span per schema, nothing from the parent.
        assert [s["name"] for s in span_delta].count("sweep.schema") == len(
            AXIOMS
        )

    def test_snapshot_includes_absorbed_counters_and_peaks(self):
        direct, _ = self._sweep(False, 8)
        absorbed, _ = self._sweep(True, 8)
        with context.use(absorbed):
            snapshot = perf.snapshot()
        assert snapshot["counters"].get("compiled_eval.miss", 0) > 0
        assert snapshot["cache_peaks"] == direct.cache_peaks
        assert snapshot["cache_peaks"].get("compiled_eval", 0) > 0
