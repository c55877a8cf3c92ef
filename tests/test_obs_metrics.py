"""Tests for the unified telemetry snapshot and its exporters.

The exporters are pinned first (a byte-exact golden Prometheus
exposition from hand-built deterministic data, plus line-shape
validation, label escaping, and JSON round-trip), then the unified
snapshot's sections, and finally the telemetry hand-off: a soundness
sweep run in a fresh child context and absorbed by its parent must
leave the parent the same per-schema ``sweep.schema`` span attributes,
journal and counters as the same sweep run in the parent directly.
"""

from __future__ import annotations

import json
import re

from repro import context, perf
from repro.obs import metrics


GOLDEN_SNAPSHOT = {
    "meta": {"command": "test", "git_sha": "abc123", "python": "3.11"},
    "perf": {
        "counters": {"intern.hit": 10, "intern.miss": 2},
        "hit_rates": {"intern": 0.8},
        "cache_sizes": {"intern": 7},
        "cache_peaks": {"intern": 9},
    },
    "spans": {
        "sweep.schema": {
            "count": 4, "total_s": 0.5, "min_s": 0.1, "max_s": 0.2,
            "p50_s": 0.125, "p95_s": 0.2, "p99_s": 0.2,
        },
    },
    "spans_dropped": 2,
    "journal": {"events": 3, "dropped": 1, "capacity": 4096},
}

GOLDEN_EXPOSITION = """\
# HELP repro_build_info Run fingerprint (git SHA, interpreter, platform).
# TYPE repro_build_info gauge
repro_build_info{command="test",git_sha="abc123",python="3.11"} 1
# HELP repro_perf_events_total Flat perf counter table (layer.event increments).
# TYPE repro_perf_events_total counter
repro_perf_events_total{event="intern.hit"} 10
repro_perf_events_total{event="intern.miss"} 2
# HELP repro_cache_hit_ratio Cache hit rate per layer (hits / (hits + misses)).
# TYPE repro_cache_hit_ratio gauge
repro_cache_hit_ratio{layer="intern"} 0.8
# HELP repro_cache_entries Live entry count of each registered cache.
# TYPE repro_cache_entries gauge
repro_cache_entries{cache="intern"} 7
# HELP repro_cache_peak_entries High-water mark of each registered cache.
# TYPE repro_cache_peak_entries gauge
repro_cache_peak_entries{cache="intern"} 9
# HELP repro_span_duration_seconds Wall-clock span percentiles (nearest-rank).
# TYPE repro_span_duration_seconds summary
repro_span_duration_seconds{quantile="0.5",span="sweep.schema"} 0.125
repro_span_duration_seconds{quantile="0.95",span="sweep.schema"} 0.2
repro_span_duration_seconds{quantile="0.99",span="sweep.schema"} 0.2
repro_span_duration_seconds_sum{span="sweep.schema"} 0.5
repro_span_duration_seconds_count{span="sweep.schema"} 4
# HELP repro_spans_dropped_total Spans discarded by the bounded span buffer.
# TYPE repro_spans_dropped_total counter
repro_spans_dropped_total 2
# HELP repro_journal_events Events currently retained in the flight-recorder ring.
# TYPE repro_journal_events gauge
repro_journal_events 3
# HELP repro_journal_dropped_total Events discarded by the bounded ring.
# TYPE repro_journal_dropped_total counter
repro_journal_dropped_total 1
# HELP repro_journal_capacity Flight-recorder ring capacity.
# TYPE repro_journal_capacity gauge
repro_journal_capacity 4096
"""

#: One valid exposition line: a comment, or ``name{labels} value``.
_LINE_SHAPE = re.compile(
    r"^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+"
    r"|[a-zA-Z_:][a-zA-Z0-9_:]*"
    r"(\{[a-zA-Z0-9_]+=\"[^\"]*\"(,[a-zA-Z0-9_]+=\"[^\"]*\")*\})?"
    r" (-?[0-9.e+-]+|[+-]Inf|NaN))$"
)


class TestExporters:
    def test_golden_prometheus_exposition(self):
        # Byte-exact: the exporter sorts families, samples, and labels,
        # so a fixed snapshot must always render these exact lines.
        assert metrics.to_prometheus(GOLDEN_SNAPSHOT) == GOLDEN_EXPOSITION

    def test_every_line_is_valid_exposition(self):
        text = metrics.to_prometheus(GOLDEN_SNAPSHOT)
        for line in text.rstrip("\n").split("\n"):
            assert _LINE_SHAPE.match(line), f"malformed line: {line!r}"

    def test_counter_names_get_total_suffix_once(self):
        text = metrics.to_prometheus(GOLDEN_SNAPSHOT)
        assert "repro_perf_events_total{" in text
        assert "repro_journal_dropped_total " in text
        assert "_total_total" not in text

    def test_label_values_are_escaped(self):
        snapshot = {"perf": {"counters": {'a"b\\c\nd': 1}}}
        text = metrics.to_prometheus(snapshot)
        assert r'event="a\"b\\c\nd"' in text

    def test_json_round_trip(self):
        text = metrics.to_json(GOLDEN_SNAPSHOT)
        assert json.loads(text) == GOLDEN_SNAPSHOT

    def test_unified_snapshot_sections(self):
        with context.scoped("unified-test") as ctx:
            ctx.corr_id = "req-snap"
            perf.count("touched.hit")
            from repro.obs import journal
            journal.record("compile")
            snapshot = metrics.unified_snapshot(meta={"command": "test"})
        assert snapshot["perf"]["counters"] == {"touched.hit": 1}
        assert snapshot["journal"] == {"events": 1, "dropped": 0,
                                       "capacity": 4096}
        assert snapshot["meta"] == {"command": "test"}
        assert snapshot["spans_dropped"] == 0
        assert set(snapshot) == {"perf", "spans", "spans_dropped", "journal",
                                 "meta"}
        # And the whole thing exports without error.
        assert metrics.to_prometheus(snapshot).startswith("# HELP")


#: The per-schema facts every ``sweep.schema`` span carries.
SCHEMA_ATTRS = ("schema", "engine", "instances", "points")


class TestSweepIntegration:
    def test_absorbed_child_matches_direct_run(self):
        """A child context's ``telemetry()``, absorbed, is lossless.

        Each ``sweep.schema`` span carries its schema, engine, instance
        count and point count; the child ships its spans, journal
        events and counters home, and the parent's ``absorb()`` must
        leave it what the same sweep run in the parent leaves.
        """
        from repro.soundness import generate_systems, sweep_systems

        def run(via_child):
            parent = context.fresh(f"metrics-sweep-{via_child}",
                                   corr_id=f"req-sweep-{via_child}")
            with context.use(parent):
                perf.count("earlier.hit", 3)
                child = context.fresh("metrics-sweep-child")
                with context.use(child if via_child else parent):
                    sweep_systems(generate_systems(2, base_seed=1),
                                  max_instances_per_schema=20)
                if via_child:
                    telemetry = child.telemetry()
                    assert "earlier.hit" not in telemetry["counters"]
                    parent.absorb(telemetry)
            schema_rows = sorted(
                tuple(s["attrs"][key] for key in SCHEMA_ATTRS)
                for s in parent.spans.snapshot()
                if s["name"] == "sweep.schema"
            )
            return schema_rows, parent.journal.snapshot(), parent.counters

        direct_rows, direct_journal, direct_counters = run(False)
        child_rows, child_journal, child_counters = run(True)

        # Equal multisets of (schema, engine, instances, points) rows.
        assert child_rows == direct_rows
        assert sum(row[2] for row in direct_rows) > 0
        # The same events, each under the parent's correlation ID.
        assert child_journal
        assert [e["kind"] for e in child_journal] == [
            e["kind"] for e in direct_journal
        ]
        assert {e["corr"] for e in child_journal} == {"req-sweep-True"}
        assert child_counters == direct_counters
