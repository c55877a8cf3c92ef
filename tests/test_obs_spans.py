"""Tests for the span half of the observability layer.

The recorder is pinned in isolation (timing, percentiles, the
mark/delta/merge transport contract, derived views), then against its
real consumer: the parallel soundness sweep must surface exactly the
same per-schema spans at ``workers=4`` as at ``workers=1``.
"""

from __future__ import annotations

import threading

import pytest

from repro.obs.spans import CAPACITY, SpanRecorder, percentile, summarize
from repro.obs import spans as global_spans


class TestRecorder:
    def test_record_and_snapshot(self):
        recorder = SpanRecorder()
        recorder.record("work", 0.25, shard=3)
        recorder.record("work", 0.75)
        snap = recorder.snapshot()
        assert len(recorder) == 2
        assert snap[0] == {"name": "work", "seconds": 0.25,
                           "attrs": {"shard": 3}}
        assert "attrs" not in snap[1]

    def test_span_times_on_monotonic_clock(self):
        recorder = SpanRecorder()
        with recorder.span("region"):
            pass
        (sample,) = recorder.snapshot()
        assert sample["name"] == "region"
        assert sample["seconds"] >= 0.0

    def test_span_yields_mutable_attrs(self):
        recorder = SpanRecorder()
        with recorder.span("stage", depth=1) as attrs:
            attrs["survivors"] = 4
        (sample,) = recorder.snapshot()
        assert sample["attrs"] == {"depth": 1, "survivors": 4}

    def test_span_records_on_exception(self):
        recorder = SpanRecorder()
        with pytest.raises(ValueError):
            with recorder.span("doomed"):
                raise ValueError("boom")
        assert [s["name"] for s in recorder.snapshot()] == ["doomed"]

    def test_event_has_zero_duration(self):
        recorder = SpanRecorder()
        recorder.event("checkpoint", at="start")
        (sample,) = recorder.snapshot()
        assert sample["seconds"] == 0.0

    def test_thread_safe_appends(self):
        recorder = SpanRecorder()

        def worker():
            for _ in range(200):
                recorder.record("t", 0.001)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(recorder) == 800


class TestTransport:
    def test_mark_delta_merge_roundtrip(self):
        worker = SpanRecorder()
        worker.record("warmup", 0.1)
        mark = worker.mark()
        worker.record("shard", 0.2, index=0)
        worker.record("shard", 0.3, index=1)
        delta = worker.delta_since(mark)
        assert [s["seconds"] for s in delta] == [0.2, 0.3]

        parent = SpanRecorder()
        parent.record("local", 0.5)
        parent.merge(delta)
        names = [s["name"] for s in parent.snapshot()]
        assert names == ["local", "shard", "shard"]

    def test_delta_is_plain_picklable_data(self):
        import pickle

        worker = SpanRecorder()
        worker.record("shard", 0.2, schema="A1")
        delta = worker.delta_since(0)
        assert pickle.loads(pickle.dumps(delta)) == delta

    def test_merge_copies_samples(self):
        source = SpanRecorder()
        source.record("x", 1.0)
        delta = source.delta_since(0)
        sink = SpanRecorder()
        sink.merge(delta)
        delta[0]["seconds"] = 99.0
        assert sink.snapshot()[0]["seconds"] == 1.0


class TestBound:
    """The buffer keeps the newest ``CAPACITY`` spans and counts the rest."""

    def test_recorder_past_capacity_keeps_newest(self):
        recorder = SpanRecorder()
        for index in range(CAPACITY + 5):
            recorder.record("s", 0.0, index=index)
        snap = recorder.snapshot()
        assert len(snap) == CAPACITY
        assert recorder.dropped == 5
        assert snap[0]["attrs"]["index"] == 5
        assert snap[-1]["attrs"]["index"] == CAPACITY + 4

    def test_delta_since_across_a_wrap(self):
        recorder = SpanRecorder()
        for index in range(10):
            recorder.record("before", 0.0, index=index)
        mark = recorder.mark()
        for index in range(CAPACITY + 3):
            recorder.record("after", 0.0, index=index)
        # Only retained spans come back, and only those after the mark.
        assert recorder.delta_since(mark) == [
            sample for sample in recorder.snapshot()
            if sample["name"] == "after"
        ]
        late = recorder.mark()
        recorder.record("last", 0.0)
        assert [s["name"] for s in recorder.delta_since(late)] == ["last"]

    def test_absorb_past_capacity_leaves_root_at_capacity(self):
        from repro import context

        root = context.fresh("span-root")
        for batch in range(3):
            shard = context.fresh(f"span-shard-{batch}")
            for _ in range(CAPACITY // 2 + 1):
                shard.spans.record("serve.request", 0.001)
            root.absorb(shard.telemetry())
        assert len(root.spans) == CAPACITY
        assert root.spans.dropped == 3 * (CAPACITY // 2 + 1) - CAPACITY


class TestViews:
    def test_percentile_nearest_rank(self):
        durations = [float(n) for n in range(1, 101)]
        assert percentile(durations, 50) == 50.0
        assert percentile(durations, 95) == 95.0
        assert percentile(durations, 99) == 99.0
        assert percentile([7.0], 99) == 7.0
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_summarize_groups_by_name(self):
        samples = [
            {"name": "a", "seconds": 0.3},
            {"name": "a", "seconds": 0.1},
            {"name": "b", "seconds": 1.0},
        ]
        summary = summarize(samples)
        assert summary["a"]["count"] == 2
        assert summary["a"]["min_s"] == 0.1
        assert summary["a"]["max_s"] == 0.3
        assert summary["a"]["total_s"] == 0.4
        assert summary["b"]["p50_s"] == 1.0

    def test_render_mentions_every_name(self):
        recorder = SpanRecorder()
        recorder.record("alpha", 0.1)
        recorder.record("beta", 0.2)
        table = recorder.render()
        assert "alpha" in table and "beta" in table and "p95_s" in table


class TestSweepSpans:
    """The telemetry contract of the parallel soundness sweep."""

    def test_workers_4_spans_match_workers_1(self):
        from repro.soundness import generate_systems, sweep_systems

        systems = generate_systems(1, base_seed=0)
        global_spans.reset()
        sweep_systems(systems, max_instances_per_schema=8, workers=1)
        sequential = sorted(
            s["attrs"]["schema"] for s in global_spans.snapshot()
            if s["name"] == "sweep.schema"
        )
        global_spans.reset()
        sweep_systems(systems, max_instances_per_schema=8, workers=4)
        parallel = sorted(
            s["attrs"]["schema"] for s in global_spans.snapshot()
            if s["name"] == "sweep.schema"
        )
        global_spans.reset()
        # Every worker's per-schema span is shipped home: the parallel
        # run shows the same schema coverage, once each, plus the one
        # parent-side pool span.
        assert parallel == sequential
        assert len(sequential) > 0

    def test_parallel_sweep_adds_pool_span(self):
        from repro.soundness import generate_systems, sweep_systems

        systems = generate_systems(1, base_seed=3)
        global_spans.reset()
        sweep_systems(systems, max_instances_per_schema=5, workers=2)
        names = [s["name"] for s in global_spans.snapshot()]
        global_spans.reset()
        assert names.count("sweep.pool") == 1

    def test_goodruns_stage_spans(self):
        from repro.goodruns import (
            build_cointoss_example,
            construct_good_runs,
        )

        example = build_cointoss_example()
        global_spans.reset()
        result = construct_good_runs(example.system, example.assumptions)
        stages = [
            s for s in global_spans.snapshot()
            if s["name"] == "goodruns.stage"
        ]
        global_spans.reset()
        assert len(stages) == result.depth
        assert [s["attrs"]["depth"] for s in stages] == list(
            range(1, result.depth + 1)
        )
        assert all("survivors" in s["attrs"] for s in stages)
