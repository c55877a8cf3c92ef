"""Tests for the flight recorder (bounded event journal).

The :class:`Journal` ring is pinned in isolation (bounding, sequence
numbers, the snapshot/merge transport, tails, JSONL), then the
correlation-ID contract (context inheritance, the ``correlation``
manager, span stamping), and finally the overhead guard: recording the
journal on the E3 compiled sweep must cost under 5% against the
``enabled=False`` no-op baseline.
"""

from __future__ import annotations

import gc
import json
import statistics
import time

import pytest

from repro import context
from repro.obs import journal as jr
from repro.obs import spans
from repro.obs.journal import Journal


class TestRing:
    def test_record_and_snapshot(self):
        ring = Journal()
        ring.record("compile", corr="req-1", runs=3)
        ring.record("fallback")
        snap = ring.snapshot()
        assert len(ring) == 2
        assert snap[0]["kind"] == "compile"
        assert snap[0]["corr"] == "req-1"
        assert snap[0]["attrs"] == {"runs": 3}
        assert snap[0]["seq"] == 1
        assert snap[1]["corr"] is None
        assert "attrs" not in snap[1]

    def test_bounded_with_honest_drop_count(self):
        ring = Journal(capacity=4)
        for index in range(10):
            ring.record("tick", index=index)
        assert len(ring) == 4
        assert ring.dropped == 6
        retained = [event["attrs"]["index"] for event in ring.snapshot()]
        assert retained == [6, 7, 8, 9]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            Journal(capacity=0)

    def test_disabled_record_is_a_noop(self):
        ring = Journal()
        ring.enabled = False
        ring.record("tick")
        assert len(ring) == 0
        # Not even a sequence number was spent.
        ring.enabled = True
        ring.record("tock")
        assert [(e["seq"], e["kind"]) for e in ring.snapshot()] == [
            (1, "tock")]

    def test_tail_returns_most_recent(self):
        ring = Journal()
        for index in range(5):
            ring.record("tick", index=index)
        assert [e["attrs"]["index"] for e in ring.tail(2)] == [3, 4]
        assert ring.tail(0) == []
        assert len(ring.tail(99)) == 5

    def test_reset_clears_ring_and_drop_count(self):
        ring = Journal(capacity=1)
        ring.record("a")
        ring.record("b")
        assert ring.dropped == 1
        ring.reset()
        assert len(ring) == 0
        assert ring.dropped == 0


class TestTransport:
    def test_merge_preserves_origin_seq_ts_corr(self):
        source = Journal()
        source.record("compile", corr="shard-7", runs=2)
        target = Journal()
        target.record("local")
        target.merge(source.snapshot())
        merged = target.snapshot()[-1]
        original = source.snapshot()[0]
        assert merged["corr"] == "shard-7"
        assert merged["seq"] == original["seq"]
        assert merged["ts"] == original["ts"]

    def test_merge_respects_capacity(self):
        target = Journal(capacity=2)
        source = Journal()
        for index in range(5):
            source.record("tick", index=index)
        target.merge(source.snapshot())
        assert len(target) == 2
        assert target.dropped == 3

    def test_write_jsonl(self, tmp_path):
        ring = Journal()
        ring.record("compile", corr="req-9", runs=1)
        path = tmp_path / "journal.jsonl"
        count = ring.write_jsonl(str(path))
        assert count == 1
        lines = path.read_text(encoding="utf-8").splitlines()
        event = json.loads(lines[0])
        assert event["kind"] == "compile"
        assert event["corr"] == "req-9"


class TestCorrelation:
    def test_module_record_stamps_current_corr_id(self):
        with context.scoped("corr-test") as ctx:
            ctx.corr_id = "req-abc"
            jr.record("compile", runs=1)
            (event,) = jr.snapshot()
            assert event["corr"] == "req-abc"
            assert jr.correlation_id() == "req-abc"

    def test_correlation_manager_restores_previous(self):
        with context.scoped("corr-test"):
            assert jr.correlation_id() is None
            with jr.correlation("req-1"):
                jr.record("inside")
                assert jr.correlation_id() == "req-1"
            jr.record("outside")
            inside, outside = jr.snapshot()
            assert inside["corr"] == "req-1"
            assert outside["corr"] is None

    def test_fresh_context_inherits_corr_id(self):
        with context.scoped("parent") as parent:
            parent.corr_id = "req-parent"
            child = context.fresh("child")
            assert child.corr_id == "req-parent"
            explicit = context.fresh("child2", corr_id="req-own")
            assert explicit.corr_id == "req-own"

    def test_same_corr_on_journal_events_and_span_attrs(self):
        # The provenance contract: one corr value selects a request's
        # events *and* spans out of a merged stream.
        with context.scoped("corr-test") as ctx:
            ctx.corr_id = "req-xyz"
            jr.record("compile")
            with spans.span("work"):
                pass
            (event,) = jr.snapshot()
            (span_sample,) = spans.snapshot()
            assert event["corr"] == "req-xyz"
            assert span_sample["attrs"]["corr"] == "req-xyz"

    def test_new_corr_id_is_prefixed_and_unique(self):
        first = jr.new_corr_id("obs")
        second = jr.new_corr_id("obs")
        assert first.startswith("obs-")
        assert first != second


class TestContextTransport:
    def test_ephemeral_context_delta_ships_home(self):
        with context.scoped("home") as home:
            home.corr_id = "req-ship"
            shard = context.fresh("shard")
            with context.use(shard):
                jr.record("cache_evict", layer="hide")
            home.absorb({"journal": shard.telemetry()["journal"]})
            (event,) = jr.snapshot()
            assert event["kind"] == "cache_evict"
            assert event["corr"] == "req-ship"

    def test_absorb_telemetry_ships_journal(self):
        with context.scoped("home") as home:
            shard = context.fresh("shard")
            with context.use(shard):
                jr.record("stage_skip", depth=2)
            home.absorb(shard.telemetry())
            assert [e["kind"] for e in jr.snapshot()] == ["stage_skip"]


class TestOverheadGuard:
    def test_journal_overhead_under_five_percent(self):
        """Recording telemetry on the E3 compiled sweep stays in the noise.

        The same sweep workload (fresh context each repetition, so both
        sides pay identical cache-warming) is timed with the journal
        recording normally and with ``enabled=False`` (the no-op
        baseline lever).  The two sides run pair by pair, alternating
        which goes first, so a host-speed change lands inside one pair
        instead of between two batches, and each timing starts from a
        full collection, so a collection of an earlier repetition's
        garbage never lands on one side only.  The median of the
        per-pair ratios must stay under 1.05, with retries on noisy
        machines.
        """
        from repro.soundness import generate_systems, sweep_systems

        systems = generate_systems(2, base_seed=3)

        def workload(enabled):
            ctx = context.fresh("journal-overhead")
            gc.collect()
            with context.use(ctx):
                ctx.journal.enabled = enabled
                start = time.perf_counter()
                sweep_systems(systems, max_instances_per_schema=30)
                return time.perf_counter() - start

        workload(True)  # warm process-wide state (interned atoms etc.)
        workload(False)

        def median_ratio(pairs=15):
            ratios = []
            for index in range(pairs):
                if index % 2:
                    baseline = workload(False)
                    recording = workload(True)
                else:
                    recording = workload(True)
                    baseline = workload(False)
                ratios.append(recording / baseline)
            return statistics.median(ratios)

        best_ratio = float("inf")
        for _attempt in range(3):
            best_ratio = min(best_ratio, median_ratio())
            if best_ratio < 1.05:
                break
        assert best_ratio < 1.05, (
            f"journal-enabled sweep {best_ratio:.3f}x the disabled baseline "
            "(median of interleaved pairs)"
        )
