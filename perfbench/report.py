"""Metric names, units, and the per-layer figures of a traced run."""

from __future__ import annotations

from dataclasses import dataclass, field

import tracer as tracer_mod

#: End-to-end metrics every workload reports (``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics every workload reports (``--trace 1``); a layer a
#: workload never enters reads 0.  Times are milliseconds per op.
PER_LAYER = {
    "terms.intern_calls": "count",
    "terms.intern_hit_rate": "ratio",
    "terms.ground_check_ms": "ms",
    "terms.parse_ms": "ms",
    "axioms.instances": "count",
    "axioms.enumerate_ms": "ms",
    "sweep.points_checked": "count",
    "sweep.self_ms": "ms",
    "compiler.compile_ms": "ms",
    "compiler.systems_compiled": "count",
    "compiler.truth_bits_ms": "ms",
    "compiler.formula_hit_rate": "ratio",
    "compiler.fallbacks": "count",
    "compiler.belief_groups_ms": "ms",
    "hide.view_calls": "count",
    "hide.views_ms": "ms",
    "hide.hit_rate": "ratio",
    "submsgs.seen_hit_rate": "ratio",
    "goodruns.stages_run": "count",
    "goodruns.stages_skipped": "count",
    "goodruns.bodies_evaluated": "count",
    "vector_eval.truth_bits_ms": "ms",
    "vector_eval.hit_rate": "ratio",
    "evaluator.evaluate_calls": "count",
    "evaluator.trace_ms": "ms",
    "certify.ms": "ms",
    "analysis.analyze_ms": "ms",
    "serve.execute_ms": "ms",
    "serve.outside_ms": "ms",
    "serve.batched_share": "ratio",
    "serve.rejected": "count",
    "serve.timeouts": "count",
    "serve.connections_reused_share": "ratio",
    "serve.response_bytes": "bytes",
    "serve.root_spans": "count",
    "perf.counter_increments": "count",
    "runtime.gc_collections": "count",
    "runtime.gc_ms": "ms",
    "trace.unattributed_share": "ratio",
    "trace.overhead_share": "ratio",
}


@dataclass
class TraceTotals:
    """Sums over the traced window's ops (``n`` of them)."""

    n: int = 0
    #: span name -> [calls, self seconds, duration seconds]
    spans: dict[str, list] = field(default_factory=dict)
    #: layer -> busy seconds
    busy: dict[str, float] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    #: Op wall time and the part no layer span covers.
    wall_s: float = 0.0
    unattributed_s: float = 0.0
    #: Layer self time measured outside the tracer (serve's HTTP side).
    outside_s: float = 0.0

    def add_op(self, rows: dict, busy: dict, counts: dict) -> None:
        for name, (calls, self_s, duration) in rows.items():
            total = self.spans.setdefault(name, [0, 0.0, 0.0])
            total[0] += calls
            total[1] += self_s
            total[2] += duration
        for layer, seconds in busy.items():
            self.busy[layer] = self.busy.get(layer, 0.0) + seconds
        for key, value in counts.items():
            self.counts[key] = self.counts.get(key, 0.0) + value

    def calls(self, name: str) -> int:
        return self.spans.get(name, [0, 0.0, 0.0])[0]

    def self_s(self, name: str) -> float:
        return self.spans.get(name, [0, 0.0, 0.0])[1]

    def duration_s(self, name: str) -> float:
        return self.spans.get(name, [0, 0.0, 0.0])[2]


def _rate(counters: dict, layer: str) -> float:
    hits = counters.get(layer + ".hit", 0)
    total = hits + counters.get(layer + ".miss", 0)
    return hits / total if total else 0.0


def layer_table(totals: TraceTotals) -> list[str]:
    """Busy and self time per layer, per op and as a share of op wall."""
    n = max(totals.n, 1)
    wall = totals.wall_s or 1.0
    self_by_layer = {layer: 0.0 for layer in tracer_mod.LAYERS}
    for name, (_calls, self_s, _duration) in totals.spans.items():
        layer = tracer_mod.SPAN_LAYERS.get(name)
        if layer is not None:
            self_by_layer[layer] += self_s
    self_by_layer["serve"] += totals.outside_s
    lines = [f"{'layer':<10} {'self ms/op':>11} {'busy ms/op':>11} "
             f"{'self share':>11}"]
    for layer, self_s in self_by_layer.items():
        busy = totals.busy.get(layer, 0.0)
        if layer == "serve":
            busy += totals.outside_s
        lines.append(f"{layer:<10} {self_s * 1000 / n:>11.4f} "
                     f"{busy * 1000 / n:>11.4f} {self_s / wall:>11.2%}")
    covered = sum(self_by_layer.values()) + totals.unattributed_s
    lines.append(f"{'(none)':<10} {totals.unattributed_s * 1000 / n:>11.4f} "
                 f"{'':>11} {totals.unattributed_s / wall:>11.2%}")
    lines.append(f"{'op wall':<10} {totals.wall_s * 1000 / n:>11.4f} "
                 f"{'':>11} {covered / wall:>11.2%}")
    return lines


def layer_metrics(totals: TraceTotals, gc_collections: int, gc_s: float,
                  overhead_share: float,
                  serve: dict[str, float] | None = None) -> dict[str, float]:
    """The :data:`PER_LAYER` values of one traced window."""
    n = max(totals.n, 1)
    c = totals.counters
    ms = 1000.0 / n
    intern_calls = c.get("intern.hit", 0) + c.get("intern.miss", 0)
    stages = totals.counts.get("goodruns.stages", 0.0)
    values = {
        "terms.intern_calls": intern_calls / n,
        "terms.intern_hit_rate": _rate(c, "intern"),
        "terms.ground_check_ms": totals.self_s("terms.is_ground") * ms,
        "terms.parse_ms": totals.self_s("terms.parse") * ms,
        "axioms.instances": totals.counts.get("axioms.instances", 0.0) / n,
        "axioms.enumerate_ms": totals.self_s("axioms.enumerate") * ms,
        "sweep.points_checked":
            totals.counts.get("sweep.points_checked", 0.0) / n,
        "sweep.self_ms": (totals.self_s("sweep.sweep_system")
                          + totals.self_s("sweep.pool")) * ms,
        "compiler.compile_ms": totals.self_s("compiler.compile") * ms,
        "compiler.systems_compiled": c.get("compiled_eval.system_miss", 0) / n,
        "compiler.truth_bits_ms": totals.self_s("compiler.truth_bits") * ms,
        "compiler.formula_hit_rate": _rate(c, "compiled_eval"),
        "compiler.fallbacks": c.get("compiled_eval.fallback", 0) / n,
        "compiler.belief_groups_ms":
            totals.self_s("compiler.belief_groups") * ms,
        "hide.view_calls": totals.calls("hide.view") / n,
        "hide.views_ms": totals.self_s("hide.view") * ms,
        "hide.hit_rate": _rate(c, "hide"),
        "submsgs.seen_hit_rate": _rate(c, "seen_submsgs"),
        "goodruns.stages_run":
            (stages - c.get("goodruns.stage_skipped", 0)) / n,
        "goodruns.stages_skipped": c.get("goodruns.stage_skipped", 0) / n,
        "goodruns.bodies_evaluated": c.get("goodruns.body_evaluated", 0) / n,
        "vector_eval.truth_bits_ms":
            totals.self_s("vector_eval.truth_bits") * ms,
        "vector_eval.hit_rate": _rate(c, "vector_truth"),
        "evaluator.evaluate_calls": totals.calls("evaluator.evaluate") / n,
        "evaluator.trace_ms": totals.duration_s("evaluator.trace") * ms,
        "certify.ms": totals.busy.get("certify", 0.0) * ms,
        "analysis.analyze_ms": 0.0,
        "serve.execute_ms": 0.0,
        "serve.outside_ms": 0.0,
        "serve.batched_share": 0.0,
        "serve.rejected": 0.0,
        "serve.timeouts": 0.0,
        "serve.connections_reused_share": 0.0,
        "serve.response_bytes": 0.0,
        "serve.root_spans": 0.0,
        "perf.counter_increments": sum(c.values()) / n,
        "runtime.gc_collections": gc_collections / n,
        "runtime.gc_ms": gc_s * ms,
        "trace.unattributed_share":
            totals.unattributed_s / totals.wall_s if totals.wall_s else 0.0,
        "trace.overhead_share": overhead_share,
    }
    if serve:
        values.update(serve)
    assert set(values) == set(PER_LAYER)
    return values


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict[str, float], units: dict[str, str]) -> dict:
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
        },
    }
