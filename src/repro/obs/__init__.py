"""Observability: spans, the unified snapshot, journal, traces, metadata.

Five layers around the one counter model — the flat ``"layer.event"
-> int`` table on each :class:`~repro.context.EngineContext`, written
through :mod:`repro.perf`:

* :mod:`repro.obs.spans` — named wall-clock spans with percentile
  summaries; buffered per context, shipped across worker processes in
  ``EngineContext.telemetry()`` and absorbed losslessly (the ``spans``
  section of ``BENCH_sweep.json``);
* :mod:`repro.obs.metrics` — the *unified snapshot* that folds perf
  counters, cache peaks/hit-rates, span percentiles, and journal depth
  into one document, with Prometheus and JSON exporters (``python -m
  repro obs``, the daemon's ``/metrics``);
* :mod:`repro.obs.journal` — the flight recorder: a bounded ring of
  structured events (compilations, cache evictions, fallbacks, stage
  skips, oracle verdicts, shard merges) carrying correlation IDs that
  survive process boundaries; fuzz counterexamples attach its tail;
* :mod:`repro.obs.trace` — the opt-in evaluation tracer: the full
  "why-false" proof tree behind any verdict of the Section 6 truth
  definition, renderable or emitted as JSONL (``python -m repro
  trace``);
* :mod:`repro.obs.runmeta` — git SHA / interpreter / platform
  fingerprints embedded in benchmark and fuzz reports so trajectories
  are attributable across machines.
"""

from repro.obs import journal, metrics, spans
from repro.obs.runmeta import git_sha, run_metadata
from repro.obs.trace import (
    TraceNode,
    Tracer,
    render_why,
    trace_evaluation,
    trace_records,
)

__all__ = [
    "journal",
    "metrics",
    "spans",
    "git_sha",
    "run_metadata",
    "TraceNode",
    "Tracer",
    "render_why",
    "trace_evaluation",
    "trace_records",
]
