"""One unified telemetry snapshot and its two exporters.

The engine measures itself three ways — the flat ``"layer.event" ->
int`` counter table on the :class:`~repro.context.EngineContext`
(written through :mod:`repro.perf`; the library's only counter model),
wall-clock spans (:mod:`repro.obs.spans`), and the flight-recorder
journal (:mod:`repro.obs.journal`).  This module folds them into one
document and renders it:

* :func:`unified_snapshot` — one plain dict covering the perf counters
  / cache sizes / peaks / hit-rates, the span percentiles and the span
  buffer's drop count, and the journal's depth (what ``/metrics`` of
  ``repro serve`` and ``python -m repro obs`` export).

* :func:`to_prometheus` / :func:`to_json` — render a unified snapshot
  as Prometheus exposition text (``# HELP``/``# TYPE`` + samples, span
  summaries as ``quantile`` samples) or as a JSON document.  Both are
  pure functions of the snapshot, so exports are testable
  byte-for-byte.

Stdlib only, like the rest of the observability layer.
"""

from __future__ import annotations

import json
import math
import re
from typing import Any, Mapping

from repro import context as _context


# -- the unified snapshot ------------------------------------------------------


def unified_snapshot(meta: Mapping[str, Any] | None = None) -> dict[str, Any]:
    """Everything the current context knows about itself, in one dict.

    Sections: ``perf`` (counters, cache sizes, peaks, hit rates —
    :func:`repro.perf.snapshot`), ``spans`` (per-name percentiles),
    ``spans_dropped`` (spans the bounded buffer discarded), ``journal``
    (ring depth and drop count), and optionally ``meta`` (a
    caller-supplied :func:`repro.obs.runmeta.run_metadata`
    fingerprint).  This is the input contract of :func:`to_prometheus`
    / :func:`to_json`.
    """
    from repro import perf
    from repro.obs import spans

    snapshot: dict[str, Any] = {
        "perf": perf.snapshot(),
        "spans": spans.summary(),
        "spans_dropped": spans.recorder().dropped,
        "journal": _context.current().journal.depth(),
    }
    if meta is not None:
        snapshot["meta"] = dict(meta)
    return snapshot


# -- exporters ------------------------------------------------------------------

_LABEL_FIX = re.compile(r"[^a-zA-Z0-9_]")


def _escape(value: Any) -> str:
    return (
        str(value)
        .replace("\\", r"\\")
        .replace('"', r'\"')
        .replace("\n", r"\n")
    )


def _labels_text(labels: Mapping[str, Any]) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{_LABEL_FIX.sub("_", str(k))}="{_escape(v)}"'
        for k, v in sorted(labels.items())
    )
    return "{" + body + "}"


def _value_text(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    value = float(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _family_lines(name: str, kind: str, help_text: str,
                  samples: list[tuple[str, Mapping[str, Any], Any]]) -> list[str]:
    """``# HELP``/``# TYPE`` plus one line per (suffix, labels, value)."""
    lines = [f"# HELP {name} {_escape(help_text)}", f"# TYPE {name} {kind}"]
    for suffix, labels, value in samples:
        lines.append(
            f"{name}{suffix}{_labels_text(labels)} {_value_text(value)}"
        )
    return lines


def to_prometheus(snapshot: Mapping[str, Any]) -> str:
    """Render a unified snapshot in Prometheus text exposition format.

    Deterministic: families and samples are emitted in sorted order, so
    the same snapshot always renders the same bytes (golden-tested).
    """
    lines: list[str] = []

    meta = snapshot.get("meta")
    if meta:
        info_labels = {
            k: v for k, v in meta.items()
            if isinstance(v, (str, int, float, bool)) and v is not None
        }
        lines += _family_lines(
            "repro_build_info", "gauge",
            "Run fingerprint (git SHA, interpreter, platform).",
            [("", info_labels, 1)],
        )

    perf_section = snapshot.get("perf", {})
    counters = perf_section.get("counters", {})
    if counters:
        lines += _family_lines(
            "repro_perf_events_total", "counter",
            "Flat perf counter table (layer.event increments).",
            [("", {"event": event}, counters[event])
             for event in sorted(counters)],
        )
    hit_rates = perf_section.get("hit_rates", {})
    if hit_rates:
        lines += _family_lines(
            "repro_cache_hit_ratio", "gauge",
            "Cache hit rate per layer (hits / (hits + misses)).",
            [("", {"layer": layer}, hit_rates[layer])
             for layer in sorted(hit_rates)],
        )
    sizes = perf_section.get("cache_sizes", {})
    if sizes:
        lines += _family_lines(
            "repro_cache_entries", "gauge",
            "Live entry count of each registered cache.",
            [("", {"cache": name}, sizes[name]) for name in sorted(sizes)],
        )
    peaks = perf_section.get("cache_peaks", {})
    if peaks:
        lines += _family_lines(
            "repro_cache_peak_entries", "gauge",
            "High-water mark of each registered cache.",
            [("", {"cache": name}, peaks[name]) for name in sorted(peaks)],
        )

    span_summary = snapshot.get("spans", {})
    if span_summary:
        samples: list[tuple[str, Mapping[str, Any], Any]] = []
        for span_name in sorted(span_summary):
            row = span_summary[span_name]
            for quantile, key in (("0.5", "p50_s"), ("0.95", "p95_s"),
                                  ("0.99", "p99_s")):
                samples.append(
                    ("", {"span": span_name, "quantile": quantile}, row[key])
                )
            samples.append(("_sum", {"span": span_name}, row["total_s"]))
            samples.append(("_count", {"span": span_name}, row["count"]))
        lines += _family_lines(
            "repro_span_duration_seconds", "summary",
            "Wall-clock span percentiles (nearest-rank).",
            samples,
        )
    if "spans_dropped" in snapshot:
        lines += _family_lines(
            "repro_spans_dropped_total", "counter",
            "Spans discarded by the bounded span buffer.",
            [("", {}, snapshot["spans_dropped"])],
        )

    journal_section = snapshot.get("journal")
    if journal_section:
        lines += _family_lines(
            "repro_journal_events", "gauge",
            "Events currently retained in the flight-recorder ring.",
            [("", {}, journal_section["events"])],
        )
        lines += _family_lines(
            "repro_journal_dropped_total", "counter",
            "Events discarded by the bounded ring.",
            [("", {}, journal_section["dropped"])],
        )
        lines += _family_lines(
            "repro_journal_capacity", "gauge",
            "Flight-recorder ring capacity.",
            [("", {}, journal_section["capacity"])],
        )

    return "\n".join(lines) + "\n"


def to_json(snapshot: Mapping[str, Any]) -> str:
    """Render a unified snapshot as a stable JSON document."""
    return json.dumps(snapshot, indent=2, sort_keys=True) + "\n"
