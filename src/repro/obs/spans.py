"""Wall-clock spans: the timing half of the observability layer.

Where :mod:`repro.perf` answers "how often did each cache hit?", this
module answers "where did the time go?".  A *span* is one named,
monotonic-clock-timed region of work (``with spans.span("sweep.schema",
schema="A1"): ...``); completed spans land in the current engine
context's buffer (:mod:`repro.context`) as plain dicts, so they pickle,
merge across processes, and serialize to JSONL without any machinery.

Design points, mirroring ``perf``:

* **Zero dependencies** — stdlib only, importable from anywhere.
* **Thread-safe** — buffer appends take a lock; the timing itself is
  lock-free (``time.perf_counter`` before/after).
* **Process-safe by shipping** — a worker records spans into its
  ephemeral context's buffer, which travels home as plain data in
  ``EngineContext.telemetry()``; the parent's ``absorb()`` appends it.
* **Coarse-grained by convention** — spans wrap phases (a schema sweep,
  a good-runs stage, a fuzz iteration), not individual ``_eval`` calls;
  buffers stay small and summaries stay meaningful.  The per-formula
  story belongs to :mod:`repro.obs.trace`.
* **Bounded by construction** — like the journal's ring, the buffer
  keeps the newest :data:`CAPACITY` spans and counts the ones it
  dropped, so a long-lived process that absorbs every request's spans
  (the serve daemon's root context) holds a fixed amount of them.

``summary()`` reduces the buffer to per-name count/total/min/max plus
p50/p95/p99 percentiles (nearest-rank).  It is a derived view — the
buffer of raw samples remains the single source of truth, which is
what makes the parallel-sweep merge lossless (below the capacity).
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from contextlib import contextmanager
from itertools import islice
from typing import Any, Iterable, Iterator, Mapping

from repro import context as _context

#: Spans a recorder retains.  Sized so one seeded fuzz campaign (the
#: all-family, 200-iteration CI run records ~3,000) stays whole.
CAPACITY = 4096


class SpanRecorder:
    """A bounded buffer of completed spans, safe to share across threads.

    Past :data:`CAPACITY` the oldest spans are dropped first and counted
    in :attr:`dropped`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._buffer: deque[dict[str, Any]] = deque(maxlen=CAPACITY)
        #: Spans ever appended: the sequence number of the newest one.
        self._seq = 0
        self.dropped = 0

    def _append(self, sample: dict[str, Any]) -> None:
        """Append under the lock, dropping (and counting) the oldest."""
        if len(self._buffer) == CAPACITY:
            self.dropped += 1
        self._buffer.append(sample)
        self._seq += 1

    # -- recording -----------------------------------------------------------

    def record(self, name: str, seconds: float, **attrs: Any) -> None:
        """Append one completed span (``seconds`` of wall-clock time)."""
        sample: dict[str, Any] = {"name": name, "seconds": seconds}
        if attrs:
            sample["attrs"] = attrs
        with self._lock:
            self._append(sample)

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[dict[str, Any]]:
        """Time a region of work on the monotonic clock.

        Yields the (mutable) attribute dict, so callers can attach
        results that only exist once the work is done::

            with spans.span("goodruns.stage", depth=j) as attrs:
                ...
                attrs["survivors"] = count
        """
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            self.record(name, time.perf_counter() - start, **attrs)

    def event(self, name: str, **attrs: Any) -> None:
        """Record a zero-duration marker (a point event)."""
        self.record(name, 0.0, **attrs)

    # -- transport (the parallel-sweep contract) ------------------------------

    def mark(self) -> int:
        """A sequence number; pair with :meth:`delta_since`.

        Sequence numbers, not buffer indices, so a mark stays meaningful
        after the buffer drops spans from its front.
        """
        with self._lock:
            return self._seq

    def delta_since(self, mark: int) -> list[dict[str, Any]]:
        """Every *retained* span recorded after ``mark``, as plain
        picklable data (spans dropped since are gone)."""
        with self._lock:
            newer = min(self._seq - mark, len(self._buffer))
            start = len(self._buffer) - newer
            return [dict(sample) for sample in islice(self._buffer, start, None)]

    def merge(self, samples: Iterable[Mapping[str, Any]]) -> None:
        """Append another context's span samples (copied) to this buffer."""
        with self._lock:
            for sample in samples:
                self._append(dict(sample))

    # -- views ----------------------------------------------------------------

    def snapshot(self) -> tuple[dict[str, Any], ...]:
        with self._lock:
            return tuple(dict(sample) for sample in self._buffer)

    def reset(self) -> None:
        with self._lock:
            self._buffer.clear()
            self.dropped = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._buffer)

    def summary(self, group_by: str | None = None) -> dict[str, dict[str, Any]]:
        """Per-name count/total/min/max/p50/p95/p99, from the buffer.

        With ``group_by`` set to an attribute name, samples carrying
        that attribute split into per-value rows keyed
        ``name{attr=value}`` (e.g. ``goodruns.stage`` by ``depth`` or
        ``engine``); samples without the attribute keep their plain
        name — no more manual post-filtering of the raw buffer.
        """
        return summarize(self.snapshot(), group_by=group_by)

    def render(self, group_by: str | None = None) -> str:
        """Human-readable span table (the ``perf`` CLI companion)."""
        summary = self.summary(group_by=group_by)
        width = max([26] + [len(name) for name in summary])
        header = (
            f"{'span':<{width}} {'count':>6} {'total_s':>9} {'p50_s':>9} "
            f"{'p95_s':>9} {'p99_s':>9} {'max_s':>9}"
        )
        lines = [header, "-" * len(header)]
        for name in sorted(summary):
            row = summary[name]
            lines.append(
                f"{name:<{width}} {row['count']:>6} {row['total_s']:>9.4f} "
                f"{row['p50_s']:>9.4f} {row['p95_s']:>9.4f} "
                f"{row['p99_s']:>9.4f} {row['max_s']:>9.4f}"
            )
        return "\n".join(lines)


def percentile(durations: list[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty, *sorted* duration list."""
    if not durations:
        raise ValueError("percentile of an empty sample set")
    rank = max(1, math.ceil(q / 100.0 * len(durations)))
    return durations[rank - 1]


def summarize(
    samples: Iterable[Mapping[str, Any]],
    group_by: str | None = None,
) -> dict[str, dict[str, Any]]:
    """Reduce raw span samples to per-name timing statistics.

    ``group_by`` names a span attribute: samples carrying it are keyed
    ``name{attr=value}`` instead of plain ``name``, yielding per-stage
    or per-engine rows directly from the buffer.
    """
    by_name: dict[str, list[float]] = {}
    for sample in samples:
        key = sample["name"]
        if group_by is not None:
            attrs = sample.get("attrs") or {}
            if group_by in attrs:
                key = f"{key}{{{group_by}={attrs[group_by]}}}"
        by_name.setdefault(key, []).append(sample["seconds"])
    out: dict[str, dict[str, Any]] = {}
    for name, durations in by_name.items():
        durations.sort()
        out[name] = {
            "count": len(durations),
            "total_s": round(sum(durations), 6),
            "min_s": round(durations[0], 6),
            "max_s": round(durations[-1], 6),
            "p50_s": round(percentile(durations, 50), 6),
            "p95_s": round(percentile(durations, 95), 6),
            "p99_s": round(percentile(durations, 99), 6),
        }
    return out


#: The module-level functions below delegate to the *current engine
#: context's* recorder, mirroring ``perf.count``: one shared buffer
#: per process by default (the default context), a private buffer per
#: session when a workload runs under :func:`repro.context.use`.


def recorder() -> SpanRecorder:
    return _context.current().spans


def _stamp_corr(attrs: dict[str, Any]) -> dict[str, Any]:
    """Attach the current correlation ID (if any) to span attributes.

    The same ID lands on journal events (:mod:`repro.obs.journal`), so
    one ``corr`` value selects a request's spans *and* events out of
    any merged telemetry stream — the provenance contract fuzz
    counterexamples and the future serve daemon rely on.
    """
    corr = _context.current().corr_id
    if corr is not None:
        attrs.setdefault("corr", corr)
    return attrs


def span(name: str, **attrs: Any):
    return recorder().span(name, **_stamp_corr(attrs))


def record(name: str, seconds: float, **attrs: Any) -> None:
    recorder().record(name, seconds, **_stamp_corr(attrs))


def event(name: str, **attrs: Any) -> None:
    recorder().event(name, **_stamp_corr(attrs))


def mark() -> int:
    return recorder().mark()


def delta_since(position: int) -> list[dict[str, Any]]:
    return recorder().delta_since(position)


def snapshot() -> tuple[dict[str, Any], ...]:
    return recorder().snapshot()


def reset() -> None:
    recorder().reset()


def summary(group_by: str | None = None) -> dict[str, dict[str, Any]]:
    return recorder().summary(group_by=group_by)


def render(group_by: str | None = None) -> str:
    return recorder().render(group_by=group_by)

