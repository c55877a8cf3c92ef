"""Wall-clock spans: the timing half of the observability layer.

Where :mod:`repro.perf` answers "how often did each cache hit?", this
module answers "where did the time go?".  A *span* is one named,
monotonic-clock-timed region of work (``with spans.span("sweep.schema",
schema="A1"): ...``); completed spans land in the current engine
context's buffer (:mod:`repro.context`) as plain dicts, so they merge
across contexts and serialize to JSONL without any machinery.

Design points, mirroring ``perf``:

* **Zero dependencies** — stdlib only, importable from anywhere.
* **Thread-safe** — buffer appends take a lock; the timing itself is
  lock-free (``time.perf_counter`` before/after).
* **Shipped, not shared** — a fuzz iteration or serve request records
  spans into its ephemeral context's buffer, which travels home as
  plain data in ``EngineContext.telemetry()``; the parent's
  ``absorb()`` appends it.  A unit of work never slices a shared
  buffer: its own context's buffer is its whole story.
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
what makes the telemetry hand-off lossless (below the capacity).
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from contextlib import contextmanager
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
        self.dropped = 0

    def _append(self, sample: dict[str, Any]) -> None:
        """Append under the lock, dropping (and counting) the oldest."""
        if len(self._buffer) == CAPACITY:
            self.dropped += 1
        self._buffer.append(sample)

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

    # -- transport (the telemetry hand-off contract) --------------------------

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

    def summary(self) -> dict[str, dict[str, Any]]:
        """Per-name count/total/min/max/p50/p95/p99, from the buffer."""
        return summarize(self.snapshot())


def percentile(durations: list[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty, *sorted* duration list."""
    if not durations:
        raise ValueError("percentile of an empty sample set")
    rank = max(1, math.ceil(q / 100.0 * len(durations)))
    return durations[rank - 1]


def summarize(
    samples: Iterable[Mapping[str, Any]],
) -> dict[str, dict[str, Any]]:
    """Reduce raw span samples to per-name timing statistics."""
    by_name: dict[str, list[float]] = {}
    for sample in samples:
        by_name.setdefault(sample["name"], []).append(sample["seconds"])
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
    counterexamples and the serve daemon rely on.
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


def snapshot() -> tuple[dict[str, Any], ...]:
    return recorder().snapshot()


def reset() -> None:
    recorder().reset()


def summary() -> dict[str, dict[str, Any]]:
    return recorder().summary()
