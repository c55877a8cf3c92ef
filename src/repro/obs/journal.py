"""The flight recorder: a bounded ring buffer of structured events.

Where :mod:`repro.perf` counts *how often* and :mod:`repro.obs.spans`
times *how long*, the journal remembers *what happened last*: a
bounded, thread-safe ring of structured events (system compilations,
cache evictions, compiler fallbacks, skipped good-runs stages, oracle
verdicts, shard merges) that a failing workload can be debugged from
after the fact.  Fuzz counterexamples attach the tail of their
iteration's journal next to the why-false trace, and ``python -m repro
obs --journal`` dumps a workload's ring as JSONL.

Design points, mirroring ``spans``:

* **Zero dependencies** — stdlib only, importable from anywhere.
* **Bounded by construction** — the ring keeps the last ``capacity``
  events and counts what it dropped; a long-lived process cannot
  accumulate unbounded history (that is the "flight recorder"
  contract: the recent past, always, cheaply).
* **Plain data** — events are dicts (``seq``/``ts``/``kind``/``corr``
  plus free-form attributes), so they pickle, merge across processes,
  and serialize to JSONL without machinery.
* **Process-safe by shipping** — a worker shard records into its
  ephemeral context's journal, whose events travel home in
  ``EngineContext.telemetry()`` with its counters and spans; the
  parent's ``absorb()`` appends them to its own ring.

**Correlation IDs.**  Every event carries ``corr``: the correlation ID
of the context that recorded it (``EngineContext.corr_id``).  The
:func:`correlation` context manager installs an ID on the current
context; ephemeral contexts created with :func:`repro.context.fresh`
inherit the creator's ID, and the parallel sweep ships its ID to
worker shards, so one logical request keeps one ID across threads,
processes, and throwaway contexts.  Span attributes are stamped with
the same ID (see :func:`repro.obs.spans.span`), which is the
per-request provenance contract the future ``repro.serve`` daemon
builds on: one ``corr`` selects a request's events, spans, and
counterexamples out of any merged stream.
"""

from __future__ import annotations

import json
import threading
import time
import uuid
from collections import deque
from contextlib import contextmanager
from typing import Any, Iterable, Iterator, Mapping

from repro import context as _context

#: Default ring capacity.  Sized for "the recent past of one session":
#: big enough that a fuzz campaign's last iterations or a sweep's shard
#: merges are all present, small enough to be ignorable memory.
DEFAULT_CAPACITY = 4096


class Journal:
    """A bounded ring buffer of structured events, safe across threads."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError(f"journal capacity must be positive, got {capacity}")
        self.capacity = capacity
        #: Recording switch: a ``False`` here makes :meth:`record` a
        #: no-op (the overhead-guard baseline and a lever a hot serving
        #: loop can pull without unwiring call sites).
        self.enabled = True
        self._lock = threading.Lock()
        self._ring: deque[dict[str, Any]] = deque(maxlen=capacity)
        self._seq = 0
        self._dropped = 0

    # -- recording -----------------------------------------------------------

    def record(self, kind: str, corr: str | None = None, **attrs: Any) -> None:
        """Append one event (``kind`` plus free-form attributes)."""
        if not self.enabled:
            return
        event: dict[str, Any] = {
            "seq": 0,  # assigned under the lock
            "ts": round(time.time(), 6),
            "kind": kind,
            "corr": corr,
        }
        if attrs:
            event["attrs"] = attrs
        with self._lock:
            self._seq += 1
            event["seq"] = self._seq
            if len(self._ring) == self.capacity:
                self._dropped += 1
            self._ring.append(event)

    # -- transport (the parallel-sweep contract) ------------------------------

    def mark(self) -> int:
        """A position in the event stream; pair with :meth:`delta_since`.

        Positions are sequence numbers, not buffer indices, so a mark
        stays meaningful even after the ring wraps past it.
        """
        with self._lock:
            return self._seq

    def delta_since(self, mark: int) -> list[dict[str, Any]]:
        """Every *retained* event recorded after ``mark``, as plain data.

        Events that wrapped out of the ring between ``mark`` and now are
        gone — by design; :attr:`dropped` keeps the honest count.
        """
        with self._lock:
            return [
                dict(event) for event in self._ring if event["seq"] > mark
            ]

    def merge(self, events: Iterable[Mapping[str, Any]]) -> None:
        """Fold another context's journal delta into this ring.

        Merged events keep their original ``seq``/``ts``/``corr`` — the
        correlation ID, not the local sequence, is what ties a merged
        stream back to its origin.
        """
        with self._lock:
            for event in events:
                if len(self._ring) == self.capacity:
                    self._dropped += 1
                self._ring.append(dict(event))

    # -- views ----------------------------------------------------------------

    def snapshot(self) -> tuple[dict[str, Any], ...]:
        with self._lock:
            return tuple(dict(event) for event in self._ring)

    def tail(self, n: int) -> list[dict[str, Any]]:
        """The last ``n`` events (most recent last), as plain data."""
        if n <= 0:
            return []
        with self._lock:
            events = list(self._ring)[-n:]
        return [dict(event) for event in events]

    @property
    def dropped(self) -> int:
        """How many events the ring has discarded (overwrite + merge)."""
        with self._lock:
            return self._dropped

    def depth(self) -> dict[str, int]:
        """Retained events, drop count and capacity (the ``journal``
        section of a unified snapshot)."""
        with self._lock:
            return {"events": len(self._ring), "dropped": self._dropped,
                    "capacity": self.capacity}

    def reset(self) -> None:
        with self._lock:
            self._ring.clear()
            self._dropped = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def write_jsonl(self, path: str) -> int:
        """Dump the ring as JSONL (one event per line); returns count."""
        events = self.snapshot()
        with open(path, "w", encoding="utf-8") as handle:
            for event in events:
                handle.write(json.dumps(event, sort_keys=True) + "\n")
        return len(events)


#: The module-level functions below delegate to the *current engine
#: context's* journal, mirroring ``spans`` and ``perf.count``: one
#: shared ring per process by default, a private ring per session when
#: a workload runs under :func:`repro.context.use`.


def journal() -> Journal:
    return _context.current().journal


def record(kind: str, **attrs: Any) -> None:
    """Record one event, stamped with the current correlation ID."""
    ctx = _context.current()
    ctx.journal.record(kind, corr=ctx.corr_id, **attrs)


def tail(n: int) -> list[dict[str, Any]]:
    return journal().tail(n)


def snapshot() -> tuple[dict[str, Any], ...]:
    return journal().snapshot()


def write_jsonl(path: str) -> int:
    return journal().write_jsonl(path)


# -- correlation IDs ----------------------------------------------------------


def correlation_id() -> str | None:
    """The current context's correlation ID (None when unset)."""
    return _context.current().corr_id


def new_corr_id(prefix: str = "req") -> str:
    """A fresh, globally-unique correlation ID.

    Deterministic workloads (the fuzzer, tests) should build their own
    IDs from their seeds instead, so reports stay bit-reproducible.
    """
    return f"{prefix}-{uuid.uuid4().hex[:12]}"


@contextmanager
def correlation(corr_id: str) -> Iterator[str]:
    """Install ``corr_id`` on the current context for the duration.

    Journal events and span attributes recorded inside the block carry
    the ID; the previous ID (usually None) is restored on exit, even
    across exceptions.
    """
    ctx = _context.current()
    previous = ctx.corr_id
    ctx.corr_id = corr_id
    try:
        yield corr_id
    finally:
        ctx.corr_id = previous
