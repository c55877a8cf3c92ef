"""Performance counters and cache registry for the hot paths.

Every memoization layer in the library — the term intern tables
(:mod:`repro.terms.intern`), the structural-operation memos
(:mod:`repro.terms.ops`), the ``hide`` view memo
(:mod:`repro.semantics.hide`), the ``seen_submsgs`` memo
(:mod:`repro.model.submsgs`), and the evaluator's truth memo
(:mod:`repro.semantics.evaluator`) — reports hits and misses here, so
that one snapshot shows where a workload's time is going and whether
the caches are actually earning their keep.

The module sits near the bottom of the stack (it depends only on
:mod:`repro.context`) and the counters are plain dict increments:
cheap enough to leave on permanently.

Counter *storage* is the flat ``"layer.event" -> int`` dict
:attr:`repro.context.EngineContext.counters` of the current context —
the library's one counter model; two workloads under separate contexts
keep disjoint tables — while this module stays the one API every layer
writes through.  Read a table directly (``context.current().counters``)
and move it between contexts with ``EngineContext.telemetry()`` /
``absorb()``.

Usage::

    from repro import perf
    perf.reset_counters()
    ...  # run a workload
    print(perf.hit_rates())

``cache_sizes()`` reports every registered cache's entry count.  A
context is the unit of cache lifetime: a workload that wants cold
caches runs in a fresh one.
"""

from __future__ import annotations

from typing import Any, Callable

from repro import context as _context


#: Registered cache-size probes, keyed by cache name.  The registry
#: itself is process-global — a layer registers once at import — but
#: each probe resolves the current context's table at call time, so
#: sizing always acts on the active session.
_cache_sizers: dict[str, Callable[[], int]] = {}


def count(event: str, n: int = 1) -> None:
    """Increment a counter (creates it on first use)."""
    table = _context.current().counters
    table[event] = table.get(event, 0) + n


def reset_counters() -> None:
    """Zero every counter (of the current context) without touching the
    caches themselves."""
    _context.current().counters.clear()


def register_cache(name: str, sizer: Callable[[], int]) -> None:
    """Register a cache so ``cache_sizes`` can see it."""
    _cache_sizers[name] = sizer


def cache_sizes() -> dict[str, int]:
    """Current entry count of every registered cache."""
    return {name: sizer() for name, sizer in _cache_sizers.items()}


def observe_cache_peaks() -> dict[str, int]:
    """Max the current cache sizes into the context's high-water marks.

    Several cache layers (notably ``eval_memo``) are registered through
    *weak* references: when their owner dies, the sizer honestly reports
    0, so an end-of-workload ``cache_sizes()`` under-reports the real
    footprint.  Workloads call this at their peaks (the sweep does, per
    system); :func:`snapshot` reports the marks alongside the live
    sizes.
    """
    ctx = _context.current()
    ctx.absorb({"cache_peaks": cache_sizes()})
    return dict(ctx.cache_peaks)


def snapshot() -> dict[str, Any]:
    """Counters, cache sizes, peaks, and hit rates, as one plain dict."""
    observe_cache_peaks()
    return {
        "counters": dict(_context.current().counters),
        "cache_sizes": cache_sizes(),
        "cache_peaks": dict(_context.current().cache_peaks),
        "hit_rates": hit_rates(),
    }


def hit_rates() -> dict[str, float]:
    """Hit rate per layer, from paired ``<layer>.hit``/``<layer>.miss``.

    Layers are derived from *both* suffixes: a cold cache that recorded
    only misses still appears (at rate 0.0).
    """
    table = _context.current().counters
    rates: dict[str, float] = {}
    layers = {
        event.rsplit(".", 1)[0]
        for event in table
        if event.endswith((".hit", ".miss"))
    }
    for layer in layers:
        hits = table.get(layer + ".hit", 0)
        misses = table.get(layer + ".miss", 0)
        total = hits + misses
        if total:
            rates[layer] = hits / total
    return rates
