"""Engine contexts: explicit ownership of every piece of session state.

Historically each stateful layer of the library was a process-global
singleton — the term intern table (:mod:`repro.terms.intern`), the
``hide`` and ``seen_submsgs`` memo dicts (:mod:`repro.semantics.hide`,
:mod:`repro.model.submsgs`), the perf counter table
(:mod:`repro.perf`), the span buffer (:mod:`repro.obs.spans`), and the
registry of live evaluator memos (:mod:`repro.semantics.evaluator`).
Two concurrent workloads in one process therefore bled counters, spans,
and cache contents into each other, and the fuzzer's cold-cache oracle
had to snapshot/restore the intern table by hand.

An :class:`EngineContext` *owns* all of that state instead.  Exactly
one context is *current* at any moment (a :mod:`contextvars` variable,
so the notion is async- and thread-correct); every layer resolves its
table through :func:`current` at use time.  A process-default context
(:data:`DEFAULT`) preserves the old behaviour for every existing call
site: code that never mentions contexts still shares one set of tables
per process, exactly as before.

The theory-level analogue is Halpern–van der Meyden–Pucella's point
about the Abadi–Tuttle semantics: the interpretation must be
relativized to an explicit context rather than left ambient.  Here the
"interpretation" is the engine's mutable state, and the payoffs are
operational:

* **Isolation** — two sweeps or fuzz campaigns under separate contexts
  share no counters, spans, or cache entries (per-iteration contexts
  in the fuzzer, per-request contexts in the daemon).
* **Memory bounds** — an ephemeral context is dropped wholesale when
  its workload ends, its intern table and memos carry an entry cap with
  wholesale-clear eviction (:func:`evict`), and the span buffer and the
  journal are rings that drop (and count) their oldest entries, so a
  long-lived serving process — whose root context absorbs every
  request's telemetry — cannot accumulate unbounded state.
* **Honest telemetry** — a fuzz iteration or a serve request runs in a
  fresh context and ships the *whole* context's
  :meth:`EngineContext.telemetry` home for the parent to
  :meth:`EngineContext.absorb`.  That is the one way a unit of work
  reports what it did: nothing reads a delta off a shared table, span
  buffer or journal.

Cross-context terms stay correct by construction: canonical instances
are per-context, but term ``__eq__``/``__hash__`` fall back to
structural comparison for non-canonical instances
(:mod:`repro.terms.base`), and pickling rebuilds terms through their
constructors, re-interning them into the *receiving* context's table.
The structural-op memos of :mod:`repro.terms.ops` (``_submsgs``,
``_free_params``, ``_size``, ``_depth``) live on the interned nodes
themselves and are context-independent structural facts; they are owned
transitively — they die with the context whose intern table kept their
node alive.

Semantics backends are not session state: the two built-ins are a
fixed pair resolved by :func:`repro.semantics.backend.get_backend`.

The module sits at the very bottom of the import stack (stdlib only;
the span recorder class is imported lazily) so every layer can depend
on it.
"""

from __future__ import annotations

import contextvars
import threading
import weakref
from typing import Any, Mapping

#: Default entry cap for the intern table and each context-owned memo
#: dict.  On overflow the table is cleared wholesale (:func:`evict`).
DEFAULT_MEMO_CAP = 1 << 17

_NAME_LOCK = threading.Lock()
_NAME_COUNTER = [0]


def _next_name(prefix: str) -> str:
    with _NAME_LOCK:
        _NAME_COUNTER[0] += 1
        return f"{prefix}-{_NAME_COUNTER[0]}"


def evict(table: dict, layer: str, cap: int) -> None:
    """The one eviction policy of context-owned tables: clear ``table``
    (full at ``cap``) wholesale, count ``<layer>.evict`` and journal a
    ``cache_evict`` event.  Crude, but O(1) amortized and free of LRU
    bookkeeping on the hot path; the entries are cheap to rebuild."""
    ctx = current()
    counters = ctx.counters
    event = layer + ".evict"
    counters[event] = counters.get(event, 0) + 1
    ctx.journal.record(
        "cache_evict", corr=ctx.corr_id,
        layer=layer, entries=len(table), cap=cap,
    )
    table.clear()


class BoundedMemo(dict):
    """A memo dict with an entry cap and wholesale-clear eviction.

    The pre-context memos (``_HIDE_MEMO``, ``_SEEN_MEMO``) held strong
    references to terms forever.  A bounded memo instead goes through
    :func:`evict` when an insert would exceed ``cap``.
    """

    __slots__ = ("layer", "cap")

    def __init__(self, layer: str, cap: int = DEFAULT_MEMO_CAP) -> None:
        super().__init__()
        self.layer = layer
        self.cap = cap

    def __setitem__(self, key: Any, value: Any) -> None:
        if len(self) >= self.cap and key not in self:
            evict(self, self.layer, self.cap)
        super().__setitem__(key, value)

    def __reduce__(self):  # pragma: no cover - memos are never shipped
        raise TypeError("BoundedMemo is context-owned state; do not pickle it")


class EngineContext:
    """One session's worth of engine state.

    Owns, per instance:

    * ``intern_table`` — the canonical-term table, a capped plain dict
      (:mod:`repro.terms.intern` resolves it via :func:`current`);
    * ``hide_memo`` / ``seen_memo`` — the semantic-kernel memos, entry
      capped (:class:`BoundedMemo`);
    * ``counters`` — the flat perf counter table (``repro.perf``
      reads and writes the current context's);
    * ``spans`` — the wall-clock span buffer
      (:class:`repro.obs.spans.SpanRecorder`), created lazily;
    * ``journal`` — the bounded flight-recorder ring buffer
      (:class:`repro.obs.journal.Journal`), created lazily;
    * ``corr_id`` — the session's correlation ID (stamped onto journal
      events and span attributes; the per-request ID a serving layer
      threads through ephemeral contexts);
    * ``evaluators`` — the weak registry of live
      :class:`~repro.semantics.evaluator.Evaluator` instances, so
      ``perf.cache_sizes()`` can reach their per-instance truth memos.

    Contexts are cheap: creating one allocates a handful of empty
    containers, which is what makes per-iteration and per-request
    ephemeral contexts viable.
    """

    __slots__ = (
        "name",
        "memo_cap",
        "corr_id",
        "intern_table",
        "hide_memo",
        "seen_memo",
        "counters",
        "evaluators",
        "compiled_systems",
        "cache_peaks",
        "_spans",
        "_journal",
        "__weakref__",
    )

    def __init__(self, name: str | None = None,
                 memo_cap: int = DEFAULT_MEMO_CAP,
                 corr_id: str | None = None) -> None:
        self.name = name if name is not None else _next_name("ctx")
        self.memo_cap = memo_cap
        self.corr_id = corr_id
        self.intern_table: dict[tuple, Any] = {}
        self.hide_memo = BoundedMemo("hide", memo_cap)
        self.seen_memo = BoundedMemo("seen_submsgs", memo_cap)
        self.counters: dict[str, int] = {}
        self.evaluators: "weakref.WeakSet" = weakref.WeakSet()
        # Compiled-system cache (repro.semantics.compiler): holds systems
        # strongly, so the cap is deliberately small — a session works a
        # handful of systems at a time, not thousands.
        self.compiled_systems = BoundedMemo("compiled_systems", min(memo_cap, 256))
        # High-water marks of the registered perf caches, maxed in by
        # perf.observe_cache_peaks(); survives the caches themselves
        # dying (weakly-registered evaluator memos) or being evicted.
        self.cache_peaks: dict[str, int] = {}
        self._spans = None
        self._journal = None

    # -- lazily-built members --------------------------------------------------

    @property
    def spans(self):
        """The context's span recorder (built on first use).

        Lazy for two reasons: contexts stay stdlib-cheap to construct,
        and the import of :mod:`repro.obs.spans` (which itself imports
        this module) is deferred past both modules' initialization.
        """
        recorder = self._spans
        if recorder is None:
            from repro.obs.spans import SpanRecorder

            recorder = SpanRecorder()
            self._spans = recorder
        return recorder

    @property
    def journal(self):
        """The context's flight-recorder ring buffer (built on first use).

        Lazy for the same reasons as :attr:`spans`: contexts stay
        stdlib-cheap to construct, and the :mod:`repro.obs.journal`
        import (which itself imports this module) is deferred past both
        modules' initialization.
        """
        ring = self._journal
        if ring is None:
            from repro.obs.journal import Journal

            ring = Journal()
            self._journal = ring
        return ring

    # -- telemetry transport ---------------------------------------------------

    def telemetry(self) -> dict[str, Any]:
        """Everything observable about this context, as plain picklable data.

        ``counters``, ``spans``, ``journal`` (events) and ``cache_peaks``
        (the current cache sizes are maxed in first).  An ephemeral
        context starts empty, so its whole telemetry *is* the delta a
        fuzz iteration or serve request ships home to the parent's
        :meth:`absorb`.
        """
        from repro import perf

        with use(self):
            perf.observe_cache_peaks()
        spans, ring = self._spans, self._journal
        return {
            "counters": dict(self.counters),
            "spans": [] if spans is None else list(spans.snapshot()),
            "journal": [] if ring is None else list(ring.snapshot()),
            "cache_peaks": dict(self.cache_peaks),
        }

    def absorb(self, telemetry: Mapping[str, Any]) -> None:
        """Merge another context's :meth:`telemetry` into this one.

        Counters add, spans and journal events append, and cache peaks
        take the max.  Cache contents are deliberately *not* merged:
        they are private to their context.  Only the observable
        accounting flows upward.
        """
        counters = self.counters
        for event, n in telemetry.get("counters", {}).items():
            counters[event] = counters.get(event, 0) + n
        if telemetry.get("spans"):
            self.spans.merge(telemetry["spans"])
        if telemetry.get("journal"):
            self.journal.merge(telemetry["journal"])
        peaks = self.cache_peaks
        for name, size in telemetry.get("cache_peaks", {}).items():
            if size > peaks.get(name, 0):
                peaks[name] = size

    # -- bookkeeping -----------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<EngineContext {self.name!r}: intern={len(self.intern_table)} "
            f"hide={len(self.hide_memo)} seen={len(self.seen_memo)} "
            f"counters={len(self.counters)}>"
        )


#: The process-default context: what every call site uses unless a
#: narrower context has been entered with :func:`use`.  Mirrors the
#: pre-context behaviour of one shared table-set per process.
DEFAULT = EngineContext(name="default")

_CURRENT: contextvars.ContextVar[EngineContext] = contextvars.ContextVar(
    "repro_engine_context", default=DEFAULT
)


def current() -> EngineContext:
    """The context all stateful layers resolve against, right now."""
    return _CURRENT.get()


def fresh(name: str | None = None,
          memo_cap: int = DEFAULT_MEMO_CAP,
          corr_id: str | None = None) -> EngineContext:
    """A new, empty context (does not enter it; pair with :func:`use`).

    The new context *inherits the creator's correlation ID* unless an
    explicit ``corr_id`` is given: ephemeral contexts stay attributable
    to the request that spawned them, which is how one correlation ID
    survives the delta-shipping transport.

    Inheritance is right for *parts of one request* and wrong for
    *sibling requests*: two requests fanned out from one parent would
    share the parent's ID and their telemetry would be unattributable.
    Anything serving concurrent requests (``repro.serve`` stamps
    ``journal.new_corr_id()`` per accepted request) must pass an
    explicit per-request ``corr_id`` here or via :func:`scoped`.
    """
    if corr_id is None:
        corr_id = current().corr_id
    return EngineContext(name=name, memo_cap=memo_cap, corr_id=corr_id)


class use:
    """Context manager making ``ctx`` the current engine context.

    Re-entrant and nestable; restores the previous context on exit,
    even across exceptions.  Usable from any thread or task — the
    current context is a :class:`contextvars.ContextVar`, so each
    thread/task tracks its own stack.

    ::

        child = context.fresh("iteration-3")
        with context.use(child):
            ...                      # every cache/counter/span is child's
        parent.absorb(child.telemetry())  # ship the telemetry home
    """

    __slots__ = ("ctx", "_token")

    def __init__(self, ctx: EngineContext) -> None:
        self.ctx = ctx
        self._token: contextvars.Token | None = None

    def __enter__(self) -> EngineContext:
        self._token = _CURRENT.set(self.ctx)
        return self.ctx

    def __exit__(self, *exc: object) -> None:
        assert self._token is not None
        _CURRENT.reset(self._token)
        self._token = None


def scoped(name: str | None = None, memo_cap: int = DEFAULT_MEMO_CAP,
           corr_id: str | None = None) -> use:
    """``use(fresh(...))`` in one call: enter a brand-new context.

    Pass ``corr_id`` when the scope is one *request among siblings*
    (concurrent tasks fanned out from one parent): without it the new
    context inherits the parent's correlation ID, which is right for
    parts of one request, not for siblings.
    """
    return use(fresh(name, memo_cap, corr_id=corr_id))
