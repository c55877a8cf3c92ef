"""Hash-consing for the term language (maximal structural sharing).

Every term constructor routes through :class:`InternMeta`, which keeps
one canonical instance per structurally-distinct term in an intern
table.  The payoff, for a symbolic workload whose memo tables all key
on terms, is threefold:

* **O(1) hashing** — each node carries a precomputed ``_hash``, so a
  dict lookup on a deep formula no longer re-walks the tree;
* **identity-fast equality** — within a context, structurally equal
  terms *are* the same object, so ``==`` is usually a pointer compare;
* **O(1) structural memoization** — derived attributes (submessage
  sets, free parameters, sizes) can be cached directly on the canonical
  node (:mod:`repro.terms.ops`), shared by every formula that mentions
  the term.

This is the same technique industrial symbolic engines use for their
term DAGs (hash-consed facts in multiset-rewriting checkers, shared
BDD nodes in model checkers).

The table is owned by the current :class:`repro.context.EngineContext`
— one table per session, the process-default context preserving the
old one-table-per-process behaviour.  Terms built under different
contexts are distinct canonical instances that still compare (and
hash) structurally equal: ``Message.__eq__``/``__hash__`` never depend
on canonicity, only profit from it.

Interning survives pickling: ``Message.__reduce__`` rebuilds terms
through their constructors, so terms arriving from another process
are re-interned into the *receiving* context's table — and re-hashed,
which matters because Python string hashing is per-process randomized.

The table is a plain dict the context owns, capped at ``memo_cap``
entries and cleared wholesale on overflow (:func:`repro.context.evict`).
A term built before an eviction (or ``repro.perf.clear_caches()``)
stays equal and hash-equal to its rebuild, just not the same object.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any

from repro import context as _context
from repro import perf

#: Per-class tuple of field names, computed once per dataclass.
#: Immutable class metadata, not session state — deliberately global.
_FIELD_NAMES: dict[type, tuple[str, ...]] = {}

perf.register_cache(
    "intern",
    lambda: _context.current().intern_table.clear(),
    lambda: len(_context.current().intern_table),
)


def _field_names(cls: type) -> tuple[str, ...]:
    names = _FIELD_NAMES.get(cls)
    if names is None:
        names = tuple(f.name for f in fields(cls))
        _FIELD_NAMES[cls] = names
    return names


class InternMeta(type):
    """Metaclass interning every instance of the term dataclasses.

    ``cls(...)`` constructs (and validates, via ``__post_init__``) a
    candidate instance, then returns the canonical instance for its
    structural key in the current context's table, creating one if
    needed.  The structural hash is computed exactly once, here, and
    stored on the instance.
    """

    def __call__(cls, *args: Any, **kwargs: Any) -> Any:
        ctx = _context.current()
        table = ctx.intern_table
        counters = ctx.counters
        key = None
        if not kwargs and len(args) == len(_field_names(cls)):
            # All fields given positionally: the structural key is just
            # the argument tuple (no __post_init__ rewrites fields), so
            # a hit can skip constructing-and-discarding a candidate.
            key = (cls, *args)
            try:
                canonical = table.get(key)
            except TypeError:  # unhashable argument: take the slow path
                key = None
            else:
                if canonical is not None:
                    counters["intern.hit"] = counters.get("intern.hit", 0) + 1
                    return canonical
        obj = super().__call__(*args, **kwargs)
        if key is None:
            key = (cls, *(getattr(obj, name) for name in _field_names(cls)))
            canonical = table.get(key)
            if canonical is not None:
                counters["intern.hit"] = counters.get("intern.hit", 0) + 1
                return canonical
        counters["intern.miss"] = counters.get("intern.miss", 0) + 1
        object.__setattr__(obj, "_hash", hash(key))
        if len(table) >= ctx.memo_cap:
            _context.evict(table, "intern", ctx.memo_cap)
        table[key] = obj
        return obj


def intern_key(obj: Any) -> tuple:
    """The structural identity of a term: ``(class, *field values)``."""
    cls = type(obj)
    return (cls, *(getattr(obj, name) for name in _field_names(cls)))


def reconstruct(cls: type, values: tuple) -> Any:
    """Pickle helper: rebuild (and so re-intern) a term from its fields."""
    return cls(*values)


def intern_stats() -> dict[str, int]:
    """Size of the current context's intern table plus its counters."""
    ctx = _context.current()
    return {
        "size": len(ctx.intern_table),
        "hits": ctx.counters.get("intern.hit", 0),
        "misses": ctx.counters.get("intern.miss", 0),
    }
