"""Abstract base class for the message language ``M_T``.

The language of Section 4.1 is two-sorted: *messages* are the things
principals can send, and *formulas* are the sublanguage of messages to
which truth values can be assigned (condition M1).  That containment is
mirrored directly in the class hierarchy::

    Message
    ├── Atom / Parameter / Opaque        (repro.terms.atoms)
    ├── Group / Encrypted / Combined / Forwarded   (repro.terms.messages)
    └── Formula                           (repro.terms.formulas)
        ├── Prim, Not, And, Or, Implies, Iff, Truth
        ├── Believes, Controls, Sees, Said, Says
        ├── SharedKey, SharedSecret, Fresh, Has
        └── ForAll                        (Section 8 extension)

All nodes are frozen dataclasses: structurally immutable, hashable, and
compared by value, which is exactly what a symbolic term language needs
(sub-message sets, fact sets, and memo tables all key on terms).

Terms are additionally *hash-consed* (:mod:`repro.terms.intern`): the
constructors return one canonical instance per structurally-distinct
term, every node carries a precomputed hash, and ``==`` is usually a
pointer comparison.  Subclasses must therefore be declared with
``@dataclass(frozen=True, eq=False)`` so they inherit the cached
``__hash__``/``__eq__`` defined here instead of regenerating the
field-walking versions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.terms.intern import InternMeta, intern_key, reconstruct


@dataclass(frozen=True, eq=False)
class Message(metaclass=InternMeta):
    """A message of the language ``M_T`` (Section 4.1).

    Subclasses implement ``__str__`` to render the paper's notation.
    Use :func:`repro.terms.ops.submessages` and friends for traversal
    rather than poking at fields generically.
    """

    # -- interned identity ---------------------------------------------------

    def __hash__(self) -> int:
        # Set once by InternMeta; the fallback covers instances created
        # behind the constructor's back (e.g. by copy protocols).
        try:
            return self._hash
        except AttributeError:
            h = hash(intern_key(self))
            object.__setattr__(self, "_hash", h)
            return h

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is not type(self):
            # Exact-type equality, matching the dataclass-generated
            # semantics this replaces (Key("a") != PublicKey("a")).
            return NotImplemented if not isinstance(other, Message) else False
        # Same type but different objects.  Distinct hashes settle it
        # without walking fields — the common case, since set/dict
        # probes compare everything that lands in the same bucket.
        if self.__hash__() != other.__hash__():
            return False
        # Hash collision, or terms that bypassed interning (unpickled
        # mid-flight, copied).  Compare structurally so correctness
        # never depends on interning.
        return intern_key(self)[1:] == intern_key(other)[1:]

    def __reduce__(self):
        # Rebuild through the constructor so unpickled terms re-intern
        # (and recompute their per-process structural hash).
        key = intern_key(self)
        return (reconstruct, (key[0], key[1:]))
