"""The ``seen-submsgs`` and ``said-submsgs`` operators (Section 5).

Under the assumption of perfect encryption, a principal's key set
determines syntactically which components of a message it can *read*
(``seen_submsgs``) and which components it is *considered to have said*
by sending the message (``said_submsgs``).

Following the paper exactly, ``seen_submsgs_K(M)`` is the union of
``{M}`` and:

1. the seen submessages of each part, if M = (X1, ..., Xk);
2. the seen submessages of X, if M = {X^Q}_K with K in the key set;
3. the seen submessages of X, if M = (X^Q)_Y  (combining conceals
   nothing — the secret authenticates, it does not encrypt);
4. the seen submessages of X, if M = 'X'.

``said_submsgs_{K, Mrecv}(M)`` is the union of ``{M}`` and:

1. the said submessages of each part, if M = (X1, ..., Xk);
2. the said submessages of X, if M = {X^Q}_K with K in the key set
   (a principal that could build the ciphertext vouches for its
   contents);
3. the said submessages of X, if M = (X^Q)_Y;
4. the said submessages of X, if M = 'X' **and** X was never seen in a
   received message — "a principal misusing the forwarding notation is
   held to account for the message being forwarded" (axiom A14).

Formulas are atomic for both operators: a formula sent in a message is
itself a component, but its logical structure is not decomposed by
seeing or saying (only the M3-M6 message constructors are).
"""

from __future__ import annotations

from typing import AbstractSet, Iterable

from repro import context as _context
from repro import perf
from repro.terms.atoms import Key, decryption_key
from repro.terms.base import Message
from repro.terms.messages import Combined, Encrypted, Forwarded, Group

#: The :func:`seen_submsgs` memo — ``(term, key set) -> components`` —
#: is owned by the current :class:`repro.context.EngineContext`
#: (``ctx.seen_memo``), entry-capped with wholesale-clear eviction
#: (``seen_submsgs.evict``).  Keyed on interned terms (O(1) hash) and
#: frozenset key sets; one message received by many principals at many
#: times resolves to one dict lookup per distinct key set.

perf.register_cache(
    "seen_submsgs", lambda: len(_context.current().seen_memo)
)


def seen_submsgs(keys: AbstractSet[Key], message: Message) -> frozenset[Message]:
    """The components of ``message`` readable with the given key set."""
    if not isinstance(keys, frozenset):
        keys = frozenset(keys)
    ctx = _context.current()
    memo_key = (message, keys)
    cached = ctx.seen_memo.get(memo_key)
    counters = ctx.counters
    if cached is not None:
        counters["seen_submsgs.hit"] = counters.get("seen_submsgs.hit", 0) + 1
        return cached
    counters["seen_submsgs.miss"] = counters.get("seen_submsgs.miss", 0) + 1
    out: set[Message] = set()
    _seen_into(keys, message, out)
    cached = frozenset(out)
    ctx.seen_memo[memo_key] = cached
    return cached


def _seen_into(keys: AbstractSet[Key], message: Message, out: set[Message]) -> None:
    if message in out:
        return
    out.add(message)
    match message:
        case Group(parts):
            for part in parts:
                _seen_into(keys, part, out)
        case Encrypted(body, key, _sender):
            if decryption_key(key) in keys:
                _seen_into(keys, body, out)
        case Combined(body, _secret, _sender):
            _seen_into(keys, body, out)
        case Forwarded(body):
            _seen_into(keys, body, out)
        case _:
            pass


def seen_submsgs_all(
    keys: AbstractSet[Key], messages: Iterable[Message]
) -> frozenset[Message]:
    """Extension of ``seen_submsgs`` to a set of messages (Section 5)."""
    out: set[Message] = set()
    for message in messages:
        out.update(seen_submsgs(keys, message))
    return frozenset(out)


def said_submsgs(
    keys: AbstractSet[Key],
    received: Iterable[Message],
    message: Message,
) -> frozenset[Message]:
    """The components the sender is considered to have said.

    Args:
        keys: the sender's key set *at the time of the send*.
        received: the messages the sender had received by then.
        message: the message being sent.
    """
    seen_of_received = seen_submsgs_all(keys, received)
    out: set[Message] = set()
    _said_into(keys, seen_of_received, message, out)
    return frozenset(out)


def _said_into(
    keys: AbstractSet[Key],
    seen_of_received: frozenset[Message],
    message: Message,
    out: set[Message],
) -> None:
    if message in out:
        return
    out.add(message)
    match message:
        case Group(parts):
            for part in parts:
                _said_into(keys, seen_of_received, part, out)
        case Encrypted(body, key, _sender):
            if key in keys:
                _said_into(keys, seen_of_received, body, out)
        case Combined(body, _secret, _sender):
            _said_into(keys, seen_of_received, body, out)
        case Forwarded(body):
            if body not in seen_of_received:
                _said_into(keys, seen_of_received, body, out)
        case _:
            pass


def readable(keys: AbstractSet[Key], ciphertext: Encrypted) -> bool:
    """True iff the key set can decrypt the ciphertext (perfect
    encryption): the key itself for symmetric keys, the partner half
    for asymmetric ones."""
    return decryption_key(ciphertext.key) in keys
