"""The ``hide`` operation (Section 6).

Before computing the points a principal considers possible, its local
state is passed through ``hide``, which replaces every encrypted
message the principal cannot read by the placeholder ``⊥``: "if we do
not hide unreadable encrypted messages, then P's local state will
contain {X^Q}_K at all points it considers possible, and hence P will
believe that {X^Q}_K contains X even though P cannot read X!"

Following the extended abstract's example — ``({X^Q}_K, {Y^R}_K')``
becomes "something like ``(⊥, {Y^R}_K')``" — all unreadable ciphertexts
collapse to the *same* symbol ``⊥`` (:class:`~repro.terms.atoms.Opaque`).
A variant, :func:`hide_message_pattern`, instead numbers distinct
unreadable ciphertexts consistently (``⊥1``, ``⊥2``, ...), modelling a
principal that can compare ciphertext bits without reading them; the
benchmark suite contrasts the two (see EXPERIMENTS.md).
"""

from __future__ import annotations

from typing import AbstractSet

from repro import context as _context
from repro import perf
from repro.model.actions import Action, Internal, NewKey, Receive, Send
from repro.model.runs import Run
from repro.terms.atoms import Key, Nonce, Opaque, Principal, decryption_key
from repro.terms.base import Message
from repro.terms.messages import Encrypted
from repro.terms.ops import children, rebuild

#: The single collapse placeholder.
OPAQUE = Opaque()

#: Hidden views are plain nested tuples: hashable and value-compared.
HiddenView = tuple


#: The ``hide`` memo — ``(term, key set) -> hidden term`` — is owned by
#: the current :class:`repro.context.EngineContext` (``ctx.hide_memo``),
#: entry-capped with wholesale-clear eviction (``hide.evict``).  Terms
#: are interned and key sets are frozensets, so both hash in O(1)
#: (after the first frozenset hash, which Python caches internally);
#: the same message re-hidden at every time step of every run costs one
#: dict lookup after the first computation.

perf.register_cache(
    "hide",
    lambda: _context.current().hide_memo.clear(),
    lambda: len(_context.current().hide_memo),
)


def hide_message(keys: AbstractSet[Key], message: Message) -> Message:
    """Blind every ciphertext not decryptable with ``keys``.

    Readable ciphertexts keep their structure (their bodies are hidden
    recursively — an unreadable inner ciphertext inside a readable outer
    one is still blinded).  All other constructors, including
    combinations ``(X)_Y`` whose bits are visible even when the secret
    is not recognized, are traversed structurally.
    """
    if not isinstance(keys, frozenset):
        keys = frozenset(keys)
    ctx = _context.current()
    return _hide_memoized(ctx.hide_memo, ctx.counters, keys, message)


def _hide_memoized(
    memo: dict, counters: dict, keys: frozenset, message: Message
) -> Message:
    memo_key = (message, keys)
    cached = memo.get(memo_key)
    if cached is not None:
        counters["hide.hit"] = counters.get("hide.hit", 0) + 1
        return cached
    counters["hide.miss"] = counters.get("hide.miss", 0) + 1
    if isinstance(message, Encrypted):
        if decryption_key(message.key) not in keys:
            hidden: Message = OPAQUE
        else:
            body = _hide_memoized(memo, counters, keys, message.body)
            hidden = (
                message
                if body is message.body
                else Encrypted(body, message.key, message.sender)
            )
    else:
        kids = children(message)
        new_kids = tuple(
            _hide_memoized(memo, counters, keys, kid) for kid in kids
        )
        hidden = message if new_kids == kids else rebuild(message, new_kids)
    memo[memo_key] = hidden
    return hidden


def hide_message_pattern(
    keys: AbstractSet[Key],
    message: Message,
    numbering: dict[Encrypted, Nonce],
) -> Message:
    """Pattern variant: distinct unreadable ciphertexts get distinct,
    consistently assigned markers.

    ``numbering`` is shared across all messages of one local state so
    that the *pattern* of repeated ciphertexts is preserved — the same
    unreadable blob hides to the same marker everywhere it occurs.
    """
    if isinstance(message, Encrypted):
        if decryption_key(message.key) not in keys:
            marker = numbering.get(message)
            if marker is None:
                marker = Nonce(f"opaque{len(numbering) + 1}")
                numbering[message] = marker
            return marker
        body = hide_message_pattern(keys, message.body, numbering)
        if body is message.body:
            return message
        return Encrypted(body, message.key, message.sender)
    kids = children(message)
    new_kids = tuple(hide_message_pattern(keys, kid, numbering) for kid in kids)
    if new_kids == kids:
        return message
    return rebuild(message, new_kids)


def _hide_action(keys: AbstractSet[Key], action: Action, hider) -> tuple:
    """Render an action as a hashable tuple with messages hidden."""
    match action:
        case Send(message, recipient):
            return ("send", hider(keys, message), recipient)
        case Receive(message):
            return ("receive", hider(keys, message))
        case NewKey(key):
            return ("newkey", key)
        case Internal(label):
            return ("internal", label)
        case _:  # pragma: no cover - exhaustive over Action
            raise TypeError(f"unknown action {action!r}")


def hidden_local_view(
    run: Run, principal: Principal, k: int, pattern: bool = False
) -> HiddenView:
    """``hide(r_i(k))``: the principal's local state with unreadable
    ciphertexts blinded, as a hashable value.

    For a system principal the view is (hidden history, key set, data).
    For the environment it is its projected global history plus its key
    set and the (hidden) buffers it manages.
    """
    keys = run.keyset(principal, k)
    if pattern:
        numbering: dict[Encrypted, Nonce] = {}

        def hider(keyset: AbstractSet[Key], message: Message) -> Message:
            return hide_message_pattern(keyset, message, numbering)

    else:
        hider = hide_message

    if principal == run.environment:
        env = run.state(k).env
        history = tuple(
            (who, _hide_action(keys, action, hider)) for who, action in env.history
        )
        buffers = tuple(
            (who, tuple(hider(keys, message) for message in pending))
            for who, pending in env.buffers
        )
        return ("env", history, keys, buffers, env.data)

    local = run.local(principal, k)
    history = tuple(_hide_action(keys, action, hider) for action in local.history)
    return ("local", history, keys, local.data)


def _hider(pattern: bool, numbering: dict[Encrypted, Nonce]):
    if not pattern:
        return hide_message
    return lambda keys, message: hide_message_pattern(keys, message, numbering)


def hidden_run_views(
    run: Run, principal: Principal, pattern: bool, nodes: dict
) -> list[HiddenView]:
    """:func:`hidden_local_view` at every time of the run, oldest first,
    from one walk over ``run.states`` that hides each newly performed
    action once.

    The hidden history is named by an interned node (``nodes`` maps
    ``(parent node, hidden action)`` to an int; ``0`` is the empty
    history), so a view hashes in O(1), and two views built with one
    table are equal exactly when the literal views are.  The walk
    restarts from the root when the key set changes (a new key can make
    an earlier ciphertext readable) or the history does not extend the
    previous one, and a state that is the previous time's object keeps
    its view.  Pattern-hide numbering is carried along; the
    environment's buffers, numbered after its history, use a copy.
    """
    env = principal == run.environment
    views: list[HiddenView] = []
    keys, history, node, before = None, (), 0, None
    for state in run.states:
        state = state.env if env else state.local(principal)
        if state is before:
            views.append(views[-1])
            continue
        before, done = state, len(history)
        if state.keys != keys or state.history[:done] != history:
            keys, done, node, numbering = state.keys, 0, 0, {}
            hider = _hider(pattern, numbering)
        for entry in state.history[done:]:
            hidden = ((entry[0], _hide_action(keys, entry[1], hider)) if env
                      else _hide_action(keys, entry, hider))
            node = nodes.setdefault((node, hidden), len(nodes) + 1)
        history = state.history
        if not env:
            views.append(("local", node, keys, state.data))
            continue
        numbered = _hider(pattern, dict(numbering))
        buffers = tuple(
            (who, tuple(numbered(keys, message) for message in pending))
            for who, pending in state.buffers
        )
        views.append(("env", node, keys, buffers, state.data))
    return views
