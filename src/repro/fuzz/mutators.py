"""Adversarial run mutators (fault injection).

Each mutator takes a *well-formed* run and performs state surgery to
produce a run that violates — or, for the benign mutators, provably
preserves — specific well-formedness conditions of Section 5.  Every
mutation is tagged with the set of WF condition names it is designed to
trip, so the oracle (:mod:`repro.fuzz.oracles`) can assert that
:mod:`repro.model.wellformed` flags exactly the injected class.

The mutators are written to be *surgical*: injected actions are
appended as a fresh final state built from materials (keys, nonces)
checked against the victim's seen-set, so a mutation tagged ``{"WF4"}``
does not incidentally trip WF3 or WF5.  Mutators whose preconditions a
run does not meet return ``None``; the harness then tries another.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable

from repro.model.actions import Action, Internal, NewKey, Receive, Send
from repro.model.runs import Run
from repro.model.states import EnvState, LocalState
from repro.model.submsgs import seen_submsgs_all
from repro.terms.atoms import Key, Nonce, Principal
from repro.terms.base import Message
from repro.terms.messages import combined, encrypted, forwarded, group
from repro.terms.ops import walk

from repro.fuzz.shrink import remove_entry


@dataclass(frozen=True)
class Mutation:
    """One applied fault injection."""

    name: str
    run: Run
    #: WF condition names the fault should trip (empty: benign).
    expected: frozenset[str]
    #: True: the checker must flag *exactly* these classes; False: at
    #: least these (cascading secondary violations are acceptable).
    exact: bool
    detail: str


MutatorFn = Callable[[random.Random, Run], "Mutation | None"]


@dataclass(frozen=True)
class Materials:
    """Raw term material gleaned from a run, for building injections."""

    principals: tuple[Principal, ...]
    keys: tuple[Key, ...]
    nonces: tuple[Nonce, ...]


def materials_of(run: Run) -> Materials:
    """Collect the keys and nonces circulating anywhere in the run."""
    keys: dict[Key, None] = {}
    nonces: dict[Nonce, None] = {}
    for principal in run.all_principals:
        for key in sorted(run.keyset(principal, run.end_time), key=str):
            keys.setdefault(key, None)
    for _who, action in run.state(run.end_time).env.history:
        message = getattr(action, "message", None)
        if message is None:
            continue
        for node in walk(message):
            if isinstance(node, Key):
                keys.setdefault(node, None)
            elif isinstance(node, Nonce):
                nonces.setdefault(node, None)
    if not nonces:
        nonces[Nonce("Nfz")] = None
    return Materials(run.principals, tuple(keys), tuple(nonces))


# ---------------------------------------------------------------------------
# State-surgery helpers
# ---------------------------------------------------------------------------


def _append_action(run: Run, principal: Principal, action: Action) -> Run:
    """Extend the run by one state in which ``principal`` performs
    ``action`` — the raw (unchecked) analogue of a builder step.

    Transit bookkeeping mirrors the builder (a send feeds the
    recipient's buffer, a receive consumes its message when buffered),
    so an injected action is only as ill-formed as intended: a WF4
    forgery, say, must not incidentally trip the WFB buffer-discipline
    check.  Buffers are only touched for principals the run actually
    tracks (hand-built runs without buffer entries stay untracked).
    """
    last = run.states[-1]
    env = last.env.record(principal, action)
    if isinstance(action, Send):
        buffers = dict(env.buffer_map)
        if action.recipient in buffers:
            buffers[action.recipient] = (
                buffers[action.recipient] + (action.message,)
            )
            env = env.with_buffers(buffers)
    elif isinstance(action, Receive):
        buffers = dict(env.buffer_map)
        pending = buffers.get(principal, ())
        if action.message in pending:
            index = pending.index(action.message)
            buffers[principal] = pending[:index] + pending[index + 1:]
            env = env.with_buffers(buffers)
    if principal == run.environment:
        if isinstance(action, NewKey):
            env = EnvState(env.history, env.keys | {action.key},
                           env.buffers, env.data)
        state = last.with_env(env)
    else:
        local = last.local(principal).after(action)
        state = last.with_local(principal, local).with_env(env)
    return replace(run, states=run.states + (state,))


def _seen_at_end(run: Run, principal: Principal) -> frozenset[Message]:
    keys = run.keyset(principal, run.end_time)
    received = run.received_messages(principal, run.end_time)
    return seen_submsgs_all(keys, received)


def _unseen(run: Run, principal: Principal, candidates) -> Message | None:
    seen = _seen_at_end(run, principal)
    for candidate in candidates:
        if candidate not in seen:
            return candidate
    return None


def _single_send_with_receive(run: Run) -> list[tuple[int, Principal, Send]]:
    """Indices of sends that are the *unique* send of their (message,
    recipient) pair and whose recipient actually received the message —
    dropping or delaying such a send must orphan the receive (WF2)."""
    history = run.states[-1].env.history
    counts: dict[tuple[Message, Principal], int] = {}
    for _who, action in history:
        if isinstance(action, Send):
            pair = (action.message, action.recipient)
            counts[pair] = counts.get(pair, 0) + 1
    out = []
    for index, (who, action) in enumerate(history):
        if not isinstance(action, Send):
            continue
        if counts[(action.message, action.recipient)] != 1:
            continue
        received = run.received_messages(action.recipient, run.end_time)
        if action.message in received:
            out.append((index, who, action))
    return out


def _send_time(run: Run, env_index: int) -> int:
    """The time at which the env-history entry at ``env_index`` was
    performed (the first state whose history contains it)."""
    for k in run.times:
        if len(run.state(k).env.history) > env_index:
            return k
    raise AssertionError("entry index beyond final history")


# ---------------------------------------------------------------------------
# The mutators
# ---------------------------------------------------------------------------


def mutate_dirty_start(rng: random.Random, run: Run) -> Mutation | None:
    """WF0: non-empty buffer or history in the first state."""
    materials = materials_of(run)
    first = run.states[0]
    variant = rng.choice(("buffer", "local_history", "global_history"))
    junk = rng.choice(materials.nonces)
    if variant == "buffer":
        target = rng.choice(run.principals)
        buffers = dict(first.env.buffer_map)
        buffers[target] = buffers.get(target, ()) + (junk,)
        state = first.with_env(first.env.with_buffers(buffers))
        detail = f"pre-seeded {target}'s buffer with {junk}"
    elif variant == "local_history":
        target = rng.choice(run.principals)
        local = first.local(target)
        state = first.with_local(
            target,
            LocalState((Internal("ghost"),) + local.history, local.keys,
                       local.data),
        )
        detail = f"ghost action in {target}'s initial history"
    else:
        env = first.env
        state = first.with_env(
            EnvState(((run.environment, Internal("ghost")),) + env.history,
                     env.keys, env.buffers, env.data)
        )
        detail = "ghost action in the initial global history"
    mutated = replace(run, states=(state,) + run.states[1:])
    return Mutation("dirty_start", mutated, frozenset({"WF0"}), True, detail)


def mutate_shrink_keyset(rng: random.Random, run: Run) -> Mutation | None:
    """WF1: a key set silently loses a key in an appended final state."""
    candidates = [
        p for p in run.all_principals if run.keyset(p, run.end_time)
    ]
    if not candidates:
        return None
    victim = rng.choice(candidates)
    lost = rng.choice(sorted(run.keyset(victim, run.end_time), key=str))
    last = run.states[-1]
    if victim == run.environment:
        env = last.env
        state = last.with_env(
            EnvState(env.history, env.keys - {lost}, env.buffers, env.data)
        )
    else:
        local = last.local(victim)
        state = last.with_local(
            victim, LocalState(local.history, local.keys - {lost}, local.data)
        )
    mutated = replace(run, states=run.states + (state,))
    return Mutation(
        "shrink_keyset", mutated, frozenset({"WF1"}), True,
        f"{victim} silently lost {lost}",
    )


def mutate_receive_unsent(rng: random.Random, run: Run) -> Mutation | None:
    """WF2: a principal receives a message nobody sent to it."""
    materials = materials_of(run)
    receiver = rng.choice(run.all_principals)
    nonce = rng.choice(materials.nonces)
    candidates = [
        group(nonce, rng.choice(materials.nonces)),
        forwarded(nonce),
        nonce,
    ]
    history = run.states[-1].env.history
    sent_to_receiver = {
        action.message
        for _who, action in history
        if isinstance(action, Send) and action.recipient == receiver
    }
    message = next(
        (m for m in candidates if m not in sent_to_receiver), None
    )
    if message is None:
        return None
    mutated = _append_action(run, receiver, Receive(message))
    return Mutation(
        "receive_unsent", mutated, frozenset({"WF2"}), True,
        f"{receiver} received {message} out of thin air",
    )


def mutate_drop_send(rng: random.Random, run: Run) -> Mutation | None:
    """WF2 + WFB: the unique send matching some receive is dropped.

    Dropping the history entry leaves the message sitting in the
    recipient's buffer at the send's own state with no send to explain
    it, so the buffer-discipline check fires alongside the orphaned
    receive — both are real consequences of the same surgery.
    """
    candidates = _single_send_with_receive(run)
    if not candidates:
        return None
    index, who, send = rng.choice(candidates)
    mutated = remove_entry(run, index, repair=False)
    return Mutation(
        "drop_send", mutated, frozenset({"WF2", "WFB"}), True,
        f"dropped {who}'s send of {send.message} to {send.recipient}",
    )


def mutate_duplicate_send(rng: random.Random, run: Run) -> Mutation | None:
    """Benign: re-sending an old message with an unchanged key set must
    keep the run well-formed (seen-sets only grow, so every component
    the duplicate says was already sayable)."""
    history = run.states[-1].env.history
    candidates = []
    for index, (who, action) in enumerate(history):
        if not isinstance(action, Send):
            continue
        sent_at = _send_time(run, index)
        if run.keyset(who, sent_at) == run.keyset(who, run.end_time):
            candidates.append((who, action))
    if not candidates:
        return None
    who, send = rng.choice(candidates)
    mutated = _append_action(run, who, send)
    return Mutation(
        "duplicate_send", mutated, frozenset(), True,
        f"{who} re-sent {send.message} to {send.recipient}",
    )


def mutate_reorder_send_receive(rng: random.Random, run: Run) -> Mutation | None:
    """WF2 + WFB: a send is delayed past its matching receive.

    Between the original send time and the receive the message still
    sits in the buffer with no send on record, and after the delayed
    re-send it is in transit despite already having been received — the
    buffer-discipline check flags both windows."""
    candidates = [
        (index, who, send)
        for index, who, send in _single_send_with_receive(run)
        if run.keyset(who, _send_time(run, index))
        == run.keyset(who, run.end_time)
    ]
    if not candidates:
        return None
    index, who, send = rng.choice(candidates)
    mutated = remove_entry(run, index, repair=False)
    mutated = _append_action(mutated, who, send)
    return Mutation(
        "reorder_send_receive", mutated, frozenset({"WF2", "WFB"}), True,
        f"delayed {who}'s send of {send.message} past its receive",
    )


def mutate_forge_from_field(rng: random.Random, run: Run) -> Mutation | None:
    """WF4: a system principal originates a message whose from field
    names somebody else."""
    if len(run.all_principals) < 2:
        return None
    forger = rng.choice(run.principals)
    scapegoats = [p for p in run.all_principals if p != forger]
    scapegoat = rng.choice(scapegoats)
    materials = materials_of(run)
    nonce = rng.choice(materials.nonces)
    held = sorted(run.keyset(forger, run.end_time), key=str)
    candidates: list[Message] = [
        combined(nonce, rng.choice(materials.nonces), scapegoat)
    ]
    if held:
        candidates.insert(
            rng.randint(0, 1), encrypted(nonce, rng.choice(held), scapegoat)
        )
    forged = _unseen(run, forger, candidates)
    if forged is None:
        return None
    recipient = rng.choice(run.all_principals)
    mutated = _append_action(run, forger, Send(forged, recipient))
    return Mutation(
        "forge_from_field", mutated, frozenset({"WF4"}), True,
        f"{forger} originated {forged} claiming it came from {scapegoat}",
    )


def mutate_forward_unseen(rng: random.Random, run: Run) -> Mutation | None:
    """WF5: a system principal forwards something it never saw."""
    forwarder = rng.choice(run.principals)
    materials = materials_of(run)
    nonce = rng.choice(materials.nonces)
    body = _unseen(
        run, forwarder,
        list(materials.nonces) + [group(nonce, nonce)],
    )
    if body is None:
        return None
    recipient = rng.choice(run.all_principals)
    mutated = _append_action(run, forwarder, Send(forwarded(body), recipient))
    return Mutation(
        "forward_unseen", mutated, frozenset({"WF5"}), True,
        f"{forwarder} forwarded {body} without having seen it",
    )


def mutate_unheld_key_cipher(rng: random.Random, run: Run) -> Mutation | None:
    """WF3: a principal (the environment half the time — the key-leak /
    perfect-encryption case) emits a ciphertext under a key it neither
    holds nor ever saw used."""
    materials = materials_of(run)
    actor = rng.choice((run.environment, rng.choice(run.principals)))
    held = run.keyset(actor, run.end_time)
    unheld = [k for k in materials.keys if k not in held]
    if not unheld:
        unheld = [Key("Kfz")]
    key = rng.choice(unheld)
    nonce = rng.choice(materials.nonces)
    # From field: the actor itself for system principals (anything else
    # would also trip WF4); the exempt environment may lie freely.
    sender = (
        actor if actor != run.environment
        else rng.choice(run.all_principals)
    )
    cipher = _unseen(run, actor, [encrypted(nonce, key, sender)])
    if cipher is None:
        return None
    recipient = rng.choice(run.all_principals)
    mutated = _append_action(run, actor, Send(cipher, recipient))
    return Mutation(
        "unheld_key_cipher", mutated, frozenset({"WF3"}), True,
        f"{actor} encrypted under {key} without holding it",
    )


def mutate_buffer_junk(rng: random.Random, run: Run) -> Mutation | None:
    """WFB: the final state's in-transit buffer drifts from the history.

    Either slips an extra message into a tracked buffer (a message the
    history never put in transit) or vanishes one that should still be
    pending.  Only the final state is touched, so WF0 stays quiet and
    the mutation is exactly a buffer-discipline fault.
    """
    last = run.states[-1]
    tracked = [principal for principal, _buffer in last.env.buffers]
    if not tracked or len(run.states) < 2:
        return None
    buffers = dict(last.env.buffer_map)
    pending = [
        (principal, buffers[principal]) for principal in tracked
        if buffers.get(principal)
    ]
    if pending and rng.random() < 0.5:
        victim, buffer = rng.choice(pending)
        dropped = rng.choice(buffer)
        index = buffer.index(dropped)
        buffers[victim] = buffer[:index] + buffer[index + 1:]
        detail = f"vanished in-transit {dropped} from {victim}'s buffer"
    else:
        victim = rng.choice(tracked)
        junk = rng.choice(materials_of(run).nonces)
        buffers[victim] = buffers.get(victim, ()) + (junk,)
        detail = f"slipped {junk} into {victim}'s in-transit buffer"
    state = last.with_env(last.env.with_buffers(buffers))
    mutated = replace(run, states=run.states[:-1] + (state,))
    return Mutation(
        "buffer_junk", mutated, frozenset({"WFB"}), True, detail
    )


#: Registry of all mutators, in presentation order.
MUTATORS: dict[str, MutatorFn] = {
    "dirty_start": mutate_dirty_start,
    "shrink_keyset": mutate_shrink_keyset,
    "receive_unsent": mutate_receive_unsent,
    "drop_send": mutate_drop_send,
    "duplicate_send": mutate_duplicate_send,
    "reorder_send_receive": mutate_reorder_send_receive,
    "buffer_junk": mutate_buffer_junk,
    "forge_from_field": mutate_forge_from_field,
    "forward_unseen": mutate_forward_unseen,
    "unheld_key_cipher": mutate_unheld_key_cipher,
}


def apply_random_mutator(rng: random.Random, run: Run) -> Mutation | None:
    """Apply a randomly chosen applicable mutator, or None if none fit.

    The candidate order is a seeded shuffle of the *name-sorted* registry,
    never of its insertion order, so registering a new mutator cannot
    silently change what existing seeds reproduce.
    """
    names = sorted(MUTATORS)
    rng.shuffle(names)
    for name in names:
        mutation = MUTATORS[name](rng, run)
        if mutation is not None:
            return mutation
    return None
