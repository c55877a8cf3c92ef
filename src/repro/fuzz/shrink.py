"""Greedy counterexample minimization.

When an oracle fails, the raw artifact is a randomly generated (and
possibly mutated) run — dozens of states of noise around the few
actions that matter.  One greedy loop, :func:`shrink`, minimizes every
kind of artifact: it keeps the first one-step reduction on which the
caller's predicate still fails and restarts the scan, until no single
reduction fires — a local minimum, which for greedy shrinking is the
standard stopping point.  Each caller brings its reductions, budget,
and the exceptions it treats as not-failing.  Runs have three:

1. **action removal** — delete one global-history entry (and its local
   mirror) everywhere it occurs;
2. **stutter collapse** — drop states identical to their predecessor;
3. **tail truncation** — cut trailing states.

All three preserve run validity (cumulative histories stay cumulative;
the time-0 state stays in the window).  Proofs lose steps, assumption
sets and vectors lose one entry at a time, and good-run vectors lose
one principal's restriction at a time.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Iterator

from repro.errors import ReproError
from repro.logic.proof import Proof
from repro.model.actions import Action, Receive, Send
from repro.model.runs import Run
from repro.model.states import EnvState, LocalState

def _transit_balance(env: EnvState, recipient, message) -> int:
    """Sent-minus-received count for ``(recipient, message)`` in a state."""
    balance = 0
    for who, action in env.history:
        if isinstance(action, Send):
            if action.recipient == recipient and action.message == message:
                balance += 1
        elif isinstance(action, Receive):
            if who == recipient and action.message == message:
                balance -= 1
    return balance


def _repair_buffer(env: EnvState, original: EnvState, removed) -> EnvState:
    """Undo the transit effect of a history entry deleted from ``env``.

    A deleted send should take its buffered copy with it; a deleted
    receive should put the copy back.  Without this, every reduction of
    a send/receive would manufacture a WFB buffer-discipline violation
    and the shrinker could never remove traffic.  Untracked principals
    (no buffer entry) are left alone, and the caller's predicate still
    decides whether the repaired candidate reproduces the failure.
    """
    who, action = removed
    buffers = dict(env.buffer_map)
    if isinstance(action, Send):
        pending = buffers.get(action.recipient)
        if (
            pending
            and action.message in pending
            and _transit_balance(original, action.recipient, action.message) > 0
        ):
            index = pending.index(action.message)
            buffers[action.recipient] = pending[:index] + pending[index + 1:]
            return env.with_buffers(buffers)
    elif isinstance(action, Receive):
        if who in buffers and _transit_balance(env, who, action.message) > 0:
            buffers[who] = buffers[who] + (action.message,)
            return env.with_buffers(buffers)
    return env


def _try(candidate_thunk) -> Run | None:
    """Build a candidate, tolerating surgery that produces invalid runs."""
    try:
        return candidate_thunk()
    except (ReproError, AssertionError, IndexError):
        return None


def remove_entry(run: Run, env_index: int, repair: bool = True) -> Run:
    """Delete the env-history entry at ``env_index`` from every state,
    mirroring the deletion into the performer's local history.

    Histories are cumulative, so the entry sits at a fixed index in
    every state from its occurrence on.  ``repair`` undoes the entry's
    transit effect on the buffers; the fault injectors pass False, so
    that a dropped send leaves its message buffered with no send to
    explain it.
    """
    final = run.states[-1].env.history
    who, action = final[env_index]
    local_index: int | None = None
    if who != run.environment and run.is_system_principal(who):
        local_index = sum(
            1 for other, _a in final[:env_index] if other == who
        )
    states = []
    for state in run.states:
        env = state.env
        if len(env.history) > env_index and env.history[env_index] == (who, action):
            original = env
            env = EnvState(
                env.history[:env_index] + env.history[env_index + 1:],
                env.keys, env.buffers, env.data,
            )
            if repair:
                env = _repair_buffer(env, original, (who, action))
            state = state.with_env(env)
        if local_index is not None:
            local = state.local(who)
            if len(local.history) > local_index:
                state = state.with_local(
                    who,
                    LocalState(
                        local.history[:local_index]
                        + local.history[local_index + 1:],
                        local.keys, local.data,
                    ),
                )
        states.append(state)
    return replace(run, states=tuple(states))


def collapse_stutters(run: Run) -> Run:
    """Drop states identical to their predecessor (idle steps)."""
    states = [run.states[0]]
    start = run.start_time
    for index in range(1, len(run.states)):
        state = run.states[index]
        if state == states[-1]:
            if run.start_time + index <= 0:
                start += 1
            continue
        states.append(state)
    if start > 0:
        return run
    return replace(run, states=tuple(states), start_time=start)


def _candidates(run: Run) -> Iterator[Run]:
    """One-step reductions of the run, most aggressive first."""
    minimum = max(1, 1 - run.start_time)
    length = len(run.states)
    if length > minimum:
        yield_from = [minimum, length // 2, length - 1]
        seen = set()
        for target in yield_from:
            if target < minimum or target >= length or target in seen:
                continue
            seen.add(target)
            candidate = _try(
                lambda t=target: replace(run, states=run.states[:t])
            )
            if candidate is not None:
                yield candidate
    history = run.states[-1].env.history
    for index in range(len(history)):
        candidate = _try(lambda i=index: remove_entry(run, i))
        if candidate is not None:
            yield candidate
    collapsed = _try(lambda: collapse_stutters(run))
    if collapsed is not None and len(collapsed.states) < len(run.states):
        yield collapsed


def shrink(start, candidates, still_fails, max_steps, errors):
    """The one greedy minimization loop.

    ``candidates(current)`` yields one-step reductions, most aggressive
    first; the first one on which ``still_fails`` is truthy becomes the
    current artifact and the scan restarts, so the result is 1-minimal
    with respect to the reductions (up to ``max_steps`` predicate
    calls).  ``start`` is assumed failing, and a predicate raising one
    of ``errors`` counts as not-failing.
    """
    current = start
    budget = max_steps
    improved = True
    while improved and budget > 0:
        improved = False
        for candidate in candidates(current):
            budget -= 1
            try:
                failing = still_fails(candidate)
            except errors:
                failing = False
            if failing:
                current = candidate
                improved = True
                break
            if budget <= 0:
                break
    return current


def shrink_run(
    run: Run, still_fails: Callable[[Run], bool], max_steps: int = 400
) -> Run:
    """Greedily minimize a failing run under the three reductions; a
    predicate raising :class:`ReproError` counts as not-failing."""
    return shrink(run, _candidates, still_fails, max_steps, ReproError)


def _proof_candidates(proof: Proof) -> Iterator[Proof]:
    """One-step proof reductions, most aggressive first.

    Tail truncations and single-step deletions (references left
    untouched — an invalid candidate simply fails the predicate).  The
    empty proof is never yielded.
    """
    length = len(proof.steps)
    seen = set()
    for cut in (1, length // 2, length - 1):
        if 1 <= cut < length and cut not in seen:
            seen.add(cut)
            yield Proof(proof.steps[:cut])
    for index in range(length - 1):
        yield Proof(proof.steps[:index] + proof.steps[index + 1:])


def shrink_proof(
    proof: Proof,
    still_fails: Callable[[Proof], bool],
    max_steps: int = 200,
) -> Proof:
    """Greedily minimize a proof artifact while the predicate holds (a
    predicate that raises counts as not-failing)."""
    return shrink(proof, _proof_candidates, still_fails, max_steps, Exception)


def drop_one(items: tuple) -> Iterator[tuple]:
    """``items`` with one element removed, the first element first."""
    for index in range(len(items)):
        yield items[:index] + items[index + 1:]


def shrink_assumption_vector(
    assumptions,
    still_fails,
    max_steps: int = 200,
):
    """Greedily drop (principal, formula) entries from an
    :class:`~repro.goodruns.assumptions.InitialAssumptions` vector while
    the failure persists.

    Each step removes one assumption formula (principals left with none
    disappear from the vector), the candidate is rebuilt through
    ``InitialAssumptions.of`` so its invariants re-validate, and a
    predicate (or rebuild) that raises counts as not-failing.
    """
    from repro.goodruns.assumptions import InitialAssumptions

    def rebuild(entries):
        assignment = {}
        for principal, formula in entries:
            assignment.setdefault(principal, []).append(formula)
        return InitialAssumptions.of(
            {p: tuple(fs) for p, fs in assignment.items()}
        )

    return rebuild(shrink(
        tuple(assumptions.all_formulas()), drop_one,
        lambda entries: still_fails(rebuild(entries)), max_steps, Exception,
    ))


def drop_restriction(vector) -> Iterator:
    """A good-run vector with one principal's entry dropped, in
    principal order.  Dropping an entry weakens the restriction (absent
    principals default to all-runs-good)."""
    from repro.semantics.goodvectors import GoodRunVector

    entries = dict(vector.entries)
    for principal in sorted(entries, key=str):
        yield GoodRunVector.of(
            {p: g for p, g in entries.items() if p != principal}
        )


def describe_proof(proof: Proof) -> list[str]:
    """A compact, numbered rendering of a proof for the JSON report."""
    lines = [f"proof: {len(proof.steps)} step(s)"]
    for index, step in enumerate(proof.steps):
        lines.append(f"  {index}. {step.formula}   [{step.justification}]")
    return lines


def describe_run(run: Run) -> list[str]:
    """A compact, human-readable action script of the run."""
    lines = [
        f"run {run.name!r}: times {run.start_time}..{run.end_time}, "
        f"principals {[str(p) for p in run.principals]}"
    ]
    for k in run.times:
        for principal in run.all_principals:
            for action in run.performed(principal, k):
                assert isinstance(action, Action)
                lines.append(f"  t={k} {principal}: {action}")
    first = run.states[0]
    for principal, pending in first.env.buffers:
        if pending:
            lines.append(
                f"  t={run.start_time} buffer[{principal}] = "
                f"{[str(m) for m in pending]}"
            )
    return lines
