"""The well-formedness restrictions on runs (Section 5).

The paper states five syntactic restrictions whose satisfaction the
soundness of the semantics depends on; we add WF0, the assumption
stated in prose that histories and buffers are empty in the first state
of a run.  Given any run r and time k, with K the key set of P at k and
Mrecv the messages P has received by k:

* **WF0** — histories and message buffers are empty in the first state.
* **WF1** — key sets never decrease.
* **WF2** — a message must be sent before it is received: if
  ``receive(M)`` appears in P's history at time k, ``send(M, P)``
  appears in some principal's history at time k.
* **WF3** — a principal must possess keys it uses for encryption: every
  ciphertext in ``said_submsgs`` of a sent message was either seen in a
  received message or built with a held key.  (Applies to the
  environment too: this is perfect encryption.)
* **WF4** — a *system* principal sets from fields correctly: any
  ciphertext or combination it originates names itself as sender.
* **WF5** — a *system* principal must see messages it forwards.

The environment is exempt from WF4 and WF5: a malicious environment may
lie in from fields and "forward" things it never saw — and axiom A14 and
the ``said`` semantics hold it accountable when it does.

We additionally check **WFB**, the *buffer-discipline* invariant the
paper's system model implies but never states as a numbered restriction:
at every state after the first, each principal's in-transit buffer holds
exactly the messages sent to it and not yet received (counted as a
multiset, clamped below at zero so a phantom receive is WF2's problem,
not a negative expectation).  The builder maintains this by
construction; hand-built runs that never populate buffers are exempt
(belief semantics does not read buffers, so their absence is benign) —
but a run that *does* track buffers and lets them drift from the
history is reporting a state the history contradicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.errors import WellFormednessError
from repro.model.actions import Receive, Send
from repro.model.runs import Run
from repro.model.submsgs import said_submsgs, seen_submsgs_all
from repro.terms.atoms import Principal
from repro.terms.base import Message
from repro.terms.messages import Combined, Encrypted, Forwarded


@dataclass(frozen=True)
class Violation:
    """A single well-formedness violation found in a run."""

    condition: str
    principal: Principal
    time: int
    detail: str

    def __str__(self) -> str:
        return f"[{self.condition}] {self.principal} at t={self.time}: {self.detail}"


def check_run(run: Run) -> list[Violation]:
    """Return all WF0-WF5 violations in the run (empty list: well-formed)."""
    return list(iter_violations(run))


def assert_wellformed(run: Run) -> None:
    """Raise :class:`WellFormednessError` on the first violation."""
    for violation in iter_violations(run):
        raise WellFormednessError(violation.condition, str(violation))


def is_wellformed(run: Run) -> bool:
    """True iff the run satisfies WF0-WF5."""
    return next(iter_violations(run), None) is None


def violation_classes(run: Run) -> frozenset[str]:
    """The set of WF condition names violated by the run.

    The fault-injection oracles (:mod:`repro.fuzz`) compare this set
    against the condition a mutator was designed to trip, so detection
    is judged per *class*, not per individual violation record.
    """
    return frozenset(violation.condition for violation in iter_violations(run))


def iter_violations(run: Run) -> Iterator[Violation]:
    yield from _check_wf0(run)
    yield from _check_wf1(run)
    yield from _check_wf2(run)
    yield from _check_send_conditions(run)
    yield from _check_buffer_discipline(run)


def _check_wf0(run: Run) -> Iterator[Violation]:
    first = run.states[0]
    t0 = run.start_time
    if first.env.history:
        yield Violation("WF0", run.environment, t0, "global history not empty")
    for principal, local in first.locals_:
        if local.history:
            yield Violation("WF0", principal, t0, "local history not empty")
    for principal, buffer in first.env.buffers:
        if buffer:
            yield Violation("WF0", principal, t0, "message buffer not empty")


def _check_wf1(run: Run) -> Iterator[Violation]:
    for principal in run.all_principals:
        previous = None
        for k in run.times:
            keys = run.keyset(principal, k)
            if previous is not None and not previous <= keys:
                lost = ", ".join(sorted(str(key) for key in previous - keys))
                yield Violation("WF1", principal, k, f"key set lost keys: {lost}")
            previous = keys


def _check_wf2(run: Run) -> Iterator[Violation]:
    for principal in run.all_principals:
        for k in run.times:
            for action in run.performed(principal, k):
                if not isinstance(action, Receive):
                    continue
                if not _was_sent_to(run, action.message, principal, k):
                    yield Violation(
                        "WF2",
                        principal,
                        k,
                        f"received {action.message} never sent to it",
                    )


def _was_sent_to(run: Run, message: Message, recipient: Principal, k: int) -> bool:
    for _who, action in run.state(k).env.history:
        if (
            isinstance(action, Send)
            and action.message == message
            and action.recipient == recipient
        ):
            return True
    return False


def _check_send_conditions(run: Run) -> Iterator[Violation]:
    """WF3 for all principals; WF4/WF5 for system principals only."""
    for principal in run.all_principals:
        is_system = principal != run.environment
        for k, sends in run.sends_by_time(principal):
            keys = run.keyset(principal, k)
            received = run.received_messages(principal, k)
            seen_of_received = seen_submsgs_all(keys, received)
            for send in sends:
                said = said_submsgs(keys, received, send.message)
                for component in said:
                    yield from _check_component(
                        component,
                        principal,
                        k,
                        keys,
                        seen_of_received,
                        is_system,
                    )


def _check_component(
    component: Message,
    principal: Principal,
    k: int,
    keys,
    seen_of_received,
    is_system: bool,
) -> Iterator[Violation]:
    if isinstance(component, Encrypted):
        copied = component in seen_of_received
        if component.key not in keys and not copied:
            yield Violation(
                "WF3",
                principal,
                k,
                f"sent {component} without holding {component.key} or having seen it",
            )
        if is_system and component.sender != principal and not copied:
            yield Violation(
                "WF4",
                principal,
                k,
                f"originated {component} with from field {component.sender}",
            )
    elif isinstance(component, Combined):
        if is_system and component.sender != principal:
            if component not in seen_of_received:
                yield Violation(
                    "WF4",
                    principal,
                    k,
                    f"originated {component} with from field {component.sender}",
                )
    elif isinstance(component, Forwarded):
        if is_system and component.body not in seen_of_received:
            yield Violation(
                "WF5",
                principal,
                k,
                f"forwarded {component.body} without having seen it",
            )


def _check_buffer_discipline(run: Run) -> Iterator[Violation]:
    """WFB: buffers hold exactly the sent-but-not-yet-received messages.

    Only principals that have a buffer *entry* in some state are
    checked — hand-built runs that never populate ``env.buffers`` model
    delivery implicitly and are exempt.  The first state is skipped
    (a non-empty initial buffer is WF0's finding, reported once, not
    re-reported at every subsequent time).  Expectations are clamped at
    zero per message so a receive of something never sent stays a pure
    WF2 violation.
    """
    tracked: set[Principal] = set()
    for state in run.states:
        for principal, _buffer in state.env.buffers:
            tracked.add(principal)
    if not tracked:
        return
    for k in run.times:
        if k == run.start_time:
            continue
        env = run.state(k).env
        sent: dict[tuple[Principal, Message], int] = {}
        received: dict[tuple[Principal, Message], int] = {}
        for who, action in env.history:
            if isinstance(action, Send):
                key = (action.recipient, action.message)
                sent[key] = sent.get(key, 0) + 1
            elif isinstance(action, Receive):
                key = (who, action.message)
                received[key] = received.get(key, 0) + 1
        for principal in tracked:
            buffer = env.buffer(principal)
            actual: dict[Message, int] = {}
            for message in buffer:
                actual[message] = actual.get(message, 0) + 1
            messages = set(actual)
            messages.update(
                message for (to, message) in sent if to == principal
            )
            for message in sorted(messages, key=str):
                key = (principal, message)
                expected = max(
                    0, sent.get(key, 0) - received.get(key, 0)
                )
                have = actual.get(message, 0)
                if have != expected:
                    yield Violation(
                        "WFB",
                        principal,
                        k,
                        f"buffer holds {have}x {message}, "
                        f"history implies {expected} in transit",
                    )
