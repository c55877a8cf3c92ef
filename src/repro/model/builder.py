"""A step-by-step builder for well-formed runs.

``RunBuilder`` constructs the state sequence of a run one action at a
time, maintaining the invariants of Section 5 as it goes: actions
append themselves to the performing principal's local history and,
tagged, to the environment's global history; ``send`` feeds the
recipient's message buffer; ``receive`` consumes from the buffer;
``newkey`` grows the key set.

Well-formedness conditions WF3-WF5 are enforced *at send time* (they
can be relaxed per-send with ``unchecked=True`` for building deliberate
counterexamples); WF0-WF2 hold by construction.

The epoch boundary is set with :meth:`mark_epoch`: everything built
before the call happened "in the past" (negative times), which is how
replayed old messages are modeled.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.errors import ModelError, WellFormednessError
from repro.model.actions import Action, Internal, NewKey, Receive, Send
from repro.model.runs import ENVIRONMENT, Run
from repro.model.states import GlobalState
from repro.model.submsgs import said_submsgs, seen_submsgs_all
from repro.terms.atoms import Atom, Key, Parameter, Principal
from repro.terms.base import Message
from repro.terms.messages import Combined, Encrypted, Forwarded


class RunBuilder:
    """Builds one run; use one builder per run.

    Args:
        principals: the system principals.
        keysets: initial key sets per system principal.
        env_keys: the environment's initial key set.
        data: initial application data per system principal.
        environment: the distinguished environment principal.
    """

    def __init__(
        self,
        principals: Iterable[Principal],
        keysets: Mapping[Principal, Iterable[Key]] | None = None,
        env_keys: Iterable[Key] = (),
        data: Mapping[Principal, Mapping[str, object]] | None = None,
        environment: Principal = ENVIRONMENT,
    ) -> None:
        principals = tuple(principals)
        if environment in principals:
            raise ModelError("the environment cannot be a system principal")
        initial = GlobalState.initial(principals, keysets, env_keys, data)
        buffers = {principal: () for principal in principals}
        buffers[environment] = ()
        initial = initial.with_env(initial.env.with_buffers(buffers))
        self._environment = environment
        self._states: list[GlobalState] = [initial]
        self._epoch_index = 0

    # -- inspection ------------------------------------------------------------

    @property
    def current(self) -> GlobalState:
        return self._states[-1]

    @property
    def environment(self) -> Principal:
        return self._environment

    def keyset(self, principal: Principal) -> frozenset[Key]:
        if principal == self._environment:
            return self.current.env.keys
        return self.current.local(principal).keys

    def received(self, principal: Principal) -> frozenset[Message]:
        if principal == self._environment:
            return frozenset(
                action.message
                for action in self.current.env.actions_of(principal)
                if isinstance(action, Receive)
            )
        return self.current.local(principal).received_messages

    def buffer(self, principal: Principal) -> tuple[Message, ...]:
        return self.current.env.buffer(principal)

    # -- the transition core -----------------------------------------------------

    def _apply(self, principal: Principal, action: Action) -> None:
        state = self.current
        env = state.env.record(principal, action)
        if principal == self._environment:
            if isinstance(action, NewKey):
                env = env.with_key(action.key)
            next_state = state.with_env(env)
        else:
            local = state.local(principal).after(action)
            next_state = state.with_local(principal, local).with_env(env)
        self._states.append(next_state)

    # -- actions ---------------------------------------------------------------

    def send(
        self,
        sender: Principal,
        message: Message,
        recipient: Principal,
        unchecked: bool = False,
    ) -> None:
        """Perform ``send(message, recipient)`` as ``sender``.

        Raises :class:`WellFormednessError` when the send would violate
        WF3 (any principal) or WF4/WF5 (system principals), unless
        ``unchecked`` is set.
        """
        if not unchecked:
            self._check_send(sender, message)
        self._apply(sender, Send(message, recipient))
        # Feed the recipient's buffer (delivery happens at receive()).
        state = self.current
        buffers = dict(state.env.buffer_map)
        if recipient not in buffers:
            raise ModelError(f"unknown recipient {recipient}")
        buffers[recipient] = buffers[recipient] + (message,)
        self._states[-1] = state.with_env(state.env.with_buffers(buffers))

    def receive(
        self, principal: Principal, message: Message | None = None
    ) -> Message:
        """Deliver a buffered message to ``principal``.

        The paper's ``receive()`` picks nondeterministically; the
        builder resolves the nondeterminism by taking the oldest
        buffered message, or the specific ``message`` requested.
        Returns the delivered message.
        """
        state = self.current
        pending = state.env.buffer(principal)
        if not pending:
            raise ModelError(f"{principal} has no buffered messages")
        if message is None:
            message = pending[0]
        if message not in pending:
            raise ModelError(f"{message} is not buffered for {principal}")
        index = pending.index(message)
        remaining = pending[:index] + pending[index + 1:]
        self._apply(principal, Receive(message))
        state = self.current
        buffers = dict(state.env.buffer_map)
        buffers[principal] = remaining
        self._states[-1] = state.with_env(state.env.with_buffers(buffers))
        return message

    def newkey(self, principal: Principal, key: Key) -> None:
        """Perform ``newkey(key)`` as ``principal``."""
        self._apply(principal, NewKey(key))

    def internal(
        self,
        principal: Principal,
        label: str,
        data: Mapping[str, object] | None = None,
    ) -> None:
        """Perform an internal action, optionally updating local data."""
        self._apply(principal, Internal(label))
        if data:
            if principal == self._environment:
                raise ModelError("environment data updates are not supported")
            state = self.current
            local = state.local(principal)
            for name, value in data.items():
                local = local.with_data(name, value)
            self._states[-1] = state.with_local(principal, local)

    def idle(self) -> None:
        """Advance time with no principal acting (a stuttering step)."""
        self._states.append(self.current)

    def mark_epoch(self) -> None:
        """Declare the *current* state to be time 0 (epoch start).

        Everything built so far — including sends recorded in the
        current state — happened in the past; later actions are in the
        present epoch and can satisfy ``says`` and freshness.
        """
        self._epoch_index = len(self._states) - 1

    # -- send-time enforcement -----------------------------------------------------

    def _check_send(self, sender: Principal, message: Message) -> None:
        keys = self.keyset(sender)
        received = self.received(sender)
        seen_of_received = seen_submsgs_all(keys, received)
        is_system = sender != self._environment
        for component in said_submsgs(keys, received, message):
            if isinstance(component, Encrypted):
                copied = component in seen_of_received
                if component.key not in keys and not copied:
                    raise WellFormednessError(
                        "WF3",
                        f"{sender} cannot send {component}: key {component.key} "
                        f"not held and ciphertext never seen",
                    )
                if is_system and component.sender != sender and not copied:
                    raise WellFormednessError(
                        "WF4",
                        f"{sender} cannot originate {component} claiming from "
                        f"field {component.sender}",
                    )
            elif isinstance(component, Combined):
                if (
                    is_system
                    and component.sender != sender
                    and component not in seen_of_received
                ):
                    raise WellFormednessError(
                        "WF4",
                        f"{sender} cannot originate {component} claiming from "
                        f"field {component.sender}",
                    )
            elif isinstance(component, Forwarded):
                if is_system and component.body not in seen_of_received:
                    raise WellFormednessError(
                        "WF5",
                        f"{sender} cannot forward {component.body} without "
                        f"having seen it",
                    )

    # -- building ----------------------------------------------------------------

    def build(
        self,
        name: str,
        params: Mapping[Parameter, Atom] | None = None,
    ) -> Run:
        """Finish and return the run, with times set by the epoch mark."""
        packed = tuple(sorted((params or {}).items(), key=lambda kv: kv[0].name))
        return Run(
            name=name,
            states=tuple(self._states),
            start_time=-self._epoch_index,
            params=packed,
            environment=self._environment,
        )
