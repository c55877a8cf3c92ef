"""Runs: infinite executions, represented by their finite interesting prefix.

A run (Section 5) is an infinite sequence of global states with integer
times: the first state gets some time ``k0 <= 0`` and the initial state
of the *current epoch* is the state at time 0.  Protocol executions are
quiescent after finitely many steps, so we represent a run by the
finite window ``[start_time, start_time + len(states) - 1]``; semantic
quantifiers over "all times" range over this window.  (This is the
finite-run substitution documented in DESIGN.md.)

The run also carries the Section 8 *parameter assignment*: "we assume
that a run uniquely determines the value of each parameter in the run."
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping

from repro.errors import ModelError
from repro.model.actions import Action, Receive, Send
from repro.model.states import GlobalState, LocalState
from repro.terms.atoms import Atom, Key, Parameter, Principal
from repro.terms.base import Message

#: The conventional name of the distinguished environment principal.
ENVIRONMENT = Principal("Env")


@dataclass(frozen=True)
class Run:
    """A (finite window of a) run.

    Attributes:
        name: a label for reports and interpretations.
        states: the global states, oldest first.
        start_time: the time of ``states[0]``; must be <= 0, and time 0
            (the initial state of the current epoch) must be in range.
        params: the run's parameter assignment, sorted by name.
        environment: the distinguished environment principal.
    """

    name: str
    states: tuple[GlobalState, ...]
    start_time: int = 0
    params: tuple[tuple[Parameter, Atom], ...] = ()
    environment: Principal = ENVIRONMENT

    def __post_init__(self) -> None:
        if not self.states:
            raise ModelError("a run needs at least one state")
        if self.start_time > 0:
            raise ModelError("start_time must be <= 0 (time 0 starts the epoch)")
        if self.start_time + len(self.states) <= 0:
            raise ModelError("the run must contain the initial state (time 0)")
        principals = self.states[0].principals
        for state in self.states:
            if state.principals != principals:
                raise ModelError("all states of a run must share the same principals")
        if self.environment in principals:
            raise ModelError("the environment must not be a system principal")
        names = [parameter.name for parameter, _ in self.params]
        if names != sorted(names):
            raise ModelError("Run.params must be sorted by parameter name")

    # -- time bookkeeping ----------------------------------------------------

    @property
    def end_time(self) -> int:
        """The last time of the represented window."""
        return self.start_time + len(self.states) - 1

    @property
    def times(self) -> range:
        """All times of the window, oldest first."""
        return range(self.start_time, self.end_time + 1)

    def has_time(self, k: int) -> bool:
        return self.start_time <= k <= self.end_time

    def state(self, k: int) -> GlobalState:
        """The global state ``r(k)``."""
        if not self.has_time(k):
            raise ModelError(f"time {k} outside run window {self.times}")
        return self.states[k - self.start_time]

    # -- principals ------------------------------------------------------------

    @property
    def principals(self) -> tuple[Principal, ...]:
        """The system principals."""
        return self.states[0].principals

    @property
    def all_principals(self) -> tuple[Principal, ...]:
        """System principals plus the environment."""
        return self.principals + (self.environment,)

    def is_system_principal(self, principal: Principal) -> bool:
        return principal in self.states[0].local_map

    # -- local views -----------------------------------------------------------

    def local(self, principal: Principal, k: int) -> LocalState:
        """The local state ``r_i(k)`` of a system principal."""
        return self.state(k).local(principal)

    def history(self, principal: Principal, k: int) -> tuple[Action, ...]:
        """The principal's local history at time k (env: its projection
        of the global history)."""
        state = self.state(k)
        if principal == self.environment:
            return state.env.actions_of(principal)
        return state.local(principal).history

    def keyset(self, principal: Principal, k: int) -> frozenset[Key]:
        """The principal's key set at time k."""
        state = self.state(k)
        if principal == self.environment:
            return state.env.keys
        return state.local(principal).keys

    def performed(self, principal: Principal, k: int) -> tuple[Action, ...]:
        """Actions the principal performed *at* time k (new in its history).

        At the first state of the window the whole history counts; runs
        built by :class:`~repro.model.builder.RunBuilder` start with
        empty histories, making performance times unambiguous.

        The environment projects only the global-history entries added
        since k-1 when its history at k extends the one at k-1.
        """
        if k > self.start_time and principal == self.environment:
            now, before = self.state(k).env.history, self.state(k - 1).env.history
            if now[:len(before)] == before:
                return tuple(
                    action for who, action in now[len(before):] if who == principal
                )
        now = self.history(principal, k)
        if k == self.start_time:
            return now
        before = self.history(principal, k - 1)
        return now[len(before):]

    def sends_by_time(self, principal: Principal) -> Iterator[tuple[int, tuple]]:
        """``(k, sends_performed_at(principal, k))`` at each time k with a
        send: one walk over the states, by :meth:`performed`'s rule."""
        env, before = principal == self.environment, None
        for k, state in enumerate(self.states, self.start_time):
            now = state.env if env else state.local(principal)
            if now is before:  # an unchanged state performed nothing
                continue
            done = 0 if before is None else len(before.history)
            new = now.history[done:]
            if env and done and now.history[:done] != before.history:
                new = now.actions_of(principal)[  # not an extension
                    len(before.actions_of(principal)):]
            elif env:
                new = [action for who, action in new if who == principal]
            before = now
            sends = tuple(action for action in new if isinstance(action, Send))
            if sends:
                yield k, sends

    # -- message bookkeeping ----------------------------------------------------

    def received_messages(self, principal: Principal, k: int) -> frozenset[Message]:
        """Messages m with ``receive(m)`` in the principal's history at k."""
        if principal != self.environment:  # the local state's cached set
            return self.state(k).local(principal).received_messages
        return frozenset(
            action.message
            for action in self.history(principal, k)
            if isinstance(action, Receive)
        )

    def sends(self, principal: Principal, k: int) -> tuple[Send, ...]:
        """All Send actions in the principal's history at time k."""
        return tuple(
            action
            for action in self.history(principal, k)
            if isinstance(action, Send)
        )

    def sends_performed_at(self, principal: Principal, k: int) -> tuple[Send, ...]:
        """Send actions the principal performed exactly at time k."""
        return tuple(
            action
            for action in self.performed(principal, k)
            if isinstance(action, Send)
        )

    def messages_sent_by(self, k: int) -> frozenset[Message]:
        """``M(r, k)``: messages sent by any principal by time k.

        Computed from the environment's global history, which tags every
        principal's actions (including the environment's own).
        """
        out: set[Message] = set()
        for _who, action in self.state(k).env.history:
            if isinstance(action, Send):
                out.add(action.message)
        return frozenset(out)

    # -- parameters -------------------------------------------------------------

    @cached_property
    def param_map(self) -> Mapping[Parameter, Atom]:
        return dict(self.params)

    def value_of(self, parameter: Parameter) -> Atom:
        try:
            return self.param_map[parameter]
        except KeyError:
            raise ModelError(
                f"run {self.name!r} assigns no value to parameter {parameter}"
            ) from None

    # -- misc ---------------------------------------------------------------------

    def points(self) -> Iterator[tuple["Run", int]]:
        """All points (r, k) of the window."""
        for k in self.times:
            yield (self, k)

    def epoch_points(self) -> Iterator[tuple["Run", int]]:
        """Points of the current epoch (k >= 0)."""
        for k in self.times:
            if k >= 0:
                yield (self, k)

    def __str__(self) -> str:
        return (
            f"Run({self.name!r}, {len(self.states)} states, "
            f"times {self.start_time}..{self.end_time})"
        )
