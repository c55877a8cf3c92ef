"""Local, environment, and global states (Section 5).

A principal's local state includes a *local history* (the sequence of
all actions the principal has ever performed) and a *key set* (the set
of keys the principal holds).  The environment's state includes a
*global history* (every principal's actions, tagged with the performing
principal), its own key set, and a *message buffer* for each system
principal containing messages sent to it but not yet delivered.

States are frozen and hashable: the belief semantics (Section 6)
compares local states — after hiding unreadable ciphertexts — for
indistinguishability, so value equality is load-bearing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from repro.errors import ModelError
from repro.model.actions import Action, NewKey, Receive, Send
from repro.terms.atoms import Key, Principal
from repro.terms.base import Message


@dataclass(frozen=True)
class LocalState:
    """The local state of a system principal.

    Attributes:
        history: every action the principal has performed, oldest first.
        keys: the principal's key set.
        data: application-specific local data as sorted (name, value)
            pairs — e.g. the outcome of a coin toss in Section 7's
            counterexample.  Values must be hashable.
    """

    history: tuple[Action, ...] = ()
    keys: frozenset[Key] = frozenset()
    data: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if not all(isinstance(action, Action) for action in self.history):
            raise ModelError("LocalState.history must contain only Actions")
        if not all(isinstance(key, Key) for key in self.keys):
            raise ModelError("LocalState.keys must contain only Keys")
        if tuple(sorted(self.data)) != self.data:
            raise ModelError("LocalState.data must be sorted (name, value) pairs")

    # -- derived views -------------------------------------------------------

    @cached_property
    def received_messages(self) -> frozenset[Message]:
        """Messages m with ``receive(m)`` in the history (Section 5)."""
        return frozenset(
            action.message for action in self.history if isinstance(action, Receive)
        )

    @cached_property
    def sent_messages(self) -> frozenset[Message]:
        """Messages m with ``send(m, .)`` in the history."""
        return frozenset(
            action.message for action in self.history if isinstance(action, Send)
        )

    def datum(self, name: str, default: object = None) -> object:
        """Fetch an application datum by name."""
        for key, value in self.data:
            if key == name:
                return value
        return default

    # -- construction helpers ------------------------------------------------

    def after(self, action: Action) -> "LocalState":
        """The state after performing ``action`` (appends to history,
        and grows the key set for ``newkey``).

        Only the appended action is validated: this state was already
        checked on construction, so re-walking the whole history (as
        ``__post_init__`` would) is redundant — and turns run building
        quadratic.
        """
        if not isinstance(action, Action):
            raise ModelError("LocalState.history must contain only Actions")
        keys = self.keys
        if isinstance(action, NewKey):
            if not isinstance(action.key, Key):
                raise ModelError("LocalState.keys must contain only Keys")
            keys = keys | {action.key}
        clone = object.__new__(LocalState)
        object.__setattr__(clone, "history", self.history + (action,))
        object.__setattr__(clone, "keys", keys)
        object.__setattr__(clone, "data", self.data)
        # Carry the derived message sets forward incrementally when the
        # parent already computed them: recomputing from scratch would
        # re-walk the whole history on every builder query.
        cache = self.__dict__
        received = cache.get("received_messages")
        if received is not None:
            if isinstance(action, Receive):
                received = received | {action.message}
            clone.__dict__["received_messages"] = received
        sent = cache.get("sent_messages")
        if sent is not None:
            if isinstance(action, Send):
                sent = sent | {action.message}
            clone.__dict__["sent_messages"] = sent
        return clone

    def with_data(self, name: str, value: object) -> "LocalState":
        """A copy with one application datum set (replacing any old value)."""
        items = dict(self.data)
        items[name] = value
        return self._same_history(self.keys, tuple(sorted(items.items())))

    def with_keys(self, keys: Iterable[Key]) -> "LocalState":
        """A copy with extra keys added to the key set."""
        return self._same_history(self.keys | frozenset(keys), self.data)

    def _same_history(self, keys, data) -> "LocalState":
        """A copy with this history, carrying the message sets derived
        from it that this state has computed."""
        clone = LocalState(self.history, keys, data)
        for name in ("received_messages", "sent_messages"):
            derived = self.__dict__.get(name)
            if derived is not None:
                clone.__dict__[name] = derived
        return clone


@dataclass(frozen=True)
class EnvState:
    """The distinguished environment principal's state.

    The environment "encodes all interesting aspects of the global state
    that cannot be deduced from the local states of the system
    principals", here the global history and the in-transit buffers.
    """

    history: tuple[tuple[Principal, Action], ...] = ()
    keys: frozenset[Key] = frozenset()
    buffers: tuple[tuple[Principal, tuple[Message, ...]], ...] = ()
    data: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        for entry in self.history:
            if (
                not isinstance(entry, tuple)
                or len(entry) != 2
                or not isinstance(entry[0], Principal)
                or not isinstance(entry[1], Action)
            ):
                raise ModelError("EnvState.history entries must be (Principal, Action)")
        if tuple(sorted(self.buffers, key=lambda kv: kv[0].name)) != self.buffers:
            raise ModelError("EnvState.buffers must be sorted by principal name")

    @cached_property
    def buffer_map(self) -> Mapping[Principal, tuple[Message, ...]]:
        return dict(self.buffers)

    def buffer(self, principal: Principal) -> tuple[Message, ...]:
        """The pending (sent, undelivered) messages addressed to a principal."""
        return self.buffer_map.get(principal, ())

    def actions_of(self, principal: Principal) -> tuple[Action, ...]:
        """Project the global history onto one principal."""
        return tuple(action for who, action in self.history if who == principal)

    def with_buffers(
        self, buffers: Mapping[Principal, tuple[Message, ...]]
    ) -> "EnvState":
        packed = tuple(sorted(buffers.items(), key=lambda kv: kv[0].name))
        return self._evolved(self.history, self.keys, packed)

    def with_key(self, key: Key) -> "EnvState":
        """A copy with one key added to the environment's key set."""
        if not isinstance(key, Key):
            raise ModelError("EnvState.keys must contain only Keys")
        return self._evolved(self.history, self.keys | {key}, self.buffers)

    def record(self, principal: Principal, action: Action) -> "EnvState":
        """Append a tagged action to the global history.

        Only the appended entry is validated; the existing history was
        checked when this state was built (see ``LocalState.after``).
        """
        if not isinstance(principal, Principal) or not isinstance(action, Action):
            raise ModelError("EnvState.history entries must be (Principal, Action)")
        return self._evolved(
            self.history + ((principal, action),), self.keys, self.buffers
        )

    def _evolved(self, history, keys, buffers) -> "EnvState":
        # Trusted fast path for the transition helpers above: the parts
        # they carry over are valid by induction, and the parts they
        # change are validated (or sorted) before we get here.
        clone = object.__new__(EnvState)
        object.__setattr__(clone, "history", history)
        object.__setattr__(clone, "keys", keys)
        object.__setattr__(clone, "buffers", buffers)
        object.__setattr__(clone, "data", self.data)
        if buffers is self.buffers:
            # Same buffers tuple, same derived view (consumers copy
            # before mutating).
            view = self.__dict__.get("buffer_map")
            if view is not None:
                clone.__dict__["buffer_map"] = view
        return clone


@dataclass(frozen=True)
class GlobalState:
    """A global state ``(s_e, s_1, ..., s_n)``.

    ``locals_`` is a sorted tuple of (principal, local state) pairs; the
    environment's state is held separately in ``env``.
    """

    env: EnvState
    locals_: tuple[tuple[Principal, LocalState], ...]

    def __post_init__(self) -> None:
        names = [principal.name for principal, _ in self.locals_]
        if names != sorted(names):
            raise ModelError("GlobalState.locals_ must be sorted by principal name")
        if len(set(names)) != len(names):
            raise ModelError("GlobalState has duplicate principals")

    @cached_property
    def local_map(self) -> Mapping[Principal, LocalState]:
        return dict(self.locals_)

    @cached_property
    def principals(self) -> tuple[Principal, ...]:
        """The system principals (the environment is not included)."""
        return tuple(principal for principal, _ in self.locals_)

    def local(self, principal: Principal) -> LocalState:
        try:
            return self.local_map[principal]
        except KeyError:
            raise ModelError(f"{principal} is not a system principal here") from None

    def with_local(self, principal: Principal, state: LocalState) -> "GlobalState":
        # In-place replacement keeps the tuple sorted and duplicate-free
        # by construction, so the __post_init__ re-check can be skipped.
        for index, (existing, _) in enumerate(self.locals_):
            if existing == principal:
                packed = (
                    self.locals_[:index]
                    + ((principal, state),)
                    + self.locals_[index + 1:]
                )
                clone = self._evolved(self.env, packed)
                base = self.__dict__.get("local_map")
                if base is not None:
                    updated = dict(base)
                    updated[principal] = state
                    clone.__dict__["local_map"] = updated
                names = self.__dict__.get("principals")
                if names is not None:
                    clone.__dict__["principals"] = names
                return clone
        raise ModelError(f"{principal} is not a system principal here")

    def with_env(self, env: EnvState) -> "GlobalState":
        clone = self._evolved(env, self.locals_)
        # locals_ is shared verbatim, so its derived views are too (all
        # consumers copy before mutating).
        for name in ("local_map", "principals"):
            value = self.__dict__.get(name)
            if value is not None:
                clone.__dict__[name] = value
        return clone

    def _evolved(self, env: EnvState, locals_) -> "GlobalState":
        clone = object.__new__(GlobalState)
        object.__setattr__(clone, "env", env)
        object.__setattr__(clone, "locals_", locals_)
        return clone

    @classmethod
    def initial(
        cls,
        principals: Iterable[Principal],
        keysets: Mapping[Principal, Iterable[Key]] | None = None,
        env_keys: Iterable[Key] = (),
        data: Mapping[Principal, Mapping[str, object]] | None = None,
    ) -> "GlobalState":
        """The first state of a run: empty histories and buffers.

        Key sets (and application data) may be nonempty — the paper only
        requires histories and buffers to start empty, "but the values
        of other components depend on the application being modeled".
        """
        keysets = keysets or {}
        data = data or {}
        locals_: list[tuple[Principal, LocalState]] = []
        for principal in principals:
            state = LocalState(
                keys=frozenset(keysets.get(principal, ())),
                data=tuple(sorted(data.get(principal, {}).items())),
            )
            # Nothing received yet: ``after`` carries this set along the
            # principal's states, one set shared until its next receive.
            state.__dict__["received_messages"] = frozenset()
            locals_.append((principal, state))
        locals_.sort(key=lambda kv: kv[0].name)
        return cls(EnvState(keys=frozenset(env_keys)), tuple(locals_))
