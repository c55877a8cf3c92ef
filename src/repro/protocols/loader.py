"""Protocol families read from spec files.

Each family of the corpus is one text file, ``specs/<module>.proto``,
written in the logic's own surface syntax (:mod:`repro.terms.parser`),
as the paper gives its protocols: idealized ``P -> Q : X`` and
``P : newkey(K)`` steps with initial assumptions and goals (Sections 2.3
and 4.3).  A spec is read, and every term in it parsed in the caller's
engine context, on each call; nothing is read while ``repro`` imports.

One directive per line; blank lines and ``#`` lines are ignored.

``protocol NAME``
    the family's name: its base protocol's name, and the prefix of its
    variants' (``NAME-VARIANT``).
``principals|keys|keypairs|nonces NAME...``
    declare constants, in vocabulary order.
``let NAME = TERM``
    name a message or formula for the lines that follow.  It may not
    shadow a declared constant; a variant's ``let`` rebinds a name for
    everything its protocols and runs read.
``describe TEXT``, ``assume FORMULA``, ``goal LABEL[ fails]: FORMULA``
    the description, an initial assumption, and a goal with its
    expected outcome (``fails`` records a published negative finding).
``P -> Q : MESSAGE``, ``P : newkey(KEY)``
    a step.
``-- TEXT``
    a note on the step or goal above; several lines join with spaces.
``holds LABEL...``
    in a variant: these goals are expected to hold after all.

Lines before the first section header are shared by both logics and
come first.  ``logic ban`` and ``logic at`` open the lines of one
idealization; ``variant NAME`` opens a variant, whose lines come last.

``runs PREFIX [VARIANT...]`` opens the concrete runs, built for the
base protocol and the listed variants (under ``PREFIX-VARIANT``).  Its
constants name run-only terms, such as an intruder's keys, and stay out
of the system's vocabulary.  ``P has KEY, ...`` gives a principal's
initial keys (``Env`` is the environment).  ``run NAME`` starts a run
named ``PREFIX-NAME``; in it a message step is sent and delivered,
``send P -> Q : MESSAGE`` is sent and never delivered, ``P :
newkey(KEY)`` acquires a key and ``idle`` lets time pass.  ``lost N``,
``wiretap N`` and ``replay N`` add an attack on the run's N-th send
(from 0), named ``RUN-lost-N`` and so on: its delivery dropped; routed
through the environment; or the whole run moved into the past with a
copy kept, to be delivered again after the epoch starts (Section 5).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace

from repro.errors import ProtocolError, ReproError
from repro.model.builder import RunBuilder
from repro.model.runs import ENVIRONMENT, Run
from repro.model.system import System, system_of
from repro.protocols.base import Goal, IdealizedProtocol, MessageStep, NewKeyStep
from repro.terms.atoms import Sort
from repro.terms.parser import parse_formula, parse_message
from repro.terms.vocabulary import Vocabulary

#: Declarations: each the plural of the Vocabulary method declaring one name.
_DECLARATIONS = ("principals", "keys", "keypairs", "nonces")
_HEADERS = ("logic", "variant", "runs")
_ATTACKS = ("lost", "wiretap", "replay")
_MESSAGE_STEP = re.compile(r"(\w+) *-> *(\w+) *: *(.+)")
_NEWKEY_STEP = re.compile(r"(\w+) *: *newkey\((.+)\)")
_HOLDING = re.compile(r"(\w+) +has +(.+)")
_GOAL = re.compile(r"([\w-]+)( +fails)? *: *(.+)")


@dataclass(frozen=True)
class _Line:
    where: str  # "file:number", for error messages
    word: str  # the directive
    rest: str
    text: str


def _apply(lines, read) -> None:
    """Feed lines to ``read``, locating any error at its line."""
    for line in lines:
        try:
            read(line)
        except ReproError as error:
            raise ProtocolError(f"{line.where}: {error}") from None


def _principal(name: str, principals):
    for principal in principals:
        if principal.name == name:
            return principal
    raise ProtocolError(f"{name!r} is not a declared principal")


def _step(text: str, scope: "_Scope", principals):
    """A message or newkey step line, or None for anything else."""
    match = _MESSAGE_STEP.fullmatch(text)
    if match:
        sender, receiver, message = match.groups()
        return MessageStep(_principal(sender, principals),
                           _principal(receiver, principals),
                           parse_message(message, scope))
    match = _NEWKEY_STEP.fullmatch(text)
    if match:
        return NewKeyStep(_principal(match[1], principals),
                          parse_message(match[2], scope))
    return None


def _unknown(line: _Line) -> ProtocolError:
    return ProtocolError(f"unknown directive {line.word!r}")


class _Scope:
    """What a spec's names mean: its declared constants and ``let``
    bindings.  The parser resolves identifiers through :meth:`lookup`."""

    def __init__(self) -> None:
        self.vocabulary = Vocabulary()
        self.bindings: dict = {}

    def lookup(self, name: str):
        if name in self.bindings:
            return self.bindings[name]
        return self.vocabulary.lookup(name)

    def read(self, line: _Line) -> None:
        """Take in a declaration or ``let`` line; skip any other."""
        if line.word in _DECLARATIONS:
            declare = getattr(self.vocabulary, line.word[:-1])
            for name in line.rest.split():
                if name in self.bindings:
                    raise ProtocolError(f"{name!r} is already a let name")
                declare(name)
        elif line.word == "let":
            name, equals, term = line.rest.partition("=")
            name = name.strip()
            if not equals or not name.isalnum() or not name[0].isalpha():
                raise ProtocolError("expected 'let NAME = TERM'")
            if name in self.vocabulary:
                raise ProtocolError(f"let {name!r} shadows a declared constant")
            self.bindings[name] = parse_message(term, self)


class _Idealization:
    """Collects one protocol's description, assumptions, steps and goals."""

    def __init__(self, scope: _Scope, principals) -> None:
        self.scope = scope
        self.principals = principals
        self.description = ""
        self.assumptions: list = []
        self.steps: list = []
        self.goals: list[Goal] = []
        self.noted: list | None = None  # where the last step or goal went

    def _goal_index(self, label: str) -> int:
        for index, goal in enumerate(self.goals):
            if goal.label == label:
                return index
        raise ProtocolError(f"no goal labelled {label!r}")

    def read(self, line: _Line) -> None:
        word, rest = line.word, line.rest
        if word in _DECLARATIONS or word in _HEADERS or word == "let":
            return
        if word == "describe":
            self.description = rest
        elif word == "assume":
            self.assumptions.append(parse_formula(rest, self.scope))
        elif word == "goal":
            match = _GOAL.fullmatch(rest)
            if match is None:
                raise ProtocolError("expected 'goal LABEL[ fails]: FORMULA'")
            label, fails, formula = match.groups()
            if any(goal.label == label for goal in self.goals):
                raise ProtocolError(f"goal label {label!r} repeated")
            self.goals.append(Goal(label, parse_formula(formula, self.scope),
                                   expected=not fails))
            self.noted = self.goals
        elif word == "holds":
            for label in rest.split():
                index = self._goal_index(label)
                self.goals[index] = replace(self.goals[index], expected=True)
        elif word == "--":
            if not self.noted:
                raise ProtocolError("a note must follow a step or goal")
            item = self.noted[-1]
            note = f"{item.note} {rest}" if item.note else rest
            self.noted[-1] = replace(item, note=note)
        else:
            step = _step(line.text, self.scope, self.principals)
            if step is None:
                raise _unknown(line)
            self.steps.append(step)
            self.noted = self.steps


class _Runs:
    """Collects the action scripts of a family's runs.

    An action is a :class:`RunBuilder` method name and its arguments,
    so one loop (:func:`_execute`) builds every run.
    """

    def __init__(self, scope: _Scope, principals, prefix: str) -> None:
        self.scope = scope
        self.principals = principals + (ENVIRONMENT,)
        self.prefix = prefix
        self.keysets: dict = {}
        self.scripts: list[tuple[str, list]] = []
        self.current: tuple[str, list] | None = None  # the last ``run``

    def _actions(self) -> list:
        if self.current is None:
            raise ProtocolError("run actions need a 'run NAME' line first")
        return self.current[1]

    def read(self, line: _Line) -> None:
        word, rest = line.word, line.rest
        if word in _DECLARATIONS or word in _HEADERS or word == "let":
            return
        if word == "run":
            self.current = (f"{self.prefix}-{rest}", [])
            self.scripts.append(self.current)
        elif word in _ATTACKS:
            actions = self._actions()
            if not rest.isdigit():
                raise ProtocolError(f"expected '{word} N'")
            self.scripts.append((f"{self.current[0]}-{word}-{rest}",
                                 _attack(word, actions, int(rest))))
        elif word == "idle":
            self._actions().append(("idle",))
        elif word == "send":
            step = _step(rest, self.scope, self.principals)
            if not isinstance(step, MessageStep):
                raise ProtocolError("expected 'send P -> Q : MESSAGE'")
            self._actions().append(
                ("send", step.sender, step.message, step.receiver))
        elif holding := _HOLDING.fullmatch(line.text):
            holder, keys = holding.groups()
            self.keysets[_principal(holder, self.principals)] = [
                parse_message(key, self.scope) for key in keys.split(",")
            ]
        else:
            step = _step(line.text, self.scope, self.principals)
            if isinstance(step, MessageStep):
                self._actions().extend([
                    ("send", step.sender, step.message, step.receiver),
                    ("receive", step.receiver, step.message),
                ])
            elif isinstance(step, NewKeyStep):
                self._actions().append(("newkey", step.principal, step.key))
            else:
                raise _unknown(line)


def _attack(kind: str, actions: list, number: int) -> list:
    """The script of an attack on a run's ``number``-th send."""
    sends = [index for index, action in enumerate(actions)
             if action[0] == "send"]
    if not 0 <= number < len(sends):
        raise ProtocolError(
            f"the run has {len(sends)} sends, index {number} out of range"
        )
    index = sends[number]
    _, sender, message, recipient = actions[index]
    delivery = ("receive", recipient, message)
    if kind == "lost":
        if delivery not in actions[index + 1:]:
            raise ProtocolError("no delivery found for the chosen send")
        later = actions.index(delivery, index + 1)
        return actions[:later] + actions[later + 1:]
    # The environment sees the message and relays an exact copy, which
    # WF3 permits since it has seen it.
    tapped = actions[:index] + [
        ("send", sender, message, ENVIRONMENT),
        ("receive", ENVIRONMENT, message),
        ("send", ENVIRONMENT, message, recipient),
    ] + actions[index + 1:]
    if kind == "wiretap":
        return tapped
    return tapped + [
        ("mark_epoch",),
        ("send", ENVIRONMENT, message, recipient),
        delivery,
    ]


def _execute(name: str, principals, keysets, env_keys, actions) -> Run:
    """Run one action script through the well-formedness-enforcing
    :class:`RunBuilder`."""
    builder = RunBuilder(principals, keysets, env_keys)
    for method, *arguments in actions:
        getattr(builder, method)(*arguments)
    return builder.build(name)


class _Spec:
    """One spec file, split into its sections of lines."""

    def __init__(self, path: Path) -> None:
        self.name = ""
        self.header: _Line | None = None
        self.sections: dict[str, list[_Line]] = {"": []}
        current = self.sections[""]
        text = path.read_text(encoding="utf-8")
        for number, raw in enumerate(text.splitlines(), start=1):
            stripped = raw.strip()
            if not stripped or stripped.startswith("#"):
                continue
            word, _, rest = stripped.partition(" ")
            line = _Line(f"{path.name}:{number}", word, rest.strip(), stripped)
            if word == "protocol" and self.header is None:
                self.name, self.header = line.rest, line
            elif word in _HEADERS:
                key = "runs" if word == "runs" else stripped
                if key in self.sections or not line.rest or (
                        word == "logic" and line.rest not in ("ban", "at")):
                    raise ProtocolError(f"{line.where}: bad section {stripped!r}")
                current = self.sections[key] = [line]
            else:
                current.append(line)
        if self.header is None:
            raise ProtocolError(f"{path.name}: no 'protocol NAME' line")

    def variants(self) -> tuple[str, ...]:
        return tuple(key.split()[1] for key in self.sections
                     if key.startswith("variant "))

    def _variant(self, variant: str | None) -> list[_Line]:
        if variant is None:
            return []
        if variant not in self.variants():
            raise ProtocolError(
                f"{self.header.where}: {self.name} declares no variant "
                f"{variant!r}"
            )
        return self.sections[f"variant {variant}"]

    def scope(self, variant: str | None) -> _Scope:
        """The family's constants and named terms, as the variant binds
        them."""
        scope = _Scope()
        _apply(self.sections[""] + self._variant(variant), scope.read)
        return scope

    def protocol(self, logic: str, variant: str | None) -> IdealizedProtocol:
        lines = (self.sections[""] + self.sections.get(f"logic {logic}", [])
                 + self._variant(variant))
        scope = _Scope()
        _apply(lines, scope.read)
        principals = scope.vocabulary.constants(Sort.PRINCIPAL)
        idealization = _Idealization(scope, principals)
        _apply(lines, idealization.read)
        return IdealizedProtocol(
            name=self.name if variant is None else f"{self.name}-{variant}",
            logic=logic,
            description=idealization.description,
            vocabulary=scope.vocabulary,
            principals=principals,
            steps=tuple(idealization.steps),
            assumptions=tuple(idealization.assumptions),
            goals=tuple(idealization.goals),
        )

    def system(self, variant: str | None) -> System:
        if "runs" not in self.sections:
            raise ProtocolError(f"{self.header.where}: {self.name} has no runs")
        lines = self.sections["runs"]
        prefix, *covered = lines[0].rest.split()
        scope = self.scope(variant)
        if variant is not None:
            if variant not in covered:
                raise ProtocolError(
                    f"{lines[0].where}: the runs of {self.name} do not "
                    f"cover variant {variant!r}"
                )
            prefix = f"{prefix}-{variant}"
        vocabulary = Vocabulary.of(scope.vocabulary)
        principals = vocabulary.constants(Sort.PRINCIPAL)
        _apply(lines, scope.read)
        runs = _Runs(scope, principals, prefix)
        _apply(lines, runs.read)
        env_keys = runs.keysets.pop(ENVIRONMENT, ())
        return system_of(
            [_execute(name, principals, runs.keysets, env_keys, actions)
             for name, actions in runs.scripts],
            vocabulary=vocabulary,
        )


class ProtocolFamily:
    """A protocol family, read from its spec file.

    Every method reads the spec afresh and builds its terms in the
    caller's engine context.  ``variant`` names one of the variants the
    spec declares; ``None`` is the base protocol.
    """

    def __init__(self, path: Path) -> None:
        self.path = path

    @property
    def name(self) -> str:
        return _Spec(self.path).name

    @property
    def variants(self) -> tuple[str, ...]:
        return _Spec(self.path).variants()

    def ban_protocol(self, variant: str | None = None) -> IdealizedProtocol:
        """The idealization for the original BAN logic."""
        return _Spec(self.path).protocol("ban", variant)

    def at_protocol(self, variant: str | None = None) -> IdealizedProtocol:
        """The idealization for the reformulated logic (Section 4)."""
        return _Spec(self.path).protocol("at", variant)

    def build_system(self, variant: str | None = None) -> System:
        """The family's concrete runs, attacks included, as one system."""
        return _Spec(self.path).system(variant)

    def terms(self, variant: str | None = None) -> SimpleNamespace:
        """The spec's declared constants and ``let`` terms by name, and
        its ``vocabulary``."""
        scope = _Spec(self.path).scope(variant)
        return SimpleNamespace(
            vocabulary=scope.vocabulary,
            **{symbol.name: symbol for symbol in scope.vocabulary},
            **scope.bindings,
        )
