"""Idealized protocols (Sections 2.3 and 4.3).

An idealized protocol is a sequence of steps of the form ``P -> Q : X``
where X is an expression of the logical language, plus — in the
reformulated logic — steps of the form ``P : newkey(K)`` asserting that
P has added K to its key set.

Each protocol carries its initial assumptions and its goals; goals are
annotated with the *expected* outcome, because reproducing the
published findings means reproducing the failures (e.g. Needham-
Schroeder's missing freshness for B) as much as the successes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

from repro.errors import ProtocolError
from repro.terms.atoms import Key, Parameter, Principal, Sort
from repro.terms.base import Message
from repro.terms.formulas import Formula
from repro.terms.vocabulary import Vocabulary


@dataclass(frozen=True)
class MessageStep:
    """``sender -> receiver : message``."""

    sender: Principal
    receiver: Principal
    message: Message
    note: str = ""

    def __str__(self) -> str:
        return f"{self.sender} -> {self.receiver} : {self.message}"


@dataclass(frozen=True)
class NewKeyStep:
    """``principal : newkey(key)`` (Section 4.3)."""

    principal: Principal
    key: Message  # a Key constant or key-sorted Parameter
    note: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.key, Key) and not (
            isinstance(self.key, Parameter) and self.key.value_sort is Sort.KEY
        ):
            raise ProtocolError(f"newkey step needs a key, got {self.key!r}")

    def __str__(self) -> str:
        return f"{self.principal} : newkey({self.key})"


Step = Union[MessageStep, NewKeyStep]


@dataclass(frozen=True)
class Goal:
    """A target assertion with its expected derivability.

    ``expected=False`` records a published *negative* finding — the goal
    the original analysis could not establish (protocol flaw).
    """

    label: str
    formula: Formula
    expected: bool = True
    note: str = ""

    def __str__(self) -> str:
        marker = "✓" if self.expected else "✗ (expected to fail)"
        return f"{self.label}: {self.formula}  [{marker}]"


@dataclass(frozen=True)
class IdealizedProtocol:
    """A complete idealized protocol with assumptions and goals."""

    name: str
    logic: str  # "ban" or "at"
    description: str
    vocabulary: Vocabulary
    principals: tuple[Principal, ...]
    steps: tuple[Step, ...]
    assumptions: tuple[Formula, ...]
    goals: tuple[Goal, ...]

    def __post_init__(self) -> None:
        if self.logic not in ("ban", "at"):
            raise ProtocolError(f"unknown logic {self.logic!r}")
        for step in self.steps:
            if isinstance(step, MessageStep):
                if step.sender not in self.principals:
                    raise ProtocolError(f"unknown sender in step {step}")
                if step.receiver not in self.principals:
                    raise ProtocolError(f"unknown receiver in step {step}")
            elif isinstance(step, NewKeyStep):
                if step.principal not in self.principals:
                    raise ProtocolError(f"unknown principal in step {step}")
            else:
                raise ProtocolError(f"unknown step type {step!r}")

    def message_steps(self) -> Iterator[MessageStep]:
        for step in self.steps:
            if isinstance(step, MessageStep):
                yield step

    def all_messages(self) -> tuple[Message, ...]:
        return tuple(step.message for step in self.message_steps())

    def pretty(self) -> str:
        lines = [f"Protocol {self.name} ({self.logic} idealization)"]
        lines.append(f"  {self.description}")
        lines.append("  Assumptions:")
        for assumption in self.assumptions:
            lines.append(f"    {assumption}")
        lines.append("  Steps:")
        for index, step in enumerate(self.steps, start=1):
            lines.append(f"    {index}. {step}")
        lines.append("  Goals:")
        for goal in self.goals:
            lines.append(f"    {goal}")
        return "\n".join(lines)
