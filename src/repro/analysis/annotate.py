"""The protocol-annotation procedure (Sections 2.3 and 4.3).

To analyze a protocol: write the initial assumptions before the first
statement; after each step ``P -> Q : X`` assert ``Q sees X`` (and after
``P : newkey(K)`` assert ``P has K``); close under the logic's rules;
and check whether the goals annotate the final statement.

:func:`analyze` runs the procedure with either engine, recording which
facts become derivable after each step — the machine version of the
paper's "a formula is written after each statement to describe the
state of affairs after that step has been taken".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ProtocolError
from repro.banlogic.rules import ban_rules
from repro.logic.engine import Derivation, Engine, MessagePool
from repro.logic.facts import Fact
from repro.logic.rules import standard_rules
from repro.protocols.base import Goal, IdealizedProtocol, MessageStep, NewKeyStep
from repro.terms.formulas import Formula, Has, Sees


@dataclass(frozen=True)
class StepAnnotation:
    """The assertions newly derivable after one protocol step."""

    step_index: int  # 0 = initial assumptions
    step_text: str
    asserted: tuple[Fact, ...]
    derived: tuple[Fact, ...]

    def pretty(self, limit: int = 12) -> str:
        lines = [f"after {self.step_text}:"]
        for fact in self.asserted:
            lines.append(f"  + {fact}  [asserted]")
        for fact in self.derived[:limit]:
            lines.append(f"  + {fact}")
        if len(self.derived) > limit:
            lines.append(f"  ... and {len(self.derived) - limit} more")
        return "\n".join(lines)


@dataclass(frozen=True)
class GoalResult:
    goal: Goal
    achieved: bool

    @property
    def as_expected(self) -> bool:
        return self.achieved == self.goal.expected

    def __str__(self) -> str:
        status = "derived" if self.achieved else "NOT derived"
        expected = "as expected" if self.as_expected else "UNEXPECTED"
        return f"{self.goal.label}: {status} ({expected})"


@dataclass(frozen=True)
class AnalysisReport:
    """The complete outcome of annotating one idealized protocol."""

    protocol: IdealizedProtocol
    engine_logic: str
    annotations: tuple[StepAnnotation, ...]
    derivation: Derivation
    goal_results: tuple[GoalResult, ...]

    @property
    def all_as_expected(self) -> bool:
        return all(result.as_expected for result in self.goal_results)

    def explain_goal(self, label: str) -> str:
        for result in self.goal_results:
            if result.goal.label == label:
                return self.derivation.explain(result.goal.formula)
        raise ProtocolError(f"no goal labelled {label!r}")

    def pretty(self) -> str:
        lines = [
            f"=== {self.protocol.name} analyzed in the "
            f"{'original BAN' if self.engine_logic == 'ban' else 'reformulated'}"
            f" logic ==="
        ]
        for annotation in self.annotations:
            lines.append(annotation.pretty())
        lines.append("Goals:")
        for result in self.goal_results:
            lines.append(f"  {result}")
        return "\n".join(lines)


def step_assertions(step, logic: str) -> tuple[Formula, ...]:
    """The annotation a step contributes (Sections 2.3 / 4.3).

    ``P -> Q : X`` asserts ``Q sees X``.  ``P : newkey(K)`` asserts
    ``P has K`` in the reformulated logic (the BAN logic has no ``has``
    construct, so the step contributes nothing there).
    """
    if isinstance(step, MessageStep):
        return (Sees(step.receiver, step.message),)
    if isinstance(step, NewKeyStep):
        if logic == "at":
            return (Has(step.principal, step.key),)
        return ()
    raise ProtocolError(f"unknown step {step!r}")


def build_pool(protocol: IdealizedProtocol) -> MessagePool:
    """The message universe: sub-closure of steps, assumptions, goals."""
    seeds = list(protocol.all_messages())
    seeds.extend(protocol.assumptions)
    seeds.extend(goal.formula for goal in protocol.goals)
    return MessagePool(seeds)


def make_engine(logic: str, max_prefix: int = 4) -> Engine:
    if logic == "ban":
        return Engine(ban_rules(), max_prefix=max_prefix)
    if logic == "at":
        return Engine(standard_rules(), max_prefix=max_prefix)
    raise ProtocolError(f"unknown logic {logic!r}")


def analyze(
    protocol: IdealizedProtocol,
    logic: str | None = None,
    max_prefix: int = 4,
) -> AnalysisReport:
    """Annotate the protocol and check its goals.

    Args:
        protocol: the idealized protocol (its own ``logic`` field names
            the idealization style).
        logic: which engine to run — defaults to the protocol's own
            idealization logic.
        max_prefix: bound on belief-nesting depth.
    """
    logic = logic or protocol.logic
    engine = make_engine(logic, max_prefix)
    pool = build_pool(protocol)

    annotations: list[StepAnnotation] = []
    formulas: list[Formula] = list(protocol.assumptions)
    derivation = engine.close(formulas, pool)
    known = set(derivation.index)
    annotations.append(
        StepAnnotation(
            0,
            "initial assumptions",
            tuple(),
            tuple(sorted(known, key=str)),
        )
    )

    for number, step in enumerate(protocol.steps, start=1):
        assertions = step_assertions(step, logic)
        formulas.extend(assertions)
        derivation = engine.close(formulas, pool)
        new = set(derivation.index) - known
        known = set(derivation.index)
        asserted_facts = tuple(
            fact
            for formula in assertions
            for fact in derivation.index
            if fact.to_formula() == formula
        )
        annotations.append(
            StepAnnotation(
                number,
                str(step),
                asserted_facts,
                tuple(sorted(new - set(asserted_facts), key=str)),
            )
        )

    goal_results = tuple(
        GoalResult(goal, derivation.holds(goal.formula))
        for goal in protocol.goals
    )
    return AnalysisReport(protocol, logic, tuple(annotations), derivation,
                          goal_results)
