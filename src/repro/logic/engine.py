"""Forward-chaining derivation over facts.

The engine closes a fact set under pattern-directed rules, each of
which is backed by an axiom instance of Section 4.2 (or of a flagged
extra schema) — or, for the BAN engine, by an inference rule of
Section 2.2.  Rules fire uniformly inside belief prefixes: if the
axioms prove φ1 ∧ ... ∧ φn ⊃ ψ, then by necessitation, A4 and A1 the
same implication holds under any chain of ``believes`` operators,
which is exactly :func:`repro.logic.certify.lift_implication`.

Every derived fact records the rule and premise facts that produced it,
so a completed :class:`Derivation` can replay a human-readable proof
tree for any conclusion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Protocol, Sequence

from repro.errors import EngineError
from repro.logic.facts import Fact, FactIndex, normalize_to_facts
from repro.terms.atoms import Parameter, Sort
from repro.terms.base import Message
from repro.terms.formulas import Formula
from repro.terms.messages import Combined, Encrypted, Forwarded, Group
from repro.terms.ops import walk


class MessagePool:
    """The finite message universe a derivation works inside.

    Freshness lifting (A16-A19) and quantifier instantiation need a
    bounded set of candidate messages; the pool is the sub-message
    closure of the protocol's messages, assumptions, and goals.
    """

    def __init__(self, seeds: Iterable[Message]) -> None:
        closure: dict[Message, None] = {}
        for seed in seeds:
            for node in walk(seed):
                closure[node] = None
        self.messages: tuple[Message, ...] = tuple(closure)
        self._supermessages: dict[Message, list[Message]] = {}
        for message in self.messages:
            for child in _freshness_children(message):
                self._supermessages.setdefault(child, []).append(message)

    def supermessages(self, message: Message) -> tuple[Message, ...]:
        """Pool messages directly containing ``message`` in the sense of
        the freshness axioms A16-A19."""
        return tuple(self._supermessages.get(message, ()))

    def terms_of_sort(self, sort: Sort) -> tuple[Message, ...]:
        """Constants and parameters of a sort occurring in the pool
        (candidates for instantiating universal quantifiers)."""
        out: list[Message] = []
        for message in self.messages:
            if isinstance(message, Parameter) and message.value_sort is sort:
                out.append(message)
            elif _atom_sort(message) is sort:
                out.append(message)
        return tuple(dict.fromkeys(out))


def _atom_sort(message: Message) -> Sort | None:
    from repro.terms.atoms import Atom

    if isinstance(message, Atom):
        return message.sort
    return None


def _freshness_children(message: Message) -> tuple[Message, ...]:
    """The direct containment steps the freshness axioms lift across."""
    match message:
        case Group(parts):
            return parts
        case Encrypted(body, _key, _sender):
            return (body,)
        case Combined(body, _secret, _sender):
            return (body,)
        case Forwarded(body):
            return (body,)
        case _:
            return ()


@dataclass(frozen=True)
class Inference:
    """A proposed new conclusion with its provenance."""

    conclusion: Formula | Fact
    rule: str
    premises: tuple[Fact, ...]


class Rule(Protocol):
    """A forward rule: scans the index, yields inferences."""

    name: str
    justification: str

    def apply(self, index: FactIndex, pool: MessagePool) -> Iterator[Inference]:
        ...  # pragma: no cover - protocol


@dataclass
class Derivation:
    """The closed fact set together with provenance for each fact."""

    index: FactIndex
    origins: dict[Fact, tuple[str, tuple[Fact, ...]]] = field(default_factory=dict)

    def holds(self, formula: Formula) -> bool:
        """True iff every normalized fact of the formula was derived."""
        return all(fact in self.index for fact in normalize_to_facts(formula))

    def missing(self, formula: Formula) -> tuple[Fact, ...]:
        return tuple(
            fact for fact in normalize_to_facts(formula) if fact not in self.index
        )

    def explain(self, formula: Formula, max_depth: int = 12) -> str:
        """A proof-tree rendering of how the formula was derived."""
        lines: list[str] = []
        for fact in normalize_to_facts(formula):
            self._explain_fact(fact, 0, lines, max_depth, set())
        return "\n".join(lines)

    def _explain_fact(
        self,
        fact: Fact,
        depth: int,
        lines: list[str],
        max_depth: int,
        seen: set[Fact],
    ) -> None:
        pad = "  " * depth
        if fact not in self.index:
            lines.append(f"{pad}✗ {fact}  [NOT DERIVED]")
            return
        origin = self.origins.get(fact)
        label = origin[0] if origin else "given"
        lines.append(f"{pad}• {fact}  [{label}]")
        if origin and depth < max_depth and fact not in seen:
            seen = seen | {fact}
            for premise in origin[1]:
                self._explain_fact(premise, depth + 1, lines, max_depth, seen)


class Engine:
    """Runs a rule set to fixpoint over a fact set.

    Args:
        rules: the forward rules (AT or BAN rule sets).
        max_facts: resource bound; exceeding it raises EngineError.
        max_prefix: beliefs nested deeper than this are not generated.
    """

    def __init__(
        self,
        rules: Sequence[Rule],
        max_facts: int = 50_000,
        max_prefix: int = 4,
    ) -> None:
        self.rules = tuple(rules)
        self.max_facts = max_facts
        self.max_prefix = max_prefix

    def close(
        self,
        formulas: Iterable[Formula],
        pool: MessagePool,
        extra_facts: Iterable[Fact] = (),
    ) -> Derivation:
        """Close the given formulas (plus raw facts) under the rules."""
        index = FactIndex()
        derivation = Derivation(index)
        for formula in formulas:
            for fact in normalize_to_facts(formula):
                self._admit(derivation, fact, "given", ())
        for fact in extra_facts:
            self._admit(derivation, fact, "given", ())

        changed = True
        while changed:
            changed = False
            for rule in self.rules:
                for inference in rule.apply(index, pool):
                    if self._integrate(derivation, inference):
                        changed = True
            if len(index) > self.max_facts:
                raise EngineError(
                    f"derivation exceeded {self.max_facts} facts; "
                    "the rule set or pool is too permissive"
                )
        return derivation

    def _integrate(self, derivation: Derivation, inference: Inference) -> bool:
        conclusion = inference.conclusion
        if isinstance(conclusion, Fact):
            facts: tuple[Fact, ...] = (conclusion,)
        else:
            facts = normalize_to_facts(conclusion)
        added = False
        for fact in facts:
            if len(fact.prefix) > self.max_prefix:
                continue
            if self._admit(derivation, fact, inference.rule, inference.premises):
                added = True
        return added

    @staticmethod
    def _admit(
        derivation: Derivation,
        fact: Fact,
        rule: str,
        premises: tuple[Fact, ...],
    ) -> bool:
        if derivation.index.add(fact):
            if rule != "given":
                derivation.origins[fact] = (rule, premises)
            return True
        return False
