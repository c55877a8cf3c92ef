"""Checked Hilbert-style proofs (Section 4.2).

The reformulated proof system has exactly two inference rules:

* **R1 (modus ponens)** — from ⊢ φ and ⊢ φ ⊃ ψ infer ⊢ ψ;
* **R2 (necessitation)** — from ⊢ φ infer ⊢ P believes φ;

over the axioms: all propositional tautology instances plus the schema
instances of :mod:`repro.logic.axioms`.

A :class:`Proof` is a sequence of steps, each carrying its
justification; :meth:`Proof.check` validates every step independently
of how the proof was found.  Proofs may use *premises* (turning the
proof into a derivation); necessitation is only permitted on lines that
do not depend on premises, which keeps R2 sound (it preserves validity,
not pointwise truth).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ProofError
from repro.logic.axioms import schema
from repro.logic.tautology import is_tautology
from repro.terms.atoms import Principal
from repro.terms.formulas import Believes, Formula, Implies


@dataclass(frozen=True)
class Justification:
    """Base class for step justifications."""


@dataclass(frozen=True)
class ByTautology(Justification):
    """The formula is an instance of a propositional tautology."""

    def __str__(self) -> str:
        return "tautology"


@dataclass(frozen=True)
class ByAxiom(Justification):
    """An instance of a named axiom schema, rebuilt from ``args``."""

    name: str
    args: tuple = ()

    def __str__(self) -> str:
        return f"axiom {self.name}"


@dataclass(frozen=True)
class ByPremise(Justification):
    """An assumed premise (makes the proof a derivation)."""

    def __str__(self) -> str:
        return "premise"


@dataclass(frozen=True)
class ByModusPonens(Justification):
    """R1 from step indices ``antecedent`` (φ) and ``implication`` (φ ⊃ ψ)."""

    antecedent: int
    implication: int

    def __str__(self) -> str:
        return f"MP {self.antecedent}, {self.implication}"


@dataclass(frozen=True)
class ByNecessitation(Justification):
    """R2 applied to step ``premise`` for the given principal."""

    premise: int
    principal: Principal

    def __str__(self) -> str:
        return f"Nec({self.principal}) {self.premise}"


@dataclass(frozen=True)
class Step:
    formula: Formula
    justification: Justification

    def __str__(self) -> str:
        return f"{self.formula}   [{self.justification}]"


@dataclass(frozen=True)
class Proof:
    """A checked (or checkable) Hilbert proof of its last formula."""

    steps: tuple[Step, ...]

    @property
    def conclusion(self) -> Formula:
        if not self.steps:
            raise ProofError("empty proof has no conclusion")
        return self.steps[-1].formula

    @property
    def premises(self) -> tuple[Formula, ...]:
        return tuple(
            step.formula
            for step in self.steps
            if isinstance(step.justification, ByPremise)
        )

    def check(self) -> None:
        """Validate every step; raises :class:`ProofError` on failure."""
        depends: list[bool] = []
        for index, step in enumerate(self.steps):
            justification = step.justification
            if isinstance(justification, ByTautology):
                if not is_tautology(step.formula):
                    raise ProofError(
                        f"step {index}: {step.formula} is not a tautology"
                    )
                depends.append(False)
            elif isinstance(justification, ByAxiom):
                try:
                    expected = schema(justification.name).build(
                        *justification.args
                    )
                except ProofError as error:
                    raise ProofError(f"step {index}: {error}") from None
                except Exception as error:
                    raise ProofError(
                        f"step {index}: axiom {justification.name!r} instance "
                        f"cannot be rebuilt from {justification.args!r}: "
                        f"{error}"
                    ) from error
                if expected != step.formula:
                    raise ProofError(
                        f"step {index}: formula does not match axiom "
                        f"{justification.name} instance {expected}"
                    )
                depends.append(False)
            elif isinstance(justification, ByPremise):
                depends.append(True)
            elif isinstance(justification, ByModusPonens):
                ant = self._fetch(index, justification.antecedent)
                imp = self._fetch(index, justification.implication)
                if not isinstance(imp.formula, Implies):
                    raise ProofError(
                        f"step {index}: MP major premise {imp.formula} "
                        "is not an implication"
                    )
                if imp.formula.antecedent != ant.formula:
                    raise ProofError(
                        f"step {index}: MP antecedent mismatch: "
                        f"{imp.formula.antecedent} vs {ant.formula}"
                    )
                if imp.formula.consequent != step.formula:
                    raise ProofError(
                        f"step {index}: MP consequent mismatch: expected "
                        f"{imp.formula.consequent}, got {step.formula}"
                    )
                depends.append(
                    depends[justification.antecedent]
                    or depends[justification.implication]
                )
            elif isinstance(justification, ByNecessitation):
                base = self._fetch(index, justification.premise)
                if depends[justification.premise]:
                    raise ProofError(
                        f"step {index}: necessitation applied to a "
                        "premise-dependent line"
                    )
                try:
                    expected = Believes(justification.principal, base.formula)
                except Exception as error:
                    raise ProofError(
                        f"step {index}: necessitation principal "
                        f"{justification.principal!r} is malformed: {error}"
                    ) from error
                if expected != step.formula:
                    raise ProofError(
                        f"step {index}: necessitation mismatch: expected "
                        f"{expected}, got {step.formula}"
                    )
                depends.append(False)
            else:
                raise ProofError(
                    f"step {index}: unknown justification "
                    f"{type(justification).__name__}"
                )

    def _fetch(self, current: int, index: int) -> Step:
        if type(index) is not int:
            raise ProofError(
                f"step {current}: step reference {index!r} is not an integer"
            )
        if not 0 <= index < current:
            raise ProofError(
                f"step {current}: reference to step {index} out of range"
            )
        return self.steps[index]

    def is_theorem(self) -> bool:
        """True iff the proof uses no premises."""
        return not self.premises

    def pretty(self) -> str:
        lines = []
        for index, step in enumerate(self.steps):
            lines.append(f"{index:>3}. {step.formula}")
            lines.append(f"       [{step.justification}]")
        return "\n".join(lines)


class ProofBuilder:
    """Incrementally assemble a proof; every helper returns the new index."""

    def __init__(self) -> None:
        self._steps: list[Step] = []

    def __len__(self) -> int:
        return len(self._steps)

    def formula_at(self, index: int) -> Formula:
        if type(index) is not int or not 0 <= index < len(self._steps):
            raise ProofError(f"no proof step at index {index!r}")
        return self._steps[index].formula

    def _add(self, formula: Formula, justification: Justification) -> int:
        self._steps.append(Step(formula, justification))
        return len(self._steps) - 1

    def tautology(self, formula: Formula) -> int:
        return self._add(formula, ByTautology())

    def splice(self, proof: "Proof") -> int:
        """Append another proof's steps, re-offsetting internal references.

        Returns the index of the spliced proof's conclusion.
        """
        offset = len(self._steps)
        for step in proof.steps:
            justification = step.justification
            if isinstance(justification, ByModusPonens):
                justification = ByModusPonens(
                    justification.antecedent + offset,
                    justification.implication + offset,
                )
            elif isinstance(justification, ByNecessitation):
                justification = ByNecessitation(
                    justification.premise + offset, justification.principal
                )
            self._steps.append(Step(step.formula, justification))
        return len(self._steps) - 1

    def axiom(self, name: str, *args) -> int:
        formula = schema(name).build(*args)
        return self._add(formula, ByAxiom(name, tuple(args)))

    def premise(self, formula: Formula) -> int:
        return self._add(formula, ByPremise())

    def mp(self, antecedent: int, implication: int) -> int:
        imp = self.formula_at(implication)
        if not isinstance(imp, Implies):
            raise ProofError(f"MP major premise {imp} is not an implication")
        return self._add(imp.consequent, ByModusPonens(antecedent, implication))

    def necessitate(self, premise: int, principal: Principal) -> int:
        formula = Believes(principal, self.formula_at(premise))
        return self._add(formula, ByNecessitation(premise, principal))

    # -- convenience macros ---------------------------------------------------

    def conj(self, left: int, right: int) -> int:
        """From φ and ψ conclude φ ∧ ψ via the tautology φ ⊃ (ψ ⊃ φ∧ψ)."""
        from repro.terms.formulas import And

        phi = self.formula_at(left)
        psi = self.formula_at(right)
        glue = self.tautology(Implies(phi, Implies(psi, And(phi, psi))))
        halfway = self.mp(left, glue)
        return self.mp(right, halfway)

    def build(self, check: bool = True) -> Proof:
        proof = Proof(tuple(self._steps))
        if check:
            proof.check()
        return proof
