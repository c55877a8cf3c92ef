"""Initial-assumption vectors (Section 7).

For each system principal P_i we fix a set ``I_i`` of initial
assumptions, each "of the form P_i believes φ"; the vector is
``I = (I_1, ..., I_n)``.  Two restrictions matter:

* **I1** — no ``believes`` appears within the scope of a negation
  symbol.  Without I1 there is in general no best notion of belief
  supporting the assumptions (Halpern-Moses "knowing only α").
* **I2** — "the initial assumptions of one principal do not contain
  errors about the beliefs of the others": if I_i contains
  ``P_i believes (P_j believes φ)`` then I_j contains
  ``P_j believes φ``.

Using belief axioms A2/A4, every I1-assumption can be normalized to
formulas ``P_i believes ... P_k believes p`` with conjunctions split at
each belief level; :func:`normalize_assumption` implements this, and
the construction stratifies the normalized formulas by belief depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping

from repro.errors import AssumptionError
from repro.model.system import System
from repro.terms.atoms import Principal
from repro.terms.formulas import (
    And,
    Believes,
    Formula,
    belief_depth,
)
from repro.terms.ops import has_belief_under_negation


def normalize_assumption(formula: Formula) -> tuple[Formula, ...]:
    """Split conjunctions under belief prefixes into separate formulas.

    ``P believes (φ & Q believes ψ)`` normalizes to
    ``P believes φ`` and ``P believes Q believes ψ`` — justified by
    axiom A4 and its converse (both directions are sound, Section 4.2).
    The result is a tuple of formulas whose belief prefixes are maximal.
    """

    def split(f: Formula) -> Iterator[Formula]:
        if isinstance(f, And):
            yield from split(f.left)
            yield from split(f.right)
        elif isinstance(f, Believes):
            for part in split(f.body):
                yield Believes(f.principal, part)
        else:
            yield f

    return tuple(dict.fromkeys(split(formula)))


@dataclass(frozen=True)
class InitialAssumptions:
    """The vector ``I = (I_1, ..., I_n)``.

    ``entries`` maps each principal to its assumption formulas; every
    formula in I_i must be of the form ``P_i believes φ`` and satisfy
    restriction I1.
    """

    entries: tuple[tuple[Principal, tuple[Formula, ...]], ...]

    def __post_init__(self) -> None:
        names = [principal.name for principal, _ in self.entries]
        if names != sorted(names) or len(set(names)) != len(names):
            raise AssumptionError("entries must be sorted by unique principal name")
        for principal, formulas in self.entries:
            for formula in formulas:
                if not isinstance(formula, Believes):
                    raise AssumptionError(
                        f"assumption for {principal} must be a belief formula, "
                        f"got {formula}"
                    )
                if formula.principal != principal:
                    raise AssumptionError(
                        f"assumption {formula} does not start with "
                        f"{principal} believes"
                    )
                if has_belief_under_negation(formula):
                    raise AssumptionError(
                        f"restriction I1 violated by {formula}: belief within "
                        "the scope of negation"
                    )

    @classmethod
    def of(
        cls, assignment: Mapping[Principal, Iterable[Formula]]
    ) -> "InitialAssumptions":
        entries = tuple(
            sorted(
                ((principal, tuple(formulas)) for principal, formulas in
                 assignment.items()),
                key=lambda kv: kv[0].name,
            )
        )
        return cls(entries)

    @classmethod
    def empty(cls) -> "InitialAssumptions":
        return cls(())

    # -- views ------------------------------------------------------------------

    @cached_property
    def _map(self) -> Mapping[Principal, tuple[Formula, ...]]:
        return dict(self.entries)

    @property
    def principals(self) -> tuple[Principal, ...]:
        return tuple(principal for principal, _ in self.entries)

    def all_formulas(self) -> Iterator[tuple[Principal, Formula]]:
        for principal, formulas in self.entries:
            for formula in formulas:
                yield principal, formula

    @cached_property
    def normalized(self) -> Mapping[Principal, tuple[Formula, ...]]:
        """I with conjunctions split: every formula is a pure belief chain
        (or a belief prefix over a non-conjunctive body)."""
        out = {}
        for principal, formulas in self.entries:
            normal: list[Formula] = []
            for formula in formulas:
                normal.extend(normalize_assumption(formula))
            out[principal] = tuple(dict.fromkeys(normal))
        return out

    def stratum(self, principal: Principal, depth: int) -> tuple[Formula, ...]:
        """``I_i^j``: normalized assumptions with exactly ``depth`` levels
        of leading belief."""
        return tuple(
            formula
            for formula in self.normalized.get(principal, ())
            if belief_depth(formula) == depth
        )

    @property
    def max_depth(self) -> int:
        """The largest belief depth among the normalized assumptions."""
        depths = [
            belief_depth(formula)
            for formulas in self.normalized.values()
            for formula in formulas
        ]
        return max(depths, default=0)

    # -- restrictions -------------------------------------------------------------

    def satisfies_i1(self) -> bool:
        """I1 holds by construction; kept for symmetry with I2."""
        return True

    def i2_violations(self) -> list[tuple[Principal, Formula]]:
        """Formulas witnessing a violation of restriction I2.

        For every normalized ``P_i believes (P_j believes φ)``, I_j must
        contain ``P_j believes φ``.  Because each required formula is
        itself checked once present, the condition propagates down whole
        belief chains.
        """
        violations: list[tuple[Principal, Formula]] = []
        for principal, formulas in self.normalized.items():
            for formula in formulas:
                assert isinstance(formula, Believes)
                inner = formula.body
                if isinstance(inner, Believes):
                    other = inner.principal
                    if not isinstance(other, Principal):
                        continue
                    required = self.normalized.get(other, ())
                    if inner not in required:
                        violations.append((principal, formula))
        return violations

    def satisfies_i2(self) -> bool:
        return not self.i2_violations()

    def restrict_to(self, system: System) -> "InitialAssumptions":
        """Drop assumptions for principals not in the system."""
        principals = set(system.principals())
        return InitialAssumptions.of(
            {
                principal: formulas
                for principal, formulas in self.entries
                if principal in principals
            }
        )
