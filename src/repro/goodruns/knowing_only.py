"""The Halpern-Moses "knowing only α" obstruction (Section 7).

Why does restriction I1 ban belief under negation?  The paper points at
Halpern and Moses' analysis of "an agent who knows only α": with
negation (hence disjunction) in the assumption language, a unique best
state of knowledge need not exist.  Their example — quoted by the
paper — is ``α = "P knows p or P knows p'"``: "There is one state of
knowledge in which P knows p and not p', and a second state of
knowledge in which P knows p' and not p, but neither state is obviously
superior to the other."

This module realizes the obstruction in the good-run setting.  A
*disjunctive requirement* on a vector asks that, at every time-0 point,
``P believes p  ∨  P believes q`` hold.  Over a two-run system (one
where p holds, one where q holds) we enumerate all vectors meeting the
requirement and exhibit two maximal, incomparable ones — so no optimum
exists, for exactly the Halpern-Moses reason.  (This is *outside*
``InitialAssumptions`` by design: I1 rejects the disjunction up front.)
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.model.builder import RunBuilder
from repro.model.system import Interpretation, System
from repro.semantics.evaluator import Evaluator
from repro.semantics.goodvectors import GoodRunVector
from repro.terms.atoms import Principal
from repro.terms.formulas import Believes, Formula, Or, Prim
from repro.terms.vocabulary import Vocabulary

RUN_P = "run-p"
RUN_Q = "run-q"


@dataclass(frozen=True)
class KnowingOnlyExample:
    system: System
    agent: Principal
    p: Formula
    q: Formula

    @property
    def disjunction(self) -> Formula:
        """``P believes p ∨ P believes q`` — the troublesome α."""
        return Or(Believes(self.agent, self.p), Believes(self.agent, self.q))


def build_knowing_only_example() -> KnowingOnlyExample:
    """Two runs the agent cannot distinguish; p in one, q in the other."""
    vocabulary = Vocabulary()
    agent, = vocabulary.principals("P1")
    p_prop = vocabulary.proposition("p")
    q_prop = vocabulary.proposition("q")

    def blank_run(name: str):
        builder = RunBuilder([agent])
        builder.idle()
        return builder.build(name)

    interpretation = Interpretation.from_run_table(
        {p_prop: [RUN_P], q_prop: [RUN_Q]}
    )
    system = System(
        runs=(blank_run(RUN_P), blank_run(RUN_Q)),
        interpretation=interpretation,
        vocabulary=vocabulary,
    )
    return KnowingOnlyExample(system, agent, Prim(p_prop), Prim(q_prop))


def vectors_meeting_disjunction(
    example: KnowingOnlyExample,
) -> tuple[GoodRunVector, ...]:
    """All vectors making the disjunctive requirement true at time 0 of
    every run."""
    run_names = sorted(run.name for run in example.system.runs)
    subsets = [
        frozenset(combo)
        for size in range(len(run_names) + 1)
        for combo in itertools.combinations(run_names, size)
    ]
    meeting = []
    for choice in subsets:
        vector = GoodRunVector.of({example.agent: choice})
        evaluator = Evaluator(example.system, vector)
        if all(
            evaluator.evaluate(example.disjunction, run, 0)
            for run in example.system.runs
        ):
            meeting.append(vector)
    return tuple(meeting)


def maximal_vectors(
    vectors: tuple[GoodRunVector, ...], system: System
) -> tuple[GoodRunVector, ...]:
    """The maximal elements under pointwise inclusion."""
    out = []
    for candidate in vectors:
        if not any(
            candidate is not other
            and candidate.leq(other, system)
            and not other.leq(candidate, system)
            for other in vectors
        ):
            out.append(candidate)
    return tuple(out)


def demonstrate_no_best_state() -> tuple[GoodRunVector, ...]:
    """The Halpern-Moses obstruction, mechanically.

    Returns the maximal vectors meeting ``P believes p ∨ P believes q``
    — there is more than one, and no vector dominates them all, so
    there is no unique "state of knowing only the disjunction".
    """
    example = build_knowing_only_example()
    meeting = vectors_meeting_disjunction(example)
    return maximal_vectors(meeting, example.system)
