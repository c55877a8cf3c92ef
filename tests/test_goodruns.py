"""Tests for Section 7: assumptions, construction, optimality, coin toss."""

import pytest

from repro.errors import AssumptionError
from repro.goodruns import (
    InitialAssumptions,
    build_cointoss_example,
    build_corrected_cointoss_example,
    construct_good_runs,
    enumerate_supporting_vectors,
    normalize_assumption,
    optimality_report,
    supports,
    unsupported_assumptions,
)
from repro.semantics import Evaluator, GoodRunVector
from repro.terms import (
    And,
    Believes,
    Fresh,
    Key,
    Nonce,
    Not,
    Prim,
    Principal,
    PrimitiveProposition,
    SharedKey,
)

A = Principal("P1")
B = Principal("P3")
K = Key("K")
N = Nonce("N")
P = Prim(PrimitiveProposition("p"))
Q = Prim(PrimitiveProposition("q"))


class TestNormalization:
    def test_conjunction_split(self):
        formula = Believes(A, And(P, Q))
        assert normalize_assumption(formula) == (
            Believes(A, P),
            Believes(A, Q),
        )

    def test_nested_belief_split(self):
        formula = Believes(A, And(P, Believes(B, Q)))
        assert normalize_assumption(formula) == (
            Believes(A, P),
            Believes(A, Believes(B, Q)),
        )

    def test_non_conjunctive_kept(self):
        formula = Believes(A, Fresh(N))
        assert normalize_assumption(formula) == (formula,)


class TestInitialAssumptions:
    def test_requires_belief_of_owner(self):
        with pytest.raises(AssumptionError):
            InitialAssumptions.of({A: [Believes(B, P)]})

    def test_requires_belief_formula(self):
        with pytest.raises(AssumptionError):
            InitialAssumptions.of({A: [P]})

    def test_i1_enforced(self):
        with pytest.raises(AssumptionError):
            InitialAssumptions.of({A: [Believes(A, Not(Believes(B, P)))]})

    def test_believes_negation_ok(self):
        """'P_i believes K is not a good key' is allowed."""
        assumptions = InitialAssumptions.of(
            {A: [Believes(A, Not(SharedKey(A, K, B)))]}
        )
        assert assumptions.satisfies_i1()

    def test_strata(self):
        assumptions = InitialAssumptions.of(
            {A: [Believes(A, And(P, Believes(B, Q)))]}
        )
        assert assumptions.stratum(A, 1) == (Believes(A, P),)
        assert assumptions.stratum(A, 2) == (Believes(A, Believes(B, Q)),)
        assert assumptions.max_depth == 2

    def test_i2_detection(self):
        mistaken = InitialAssumptions.of(
            {A: [Believes(A, Believes(B, P))], B: [Believes(B, Q)]}
        )
        assert not mistaken.satisfies_i2()
        fine = InitialAssumptions.of(
            {A: [Believes(A, Believes(B, P))], B: [Believes(B, P)]}
        )
        assert fine.satisfies_i2()


class TestCoinToss:
    """The Section 7 counterexample, end to end."""

    def test_construction_stages_match_paper(self):
        example = build_cointoss_example()
        result = construct_good_runs(example.system, example.assumptions)
        stage1 = result.stages[1]
        assert stage1.good_runs(example.p1) == {"run-tails"}
        assert stage1.good_runs(example.p3) == {"run-heads"}
        # The mutual mistake empties both sets at depth 2:
        assert result.vector.good_runs(example.p1) == frozenset()
        assert result.vector.good_runs(example.p3) == frozenset()
        assert result.vector.good_runs(example.p2) == {
            "run-heads",
            "run-tails",
        }

    def test_theorem2_construction_supports(self):
        """Theorem 2: under I1 the constructed vector supports I —
        here vacuously, via empty good-run sets."""
        example = build_cointoss_example()
        result = construct_good_runs(example.system, example.assumptions)
        assert supports(example.system, result.vector, example.assumptions)

    def test_no_optimum_exists(self):
        """'Either G1 can contain the tails run, or G3 the heads run,
        but not both' — no maximum supporting vector."""
        example = build_cointoss_example()
        report = optimality_report(example.system, example.assumptions)
        assert not report.has_optimum
        assert len(report.supporting) > 0

    def test_exclusive_choice(self):
        example = build_cointoss_example()
        g1_tails = GoodRunVector.of(
            {example.p1: ["run-tails"], example.p2: [], example.p3: []}
        )
        g3_heads = GoodRunVector.of(
            {example.p1: [], example.p2: [], example.p3: ["run-heads"]}
        )
        both = GoodRunVector.of(
            {
                example.p1: ["run-tails"],
                example.p2: [],
                example.p3: ["run-heads"],
            }
        )
        assert supports(example.system, g1_tails, example.assumptions)
        assert supports(example.system, g3_heads, example.assumptions)
        assert not supports(example.system, both, example.assumptions)

    def test_corrected_variant_has_optimum(self):
        """Theorem 3: with I2 restored, the construction is optimum."""
        example = build_corrected_cointoss_example()
        assert example.assumptions.satisfies_i2()
        result = construct_good_runs(example.system, example.assumptions)
        report = optimality_report(example.system, example.assumptions)
        assert report.has_optimum
        assert report.is_optimum(result.vector, example.system)
        assert result.vector.good_runs(example.p1) == {"run-tails"}
        assert result.vector.good_runs(example.p3) == {"run-tails"}

    def test_mistaken_variant_violates_i2(self):
        example = build_cointoss_example()
        assert len(example.assumptions.i2_violations()) == 2

    def test_beliefs_relative_to_constructed_vector(self):
        example = build_corrected_cointoss_example()
        result = construct_good_runs(example.system, example.assumptions)
        ev = Evaluator(example.system, result.vector)
        heads_run = example.system.run("run-heads")
        # P1's preconception holds even in the run where it is wrong:
        assert ev.evaluate(Believes(example.p1, example.tails), heads_run, 0)
        assert not ev.evaluate(example.tails, heads_run, 0)

    def test_unsupported_assumptions_reported(self):
        example = build_cointoss_example()
        top = GoodRunVector.all_runs(example.system)
        failures = unsupported_assumptions(
            example.system, top, example.assumptions
        )
        assert failures  # nobody's preconception holds with all runs good


class TestOptimalitySearch:
    def test_supporting_vectors_closed_downward_in_practice(self):
        example = build_corrected_cointoss_example()
        report = optimality_report(example.system, example.assumptions)
        maximum = report.maximum
        assert maximum is not None
        for vector in report.supporting:
            assert vector.leq(maximum, example.system)

    def test_vector_order(self):
        example = build_cointoss_example()
        small = GoodRunVector.of({example.p1: [], example.p2: [],
                                  example.p3: []})
        big = GoodRunVector.all_runs(example.system)
        assert small.leq(big, example.system)
        assert not big.leq(small, example.system)
        meet = big.meet(small, example.system)
        assert meet.leq(small, example.system)


class TestUnifiedValidation:
    """Construction and support checks reject the same bad inputs.

    ``construct_good_runs`` always refused assumption vectors that
    mention principals outside the system; ``supports`` and
    ``unsupported_assumptions`` used to silently report such vectors as
    supported.  All entry points now share ``_validate_assumptions``.
    """

    @staticmethod
    def _foreign_assumptions():
        stranger = Principal("P-nowhere")
        return InitialAssumptions.of({stranger: [Believes(stranger, P)]})

    def test_construct_rejects_foreign_principal(self):
        example = build_cointoss_example()
        with pytest.raises(AssumptionError, match="not a system principal"):
            construct_good_runs(example.system, self._foreign_assumptions())

    def test_supports_rejects_foreign_principal(self):
        example = build_cointoss_example()
        top = GoodRunVector.all_runs(example.system)
        with pytest.raises(AssumptionError, match="not a system principal"):
            supports(example.system, top, self._foreign_assumptions())

    def test_unsupported_assumptions_rejects_foreign_principal(self):
        example = build_cointoss_example()
        top = GoodRunVector.all_runs(example.system)
        with pytest.raises(AssumptionError, match="not a system principal"):
            unsupported_assumptions(
                example.system, top, self._foreign_assumptions()
            )

    def test_refine_once_rejects_foreign_principal(self):
        from repro.goodruns import refine_once

        example = build_cointoss_example()
        top = GoodRunVector.all_runs(example.system)
        with pytest.raises(AssumptionError, match="not a system principal"):
            refine_once(example.system, top, self._foreign_assumptions())

    def test_enumeration_rejects_foreign_principal(self):
        example = build_cointoss_example()
        with pytest.raises(AssumptionError, match="not a system principal"):
            enumerate_supporting_vectors(
                example.system, self._foreign_assumptions()
            )

    def test_unknown_engine_rejected(self):
        from repro.goodruns import ENGINES

        example = build_cointoss_example()
        with pytest.raises(AssumptionError, match="unknown construction"):
            construct_good_runs(
                example.system, example.assumptions, engine="recursive"
            )
        assert set(ENGINES) == {"worklist", "naive"}


def _top_compilations(ctx) -> int:
    """Compilations at no vector, from the context's journal: each
    compilation at a vector takes its tables from one of these."""
    return sum(
        1 for event in ctx.journal.snapshot()
        if event["kind"] == "compile" and not event["attrs"]["goodruns"]
    )


class TestSharedCompilation:
    """The brute-force search compiles the system at most once.

    Counted in a fresh (born-empty caches) scoped context so the
    assertion is about this search, not about what earlier tests left
    in the session's compiled-system cache.  Each candidate vector has
    its own compilation (``compiled_eval.system_miss``), which takes
    its tables from the one top compilation.
    """

    def test_enumeration_compiles_once(self):
        from repro import context

        example = build_corrected_cointoss_example()
        ctx = context.fresh("test-goodruns-enumeration")
        with context.use(ctx):
            supporting = enumerate_supporting_vectors(
                example.system, example.assumptions
            )
        assert supporting  # the search actually ran
        # One top compilation serves all (2^|runs|)^|principals| vectors.
        assert _top_compilations(ctx) <= 1

    def test_optimality_report_compiles_once(self):
        from repro import context

        example = build_corrected_cointoss_example()
        ctx = context.fresh("test-goodruns-optimality")
        with context.use(ctx):
            report = optimality_report(example.system, example.assumptions)
        assert report.has_optimum
        assert _top_compilations(ctx) <= 1

    def test_search_past_cache_eviction_walks_each_run_once(
        self, monkeypatch
    ):
        """512 candidate vectors overflow the 256-entry compiled-system
        cache, and still each (principal, run)'s hidden views are
        walked once: the top compilation stays cached beside them."""
        from collections import Counter

        from repro import context
        from repro.soundness import GeneratorConfig, generate_system
        from tests.test_semantics_compiler import _counting_walks

        system = generate_system(GeneratorConfig(seed=0, runs=3))
        p0 = Prim(system.vocabulary.proposition("p0"))
        assumptions = InitialAssumptions.of(
            {principal: [Believes(principal, p0)]
             for principal in system.principals()}
        )
        walks = _counting_walks(monkeypatch)
        ctx = context.fresh("test-goodruns-eviction")
        with context.use(ctx):
            report = optimality_report(system, assumptions)
        assert len(report.supporting) > 0
        assert (2 ** len(system.runs)) ** len(system.principals()) > 256
        assert ctx.counters["compiled_systems.evict"] >= 1
        assert walks == Counter({
            (principal, run.name): 1
            for principal in system.principals() for run in system.runs
        })


class TestKnowingOnly:
    """The Halpern-Moses 'knowing only α' obstruction behind I1."""

    def test_disjunction_has_two_maximal_states(self):
        from repro.goodruns import demonstrate_no_best_state

        maxima = demonstrate_no_best_state()
        assert len(maxima) == 2
        names = {
            frozenset(vector.entries[0][1]) for vector in maxima
        }
        assert names == {frozenset({"run-p"}), frozenset({"run-q"})}

    def test_full_vector_fails_the_disjunction(self):
        """With both runs good, P believes neither disjunct — the
        disjunctive requirement is not monotone, which is exactly why
        no best (maximum) state exists."""
        from repro.goodruns import (
            build_knowing_only_example,
            vectors_meeting_disjunction,
        )
        from repro.semantics import Evaluator, GoodRunVector

        example = build_knowing_only_example()
        full = GoodRunVector.of({example.agent: ["run-p", "run-q"]})
        evaluator = Evaluator(example.system, full)
        run = example.system.runs[0]
        assert not evaluator.evaluate(example.disjunction, run, 0)
        assert full not in vectors_meeting_disjunction(example)

    def test_i1_rejects_the_disjunction_up_front(self):
        """InitialAssumptions refuses the formula: disjunction is
        defined via negation, so belief under it violates I1."""
        from repro.goodruns import InitialAssumptions, build_knowing_only_example
        from repro.terms import Believes

        example = build_knowing_only_example()
        with pytest.raises(AssumptionError):
            InitialAssumptions.of(
                {example.agent: [Believes(example.agent,
                                          example.disjunction)]}
            )
