"""The good-runs construction oracles, pinned in isolation.

The ``goodruns_construction`` fuzz family (the campaign run is the
integration test) decomposes into invariants checked here piece by
piece: the hypothesis property for stage monotonicity and fixpoint
idempotence, byte-identical worklist/naive stages across the test
corpus, the gap-stage and bottom early-exits (skipped stages must not
change the stage tuple), the brute-force optimality differential, and
— the reason the family exists — a deliberately planted stratum-skip
bug that the oracle must catch and the shrinker must minimize.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import context
from repro.fuzz import (
    check_goodruns_construction,
    deep_assumptions,
    describe_assumptions,
    sample_assumption_vector,
    shrink_assumption_vector,
)
from repro.goodruns import (
    ConstructionResult,
    InitialAssumptions,
    build_cointoss_example,
    build_corrected_cointoss_example,
    construct_good_runs,
    optimality_report,
    refine_once,
)
from repro.semantics import GoodRunVector
from repro.semantics.compiler import compiled_for
from repro.soundness import GeneratorConfig, generate_system
from repro.terms import Believes, Not, Truth

#: Every engine-agreement case runs under both semantics backends.
BACKENDS = ("belief", "epistemic")

_SYSTEMS: dict[int, object] = {}


def system_for(seed: int, runs: int = 2, steps: int = 8):
    key = (seed, runs, steps)
    if key not in _SYSTEMS:
        _SYSTEMS[key] = generate_system(
            GeneratorConfig(seed=seed, runs=runs, steps_per_run=steps)
        )
    return _SYSTEMS[key]


def sampled_workload(seed: int):
    """(system, assumptions) for a seed, or None if the pool is dry."""
    rng = random.Random(seed)
    system = system_for(seed % 5)
    assumptions = sample_assumption_vector(rng, system, count=4)
    if assumptions is None:
        return None
    return system, assumptions


class TestMonotoneIdempotentProperty:
    """Satellite: the hypothesis property behind the fuzz family."""

    @given(st.integers(min_value=0, max_value=150))
    @settings(max_examples=40, deadline=None)
    def test_stages_shrink_and_fixpoint_holds(self, seed):
        workload = sampled_workload(seed)
        if workload is None:
            return
        system, assumptions = workload
        result = construct_good_runs(system, assumptions)
        # Monotonicity: G^j ⊆ G^{j-1} pointwise, every stage.
        for earlier, later in zip(result.stages, result.stages[1:]):
            assert later.leq(earlier, system), describe_assumptions(
                assumptions
            )
        # Idempotence: one more application of every stratum is a no-op.
        refined = refine_once(system, result.vector, assumptions)
        assert refined.leq(result.vector, system)
        assert result.vector.leq(refined, system)

    @given(st.integers(min_value=0, max_value=150))
    @settings(max_examples=15, deadline=None)
    def test_full_oracle_is_quiet_on_clean_construction(self, seed):
        workload = sampled_workload(seed)
        if workload is None:
            return
        system, assumptions = workload
        failures = check_goodruns_construction(system, assumptions)
        assert failures == [], [f.description for f in failures]


class TestEngineAgreement:
    """Worklist and naive stages are byte-identical on the corpus, under
    both semantics backends (the worklist engine serves each)."""

    def test_cointoss_examples(self):
        for example in (
            build_cointoss_example(),
            build_corrected_cointoss_example(),
        ):
            for backend in BACKENDS:
                worklist = construct_good_runs(
                    example.system, example.assumptions, engine="worklist",
                    backend=backend,
                )
                naive = construct_good_runs(
                    example.system, example.assumptions, engine="naive",
                    backend=backend,
                )
                assert worklist.stages == naive.stages, backend
                assert worklist.vector == naive.vector, backend

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_sampled_vectors(self, seed):
        workload = sampled_workload(seed)
        if workload is None:
            pytest.skip("formula pool yielded no run-constant bodies")
        system, assumptions = workload
        for backend in BACKENDS:
            worklist = construct_good_runs(system, assumptions,
                                           backend=backend)
            naive = construct_good_runs(system, assumptions, engine="naive",
                                        backend=backend)
            assert worklist.stages == naive.stages, backend

    @pytest.mark.parametrize("seed", [0, 1])
    def test_deep_benchmark_vectors(self, seed):
        system = system_for(seed, runs=2, steps=6)
        assumptions = deep_assumptions(system, depth=3)
        assert assumptions.max_depth == 3
        for backend in BACKENDS:
            worklist = construct_good_runs(system, assumptions,
                                           backend=backend)
            naive = construct_good_runs(system, assumptions, engine="naive",
                                        backend=backend)
            assert worklist.stages == naive.stages, backend

    def test_pattern_hide_agrees_too(self):
        system = system_for(0)
        assumptions = deep_assumptions(system, depth=2)
        for backend in BACKENDS:
            worklist = construct_good_runs(system, assumptions,
                                           pattern_hide=True, backend=backend)
            naive = construct_good_runs(system, assumptions,
                                        pattern_hide=True, engine="naive",
                                        backend=backend)
            assert worklist.stages == naive.stages, backend


class TestEarlyExit:
    """Gap strata and the bottom vector are skipped, not recomputed."""

    def test_gap_stages_are_skipped_and_identical(self):
        example = build_cointoss_example()
        p1, p3 = example.p1, example.p3
        # Only a depth-3 chain: strata 1 and 2 are empty for everyone.
        assumptions = InitialAssumptions.of(
            {p1: [Believes(p1, Believes(p3, Believes(p1, example.tails)))]}
        )
        counters = context.current().counters
        before = counters.get("goodruns.stage_skipped", 0)
        worklist = construct_good_runs(example.system, assumptions)
        skipped = counters["goodruns.stage_skipped"] - before
        assert skipped == 2  # depths 1 and 2 are gaps
        assert worklist.stages[1] == worklist.stages[0]
        assert worklist.stages[2] == worklist.stages[0]
        naive = construct_good_runs(example.system, assumptions,
                                    engine="naive")
        assert worklist.stages == naive.stages

    def test_bottom_vector_short_circuits(self):
        example = build_cointoss_example()
        p1, p2, p3 = example.p1, example.p2, example.p3
        absurd = Not(Truth())
        # Depth 1 empties every good set; the depth-2 chain then has
        # nothing left to filter — the worklist skips it outright.
        assumptions = InitialAssumptions.of(
            {
                p1: [
                    Believes(p1, absurd),
                    Believes(p1, Believes(p3, absurd)),
                ],
                p2: [Believes(p2, absurd)],
                p3: [Believes(p3, absurd)],
            }
        )
        counters = context.current().counters
        before = counters.get("goodruns.stage_skipped", 0)
        worklist = construct_good_runs(example.system, assumptions)
        skipped = counters["goodruns.stage_skipped"] - before
        assert skipped == 1  # the post-bottom depth-2 stage
        empty = GoodRunVector.of({p1: [], p2: [], p3: []})
        assert worklist.vector == empty
        naive = construct_good_runs(example.system, assumptions,
                                    engine="naive")
        assert worklist.stages == naive.stages


class TestOptimalityDifferential:
    """Theorem 3 on its provable domain: construction == brute force."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_depth1_construction_is_the_maximum(self, seed):
        workload = sampled_workload(seed)
        if workload is None:
            pytest.skip("formula pool yielded no run-constant bodies")
        system, sampled = workload
        # Keep only the depth-1 stratum (belief-free, run-constant
        # bodies): exactly the domain where Theorem 3's premises hold.
        flat = {
            principal: [
                formula
                for formula in sampled.normalized.get(principal, ())
                if isinstance(formula, Believes)
                and not isinstance(formula.body, Believes)
            ]
            for principal in sampled.principals
        }
        flat = {p: fs for p, fs in flat.items() if fs}
        if not flat:
            pytest.skip("no depth-1 assumptions sampled")
        assumptions = InitialAssumptions.of(flat)
        result = construct_good_runs(system, assumptions)
        report = optimality_report(system, assumptions)
        assert report.has_optimum
        assert report.is_optimum(result.vector, system)


def _skip_stratum_one(system, assumptions, pattern_hide=False,
                      engine="worklist"):
    """A deliberately broken construction: depth-1 strata never filter.

    The shape the fuzz family exists to catch — a stage of the fixpoint
    silently skipped, leaving a vector that is too big and is not a
    fixpoint of the construction operator.
    """
    all_names = frozenset(run.name for run in system.runs)
    current = {p: all_names for p in system.principals()}
    stages = [GoodRunVector.of(current)]
    for depth in range(1, assumptions.max_depth + 1):
        evaluator = compiled_for(system, stages[-1],
                                 pattern_hide=pattern_hide)
        updated = {}
        for principal in system.principals():
            good = current[principal]
            if depth != 1:  # the planted bug
                for formula in assumptions.stratum(principal, depth):
                    good = frozenset(
                        name for name in sorted(good)
                        if evaluator.evaluate(
                            formula.body, system.run(name), 0
                        )
                    )
            updated[principal] = good
        current = updated
        stages.append(GoodRunVector.of(current))
    return ConstructionResult(stages[-1], tuple(stages))


class TestPlantedStratumSkip:
    def test_oracle_catches_the_skip(self):
        example = build_cointoss_example()
        p1, p3 = example.p1, example.p3
        # Depth-1 beliefs only: the skipped stratum IS the whole
        # construction, so the bug returns the all-runs vector, which
        # supports neither belief and is not a fixpoint.
        assumptions = InitialAssumptions.of(
            {
                p1: [Believes(p1, example.tails)],
                p3: [Believes(p3, example.heads)],
            }
        )
        failures = check_goodruns_construction(
            example.system, assumptions, construct=_skip_stratum_one
        )
        kinds = {failure.oracle for failure in failures}
        assert "goodruns_support" in kinds
        assert "goodruns_idempotent" in kinds

    def test_counterexample_shrinks_to_one_assumption(self):
        example = build_cointoss_example()
        p1, p3 = example.p1, example.p3
        # Noise around the failing entry: P1's depth-2 chain empties
        # P1's set at stage 2 (vacuous support), but P3's depth-1
        # belief is left unfiltered and unsupported.
        assumptions = InitialAssumptions.of(
            {
                p1: [
                    Believes(p1, example.tails),
                    Believes(p1, Believes(p3, example.tails)),
                ],
                p3: [Believes(p3, example.heads)],
            }
        )

        def still_fails(candidate):
            failures = check_goodruns_construction(
                example.system, candidate, construct=_skip_stratum_one
            )
            return any(
                failure.oracle == "goodruns_support" for failure in failures
            )

        assert still_fails(assumptions)
        minimal = shrink_assumption_vector(assumptions, still_fails)
        assert still_fails(minimal)
        # One principal's one depth-1 belief suffices to expose the bug.
        entries = list(minimal.all_formulas())
        assert len(entries) == 1
        assert len(list(assumptions.all_formulas())) > 1
        assert describe_assumptions(minimal)[0].endswith("1 formula(s)")

    def test_full_mistaken_vector_is_a_blind_spot(self):
        """Documented limit of the support, monotonicity and idempotence
        checks: on the mistaken coin toss the skip is invisible to them —
        stage 2 (applied to the too-big stage 1) empties every good set,
        and the empty vector vacuously supports the assumptions.  The
        Theorem 3 check closes the blind spot: it constructs the
        vector's depth-1 restriction, where depth 1 is load-bearing, and
        the skip leaves that construction above the maximum."""
        example = build_cointoss_example()
        failures = check_goodruns_construction(
            example.system, example.assumptions,
            construct=_skip_stratum_one,
        )
        assert {failure.oracle for failure in failures} == {"goodruns_optimal"}

    def test_clean_construction_stays_quiet(self):
        """The same harness path reports nothing on the real engine."""
        example = build_cointoss_example()
        failures = check_goodruns_construction(
            example.system, example.assumptions
        )
        assert failures == []
