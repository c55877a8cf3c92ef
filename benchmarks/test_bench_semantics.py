"""E12 bench plus semantics micro-benchmarks.

E12 re-checks the stability claims the annotation procedure rests on
(Sections 2.3 / 4.3); the micro-benchmarks time the evaluator's core
operations (hide, belief, shared-key checking) on the Kerberos system.
"""

from repro.protocols import kerberos
from repro.semantics import (
    Evaluator,
    GoodRunVector,
    hidden_local_view,
    is_stable,
)
from repro.semantics.hide import hidden_run_views
from repro.terms import Believes, Said, Says, Sees


def test_e12_stability_audit(benchmark):
    """E12: annotation formulas are stable along the Kerberos system."""
    ctx = kerberos.terms()
    system = kerberos.build_system()
    formulas = [
        Sees(ctx.A, ctx.outer),
        Sees(ctx.B, ctx.inner),
        Said(ctx.S, ctx.good),
        Says(ctx.S, ctx.good),
        Believes(ctx.A, ctx.good),
    ]

    def audit():
        evaluator = Evaluator(system)
        return [is_stable(evaluator, formula) for formula in formulas]

    results = benchmark(audit)
    assert all(results)


def test_bench_hide(benchmark):
    """Hiding every local state of a run (the inner loop of belief
    evaluation): one walk per principal."""
    run = kerberos.build_system().run("kerberos-normal")

    def hide_all():
        nodes = {}
        return {
            principal: hidden_run_views(run, principal, False, nodes)
            for principal in run.principals
        }

    views = benchmark(hide_all)
    # The walk groups each principal's points as the reference does.
    for principal, walked in views.items():
        literal = [hidden_local_view(run, principal, k) for k in run.times]
        assert [[a == b for b in walked] for a in walked] == [
            [a == b for b in literal] for a in literal
        ]


def test_bench_belief_evaluation(benchmark):
    """Evaluating a belief formula across the two-run Kerberos system."""
    ctx = kerberos.terms()
    system = kerberos.build_system()
    formula = Believes(ctx.B, ctx.good)
    run = system.run("kerberos-normal")

    def evaluate():
        evaluator = Evaluator(system)  # fresh caches each round
        return evaluator.evaluate(formula, run, run.end_time)

    assert benchmark(evaluate) is True


def test_bench_shared_key_check(benchmark):
    """The good-key clause quantifies over every principal's sends."""
    ctx = kerberos.terms()
    system = kerberos.build_system()
    run = system.run("kerberos-normal")

    def evaluate():
        evaluator = Evaluator(system)
        return evaluator.evaluate(ctx.good, run, 0)

    assert benchmark(evaluate) is True


def test_bench_memoized_reevaluation(benchmark):
    """Warm-cache evaluation: the memo table makes repeats cheap."""
    ctx = kerberos.terms()
    system = kerberos.build_system()
    run = system.run("kerberos-normal")
    evaluator = Evaluator(system)
    formula = Believes(ctx.B, ctx.good)
    evaluator.evaluate(formula, run, run.end_time)  # warm

    result = benchmark(
        lambda: evaluator.evaluate(formula, run, run.end_time)
    )
    assert result is True


def test_bench_hide_variants_agree_on_protocol_goals(benchmark):
    """Collapse vs pattern hide: evaluating the Kerberos goals under
    both hide variants (they agree on the corpus goals; they differ
    exactly on the A11 nesting edge, see EXPERIMENTS.md)."""
    ctx = kerberos.terms()
    system = kerberos.build_system()
    run = system.run("kerberos-normal")
    goal = Believes(ctx.B, ctx.good)

    def both():
        collapse = Evaluator(system).evaluate(goal, run, run.end_time)
        pattern = Evaluator(system, pattern_hide=True).evaluate(
            goal, run, run.end_time
        )
        return collapse, pattern

    collapse, pattern = benchmark(both)
    assert collapse == pattern is True


def test_bench_large_system_compiled_evaluation(benchmark):
    """The compiled engine on a system an order of magnitude past E3.

    E3's sweep covers ~160 points; this system has ~1600 (8 runs × 200
    steps), the scale where per-point interpretation stops being
    viable.  Each round compiles cold — construction, table building,
    and whole-system bitset evaluation are all on the clock."""
    from repro.semantics.compiler import CompiledSystem
    from repro.soundness import GeneratorConfig, generate_system
    from repro.soundness.sweep import pool_from_system

    system = generate_system(
        GeneratorConfig(runs=8, steps_per_run=200, seed=11)
    )
    points = tuple(system.points())
    assert len(points) >= 10 * 162  # ≥10× the E3 sweep's point count
    pool = pool_from_system(system)
    probe = CompiledSystem(system)
    formulas = [
        formula
        for formula in pool.formulas
        if probe.truth_bits(formula) is not None
    ][:8]
    assert len(formulas) == 8

    def evaluate_all():
        compiled = CompiledSystem(system)  # cold compile each round
        return [compiled.truth_bits(formula) for formula in formulas]

    bits = benchmark(evaluate_all)
    assert all(value is not None for value in bits)


def test_bench_goodrun_construction_on_protocol_system(benchmark):
    """The Section 7 construction over the Kerberos system."""
    from repro.goodruns import construct_good_runs
    from repro.soundness import assumptions_vector

    protocol_assumptions = assumptions_vector(kerberos.at_protocol())
    system = kerberos.build_system()
    assumptions = protocol_assumptions.restrict_to(system)

    result = benchmark(lambda: construct_good_runs(system, assumptions))
    assert result.vector.good_runs(kerberos.terms().A)
