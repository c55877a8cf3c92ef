"""E3/E4 benches: the empirical Theorem 1 sweep and the incompleteness
exhibit.

E3 regenerates the soundness table (per-schema instance counts and
violation counts — all zero outside the documented A11 caveat) and
checks that the compiled engine's sweep is no slower than the
interpreter's; E4 re-checks the valid-but-underivable formula from the
end of Section 6.
"""

import gc
import statistics
import time

from repro import context
from repro.logic import paper_schemas, schema
from repro.soundness import (
    GeneratorConfig,
    check_incompleteness,
    generate_system,
    generate_systems,
    sweep_system,
    sweep_systems,
)
from repro.terms import Sort


def test_e3_soundness_sweep(benchmark):
    """E3: every axiom schema over random systems, zero essential
    violations (Theorem 1)."""
    systems = generate_systems(2, base_seed=7)

    def sweep():
        return sweep_systems(systems, max_instances_per_schema=40)

    report = benchmark(sweep)
    assert report.total_instances > 300
    assert not report.essential_violations


def test_e3_compiled_sweep_not_slower_than_interpreted():
    """The compiled engine's E3 sweep gives the interpreter's report and
    takes no longer.  Pairs alternate which engine goes first, each side
    sweeps in a fresh context after a full collection, and the median
    per-pair time ratio is what is bounded, so one slow moment of a
    shared host cannot decide it."""
    systems = generate_systems(2, base_seed=0)

    def sweep(engine):
        gc.collect()
        with context.scoped(f"bench-{engine}"):
            start = time.perf_counter()
            report = sweep_systems(systems, max_instances_per_schema=40,
                                   engine=engine)
            return time.perf_counter() - start, report.render()

    engines = ("compiled", "interpreted")
    ratios = []
    for pair in range(3):
        order = engines if pair % 2 == 0 else engines[::-1]
        seconds, renders = {}, {}
        for engine in order:
            seconds[engine], renders[engine] = sweep(engine)
        assert renders["compiled"] == renders["interpreted"]
        ratios.append(seconds["compiled"] / seconds["interpreted"])
    assert statistics.median(ratios) <= 1.0, ratios


def test_e3_single_system_full_instances(benchmark):
    """A deeper sweep of one system (more instances per schema)."""
    system = generate_system(GeneratorConfig(seed=13))

    def sweep():
        return sweep_system(system, max_instances_per_schema=150)

    report = benchmark(sweep)
    assert not report.essential_violations


def test_e3_paper_axioms_only(benchmark):
    """The Section 4.2 schemas alone (excludes derived A4 and extras)."""
    system = generate_system(GeneratorConfig(seed=21))
    schemas = paper_schemas()

    def sweep():
        return sweep_system(system, schemas=schemas,
                            max_instances_per_schema=60)

    report = benchmark(sweep)
    assert set(report.per_schema) == {s.name for s in schemas}
    assert not report.essential_violations


def test_e4_incompleteness(benchmark):
    """E4: 'P controls (P has K) ∧ P says (P has K, {X^P}_K) ⊃ P says X'
    is valid yet the engine cannot derive it."""
    system = generate_system(GeneratorConfig(seed=5))
    principal = system.principals()[0]
    key = system.vocabulary.constants(Sort.KEY)[0]
    payload = system.vocabulary.constants(Sort.NONCE)[0]

    result = benchmark(
        lambda: check_incompleteness(system, principal, key, payload)
    )
    assert result.reproduces_paper


def test_e3_random_system_generation(benchmark):
    """Generating one well-formed random system (the sweep's substrate)."""
    system = benchmark(lambda: generate_system(GeneratorConfig(seed=99)))
    assert system.is_wellformed()
