"""Tests for the compiled evaluation engine.

Three angles on the compiled-vs-interpreted contract:

* the ``compiled_vs_interpreted`` fuzz oracle is clean on the honest
  compiler and **demonstrably catches planted compiler bugs** (an
  inverted truth bitset; a belief clause that drops vacuous truth);
* a hypothesis property holds the two engines verdict- and
  error-identical on random formulas — nested beliefs and non-ground
  (parameterized) formulas included — at every point of a hand-built
  two-run system;
* the explanation tracer produces byte-identical output under both
  engines on the golden why-false belief tree.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import context as _context
from repro.errors import SemanticsError
from repro.fuzz.oracles import (
    check_compiled_differential,
    sample_formulas,
    sample_points,
)
from repro.model import Interpretation, RunBuilder, system_of
from repro.obs.trace import Tracer, render_why, trace_records
from repro.semantics import Evaluator
from repro.semantics.compiler import CompiledSystem, compiled_for
from repro.semantics.goodvectors import GoodRunVector
from repro.soundness import GeneratorConfig, generate_system
from repro.terms import Believes, Key, Nonce, Prim, Principal, Vocabulary
from repro.terms.ops import transform

from tests.strategies import (
    KEY_PARAM,
    KEYS,
    NONCES,
    PRINCIPALS,
    PROPS,
    VOCAB,
    formulas,
    principals,
)
from repro.terms.messages import encrypted, group

A, B, S = PRINCIPALS
Kab, Kas, Kbs = KEYS
Na, Nb, Ts = NONCES


@pytest.fixture(scope="module")
def system():
    return generate_system(GeneratorConfig(seed=3, runs=2, steps_per_run=10))


@pytest.fixture(scope="module")
def samples(system):
    rng = random.Random(7)
    return (
        sample_formulas(rng, system, 6),
        sample_points(rng, system, 3),
    )


class TestOracleOnHonestCompiler:
    def test_clean_by_default(self, system, samples):
        formulas_, points = samples
        assert check_compiled_differential(system, formulas_, points) == []

    def test_clean_under_pattern_hide_and_goodruns(self, system, samples):
        formulas_, points = samples
        principal = system.principals()[0]
        goodruns = GoodRunVector.of({principal: [system.runs[0].name]})
        assert (
            check_compiled_differential(
                system, formulas_, points, goodruns=goodruns, pattern_hide=True
            )
            == []
        )


class TestOracleCatchesPlantedBugs:
    """The acceptance demand on the safety net: corrupt the compiler,
    and the differential oracle must light up."""

    def test_inverted_bitset_is_caught(self, system, samples, monkeypatch):
        formulas_, points = samples
        assert check_compiled_differential(system, formulas_, points) == []
        honest = CompiledSystem.truth_bits

        def inverted(self, formula):
            bits = honest(self, formula)
            if bits is None:
                return None
            return bits ^ self.full_mask

        monkeypatch.setattr(CompiledSystem, "truth_bits", inverted)
        failures = check_compiled_differential(system, formulas_, points)
        assert failures
        assert {f.oracle for f in failures} == {"compiled_vs_interpreted"}

    def test_dropped_vacuous_belief_is_caught(self, system, monkeypatch):
        """A subtler plant: a belief clause that skips empty possibility
        sets.  The interpreter calls belief *vacuously true* there; a
        compiler that requires a non-empty set diverges exactly on the
        all-runs-bad good-run vector."""
        principal = system.principals()[0]
        goodruns = GoodRunVector.of({principal: frozenset()})
        belief = Believes(principal, Prim(system.vocabulary.proposition("p0")))
        points = tuple(system.points())[:4]

        def buggy(self, formula):
            who = formula.principal
            body = self._compile(formula.body)

            def compute():
                body_bits = body()
                bits = 0
                for member_bits, possible_bits in self._belief_groups_for(who):
                    if possible_bits and (
                        possible_bits & body_bits == possible_bits
                    ):
                        bits |= member_bits
                return bits

            return compute

        monkeypatch.setattr(CompiledSystem, "_build_believes", buggy)
        # Drop any honestly-compiled (memoized) nodes for this system.
        _context.current().compiled_systems.clear()
        failures = check_compiled_differential(
            system, [belief], points, goodruns=goodruns
        )
        assert failures
        assert {f.oracle for f in failures} == {"compiled_vs_interpreted"}
        # Sanity: the honest engines agree (and say vacuously-true).
        monkeypatch.undo()
        _context.current().compiled_systems.clear()
        assert (
            check_compiled_differential(
                system, [belief], points, goodruns=goodruns
            )
            == []
        )
        assert compiled_for(system, goodruns).evaluate(belief, *points[0])


# ---------------------------------------------------------------------------
# Property: compiled == interpreted on random formulas
# ---------------------------------------------------------------------------


def _property_system():
    """Two runs A cannot tell apart (B and S can): belief is nontrivial,
    and every run binds ``KEY_PARAM`` so parameterized formulas ground."""
    keysets = {A: [Kab, Kas], B: [Kab, Kbs], S: [Kas, Kbs]}
    params = {KEY_PARAM: Kab}

    def build(name, s_plaintext):
        builder = RunBuilder([A, B, S], keysets=keysets)
        builder.send(A, encrypted(Na, Kab, A), B)
        builder.receive(B)
        builder.mark_epoch()
        builder.send(B, group(Nb, Na), A)
        builder.receive(A)
        if s_plaintext:
            builder.send(S, Nb, B)
        else:
            builder.send(S, encrypted(Nb, Kbs, S), B)
        builder.receive(B)
        return builder.build(name, params=params)

    runs = [build("r1", False), build("r2", True)]
    interp = Interpretation.from_run_table(
        {PROPS[0]: ["r1"], PROPS[1]: ["r1", "r2"]}
    )
    return system_of(runs, interp, VOCAB)


_PROPERTY_SYSTEM = _property_system()
_POINTS = tuple(_PROPERTY_SYSTEM.points())
_INTERPRETED = Evaluator(_PROPERTY_SYSTEM)
_COMPILED = CompiledSystem(_PROPERTY_SYSTEM)


def _outcome(engine, formula, run, k):
    try:
        return (engine.evaluate(formula, run, k), None)
    except SemanticsError as error:
        return (None, str(error))


def _parameterize(formula):
    """Abstract the key constant ``Kab`` to the run-bound parameter."""
    return transform(
        formula, lambda node: KEY_PARAM if node == Kab else None
    )


_formula_cases = st.one_of(
    formulas(),
    # Guaranteed-nested beliefs: the possibility-group machinery must
    # agree under re-entry, not just at top level.
    st.tuples(principals, principals, formulas()).map(
        lambda t: Believes(t[0], Believes(t[1], t[2]))
    ),
)


class TestCompiledMatchesInterpreted:
    @settings(max_examples=80, deadline=None)
    @given(formula=_formula_cases, abstract=st.booleans())
    def test_agree_at_every_point(self, formula, abstract):
        if abstract:
            # Non-ground twin: both engines must take the Section 8
            # substitution path and land on the same verdicts.
            formula = _parameterize(formula)
        for run, k in _POINTS:
            assert _outcome(_COMPILED, formula, run, k) == _outcome(
                _INTERPRETED, formula, run, k
            ), f"{formula} @ ({run.name}, {k})"

    def test_unbound_parameter_errors_match(self):
        # A parameter no run assigns: both engines must raise, equally.
        from repro.terms import Sort
        from repro.terms.formulas import Has

        probe = VOCAB.parameter("KPunbound", Sort.KEY)
        needy = Has(A, probe)
        run, k = _POINTS[0]
        assert _outcome(_COMPILED, needy, run, k) == _outcome(
            _INTERPRETED, needy, run, k
        )
        with pytest.raises(SemanticsError):
            _COMPILED.evaluate(needy, run, k)


# ---------------------------------------------------------------------------
# Tracer parity: golden why-false tree
# ---------------------------------------------------------------------------


def _two_run_belief_system():
    """The golden scenario of ``test_obs_trace``: two runs A cannot tell
    apart, ``p`` true only in the first, so ``A believes p`` is false."""
    TA = Principal("A")
    TB = Principal("B")
    K = Key("K")
    N = Nonce("N")
    vocab = Vocabulary()
    vocab.principal("A")
    vocab.principal("B")
    vocab.key("K")
    vocab.nonce("N")

    def build(name):
        builder = RunBuilder([TA, TB], keysets={TA: [K], TB: [K]})
        builder.send(TA, N, TB)
        builder.receive(TB)
        return builder.build(name)

    runs = [build("r1"), build("r2")]
    prop = vocab.proposition("p")
    interp = Interpretation.from_run_table({prop: ["r1"]})
    return system_of(runs, interp, vocab), runs, TA, Prim(prop)


class TestTracerParity:
    def test_golden_why_false_tree_identical_under_both_engines(self):
        system, runs, who, p = _two_run_belief_system()
        belief = Believes(who, p)

        interpreted_tracer = Tracer()
        interpreted_verdict = Evaluator(
            system, tracer=interpreted_tracer
        ).evaluate(belief, runs[0], 0)

        compiled_tracer = Tracer()
        compiled_verdict = CompiledSystem(system).evaluate_traced(
            belief, runs[0], 0, compiled_tracer
        )

        assert interpreted_verdict is False
        assert compiled_verdict is False

        interpreted_root = interpreted_tracer.roots[0]
        compiled_root = compiled_tracer.roots[0]
        interpreted_render = render_why(interpreted_root)
        assert interpreted_render == render_why(compiled_root)
        assert list(trace_records(interpreted_root, schema="X")) == list(
            trace_records(compiled_root, schema="X")
        )
        # And it is the golden tree, not merely an identical pair.
        first = interpreted_render.splitlines()[0]
        assert first.startswith("✗ Believes: A believes p  @(r1, 0)")
        assert "possible_points=" in first

    def test_traced_verdicts_match_untraced_compiled(self):
        system, runs, who, p = _two_run_belief_system()
        compiled = CompiledSystem(system)
        for formula in (p, Believes(who, p)):
            for run in runs:
                for k in run.times:
                    traced = compiled.evaluate_traced(
                        formula, run, k, Tracer()
                    )
                    assert traced == compiled.evaluate(formula, run, k)


class TestCompiledCacheKeying:
    """The per-context compiled cache must never alias dead systems.

    The cache used to key on ``id(system)``; after an entry's system
    died (eviction elsewhere, gc) CPython readily hands the same
    address to a new object, so a lookup could return a compilation of
    a *previous* system.  Keys now use ``System.serial`` — a monotonic
    in-process token that is never reused — with an identity check on
    hit for the one remaining collision channel (unpickled systems keep
    their origin serial).
    """

    def test_serials_unique_and_monotonic_across_equal_systems(self):
        import gc

        systems = [
            generate_system(GeneratorConfig(seed=31, runs=2, steps_per_run=6))
            for _ in range(3)
        ]
        serials = [s.serial for s in systems]
        assert len(set(serials)) == len(serials)
        assert serials == sorted(serials)
        # Serials survive their system's death: a fresh system never
        # reuses one, even when it lands on a recycled address.
        dead_serial = systems[0].serial
        del systems
        gc.collect()
        fresh = generate_system(
            GeneratorConfig(seed=31, runs=2, steps_per_run=6)
        )
        assert fresh.serial != dead_serial

    def test_id_reuse_after_death_yields_fresh_compilation(self):
        import gc

        with _context.scoped("id-reuse"):
            # Churn create/compile/die cycles; address reuse is common
            # here.  Under id() keying a recycled address aliased the
            # dead entry; under serial keying every lookup must bind
            # the live object.
            for _ in range(10):
                system = generate_system(
                    GeneratorConfig(seed=32, runs=2, steps_per_run=6)
                )
                compiled = compiled_for(system, None)
                assert compiled.system is system
                del system, compiled
                gc.collect()

    def test_serial_collision_verifies_identity_on_hit(self):
        with _context.scoped("serial-collision") as ctx:
            a = generate_system(
                GeneratorConfig(seed=33, runs=2, steps_per_run=6)
            )
            b = generate_system(
                GeneratorConfig(seed=34, runs=2, steps_per_run=6)
            )
            compiled_a = compiled_for(a, None)
            # Simulate the cross-process channel: an unpickled system
            # arriving with a serial some local system already holds.
            object.__setattr__(b, "serial", a.serial)
            before = ctx.counters.get("compiled_eval.serial_collision", 0)
            compiled_b = compiled_for(b, None)
            assert compiled_b is not compiled_a
            assert compiled_b.system is b
            assert (
                ctx.counters["compiled_eval.serial_collision"] == before + 1
            )
            # The colliding slot now belongs to the live object.
            assert compiled_for(b, None) is compiled_b

    def test_unpickled_system_keeps_origin_serial(self):
        import pickle

        system = generate_system(
            GeneratorConfig(seed=35, runs=2, steps_per_run=6)
        )
        revived = pickle.loads(pickle.dumps(system))
        # This is why serial-keyed caches still verify identity on hit:
        # dataclass pickling restores fields without __post_init__, so
        # a shipped system collides with its origin's serial space.
        assert revived.serial == system.serial
