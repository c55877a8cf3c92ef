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

Then the one-walk contract of ``CompiledSystem._compile``: which
formulas compile to ``None``, what a refusal counts and journals, how
the sweep routes non-ground instances, and foreign runs that share a
system run's name.  Then the bitset contract: a node is its truth
bitset, computed once when the formula is first compiled, and compiled
state dies with its context without the cycle collector.  Last, the
indexed leaves (every ``sees``/``has``/``said``/``says``/``controls``
leaf compiles to the interpreter's bitset, and a planted ``says`` bug
is caught) and the compile counters (one ``truth_bits`` call counts
exactly the nodes it visited).
"""

from __future__ import annotations

import gc
import random
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import context as _context
from repro.errors import ReproError, SemanticsError
from repro.fuzz.oracles import (
    check_compiled_differential,
    sample_formulas,
    sample_points,
)
from repro.logic.axioms import Schema
from repro.model import ENVIRONMENT, Interpretation, RunBuilder, system_of
from repro.model.actions import NewKey
from repro.obs import journal
from repro.obs.trace import (
    Tracer,
    render_why,
    trace_evaluation,
    trace_records,
)
from repro.semantics import Evaluator
from repro.semantics.backend import get_backend
from repro.semantics.compiler import CompiledSystem, compiled_for
from repro.semantics.goodvectors import GoodRunVector
from repro.semantics.vector_eval import VectorTruth
from repro.soundness import GeneratorConfig, generate_system
from repro.soundness.sweep import sweep_system
from repro.terms import (
    And,
    Believes,
    Controls,
    ForAll,
    Fresh,
    Has,
    Key,
    Nonce,
    Not,
    Or,
    Parameter,
    Prim,
    Principal,
    PublicKeyOf,
    Said,
    Says,
    Sees,
    SharedKey,
    SharedSecret,
    Sort,
    Vocabulary,
)
from repro.terms.formulas import Formula
from repro.terms.ops import is_ground, submessages_of_all, transform
from repro.terms.parser import parse_formula

from tests.strategies import (
    KEY_PARAM,
    KEYS,
    NONCES,
    PRINCIPALS,
    PROPS,
    VOCAB,
    formulas,
    principals,
    sweep_fingerprint,
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

        def buggy(self, formula, body: int) -> int:
            bits = 0
            for member_bits, possible_bits in self._belief_groups_for(
                formula.principal
            ):
                if possible_bits and possible_bits & body == possible_bits:
                    bits |= member_bits
            return bits

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
        bits = _COMPILED.truth_bits(formula)
        if not is_ground(formula):
            assert bits is None, formula
        for i, (run, k) in enumerate(_POINTS):
            outcome = _outcome(_COMPILED, formula, run, k)
            assert outcome == _outcome(
                _INTERPRETED, formula, run, k
            ), f"{formula} @ ({run.name}, {k})"
            if bits is not None:
                assert outcome == (bool((bits >> i) & 1), None)

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
    """Tracing takes the backend's interpreter (``trace_evaluation``, as
    serve and fuzz do), whichever engine answered the verdict."""

    def test_golden_why_false_tree_identical_under_both_engines(self):
        system, runs, who, p = _two_run_belief_system()
        belief = Believes(who, p)

        interpreted_tracer = Tracer()
        interpreted_verdict = Evaluator(
            system, tracer=interpreted_tracer
        ).evaluate(belief, runs[0], 0)

        traced_verdict, traced_root = trace_evaluation(
            system, belief, runs[0], 0
        )

        assert interpreted_verdict is False
        assert traced_verdict is False
        assert CompiledSystem(system).evaluate(belief, runs[0], 0) is False

        interpreted_root = interpreted_tracer.roots[0]
        interpreted_render = render_why(interpreted_root)
        assert interpreted_render == render_why(traced_root)
        assert list(trace_records(interpreted_root, schema="X")) == list(
            trace_records(traced_root, schema="X")
        )
        # And it is the golden tree, not merely an identical pair.
        first = interpreted_render.splitlines()[0]
        assert first.startswith("✗ Believes: A believes p  @(r1, 0)")
        assert "possible_points=" in first

    def test_traced_verdicts_match_untraced_compiled(self):
        system, runs, who, p = _two_run_belief_system()
        compiled = CompiledSystem(system)
        backend = get_backend()
        for formula in (p, Believes(who, p)):
            for run in runs:
                for k in run.times:
                    traced = backend.interpreter(
                        system, tracer=Tracer()
                    ).evaluate(formula, run, k)
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


# ---------------------------------------------------------------------------
# The one walk: groundness and support decided while compiling
# ---------------------------------------------------------------------------


def _partial_system():
    """Two runs; S has local state only in the first, so every clause
    that looks up S's state is refused by the compiler."""
    keysets = {A: [Kab, Kas], B: [Kab, Kbs], S: [Kas, Kbs]}

    def build(name, principals):
        builder = RunBuilder(
            principals, keysets={p: keysets[p] for p in principals}
        )
        builder.send(A, encrypted(Na, Kab, A), B)
        builder.receive(B)
        return builder.build(name)

    runs = [build("r1", [A, B, S]), build("r2", [A, B])]
    interp = Interpretation.from_run_table({PROPS[0]: ["r1"]})
    return system_of(runs, interp, VOCAB)


def _any_outcome(engine, formula, run, k):
    try:
        return (engine.evaluate(formula, run, k), None)
    except ReproError as error:
        return (None, f"{type(error).__name__}: {error}")


def _fallback_events():
    return [event for event in journal.snapshot() if event["kind"] == "fallback"]


_WHO = Parameter("Pw", Sort.PRINCIPAL)

#: Non-ground formulas, one per place a free parameter can sit.
_NON_GROUND = (
    Sees(A, encrypted(Na, KEY_PARAM, A)),
    Said(A, KEY_PARAM),
    Says(_WHO, Na),
    Has(A, KEY_PARAM),
    Fresh(KEY_PARAM),
    SharedKey(A, KEY_PARAM, B),
    SharedKey(_WHO, Kab, B),
    SharedSecret(A, Na, _WHO),
    PublicKeyOf(_WHO, KEY_PARAM),
    Believes(_WHO, Prim(PROPS[0])),
    Controls(A, Has(B, KEY_PARAM)),
    Not(Believes(A, Has(B, KEY_PARAM))),
    ForAll(_WHO, Has(_WHO, KEY_PARAM)),
)


class TestOneWalk:
    def test_non_ground_formula_is_none_without_fallback(self):
        with _context.scoped("non-ground") as ctx:
            compiled = CompiledSystem(_PROPERTY_SYSTEM)
            for formula in _NON_GROUND:
                assert not is_ground(formula)
                assert compiled.truth_bits(formula) is None, formula
                assert compiled.truth_bits(formula) is None, formula
            assert "compiled_eval.fallback" not in ctx.counters
            assert _fallback_events() == []

    def test_free_parameter_over_an_empty_domain_is_none(self):
        """Every expansion of a quantifier with no constants compiles,
        yet a second free parameter still makes its truth per run."""
        vocab = Vocabulary()
        who, key = vocab.principal("A"), vocab.key("K")
        builder = RunBuilder([who], keysets={who: [key]})
        system = system_of([builder.build("r1")], None, vocab)
        vacuous = ForAll(Parameter("Nx", Sort.NONCE), Has(who, KEY_PARAM))
        with _context.scoped("empty-domain") as ctx:
            assert CompiledSystem(system).truth_bits(vacuous) is None
            assert "compiled_eval.fallback" not in ctx.counters

    @pytest.mark.parametrize("formula", [
        Sees(S, Na),
        Said(S, Na),
        Says(S, Na),
        Has(S, Kas),
        Controls(S, Prim(PROPS[0])),
        Believes(S, Prim(PROPS[0])),
        Not(Believes(A, Sees(S, Na))),
        PublicKeyOf(A, Kab),
        ForAll(_WHO, Sees(_WHO, Na)),
    ], ids=str)
    def test_each_gate_counts_every_call_and_journals_once(self, formula):
        """A ground formula a gate refuses is a fallback on every call
        but one journal event.  (The F5/F6 gate needs principals on both
        sides, which only a principal parameter can miss: see the
        non-ground test.)"""
        system = _partial_system()
        with _context.scoped("gates") as ctx:
            compiled = CompiledSystem(system)
            for _ in range(3):
                assert compiled.truth_bits(formula) is None
            assert ctx.counters["compiled_eval.fallback"] == 3
            assert [e["attrs"]["formula"] for e in _fallback_events()] == [
                str(formula)
            ]
            # The interpreter answers instead, errors included.
            interpreter = Evaluator(system)
            for run, k in compiled.points:
                assert _any_outcome(compiled, formula, run, k) == (
                    _any_outcome(interpreter, formula, run, k)
                )

    def test_memoized_refusal_is_a_hit_and_not_cached_bits(self):
        system = _partial_system()
        refused, compiled_ok = Sees(S, Na), Sees(A, Na)
        with _context.scoped("memo-none") as ctx:
            checker = VectorTruth(system)
            compiled = checker.compiled
            assert compiled.truth_bits(refused) is None
            hits = ctx.counters.get("compiled_eval.hit", 0)
            misses = ctx.counters["compiled_eval.miss"]
            assert compiled.truth_bits(refused) is None
            assert ctx.counters["compiled_eval.hit"] == hits + 1
            assert ctx.counters["compiled_eval.miss"] == misses
            assert refused in compiled._nodes
            assert compiled._nodes[refused] is None
            assert compiled.truth_bits(compiled_ok) is not None
            assert compiled._nodes[compiled_ok] is not None

    def test_sweep_routes_non_ground_instances_per_point(self):
        """Parameterized instances skip the whole-system route and
        still sweep exactly as the interpreter does, violations
        included."""
        twins = tuple(_parameterize(formula) for formula in (
            Has(A, Kab),
            Not(Has(A, Kab)),
            Sees(B, encrypted(Na, Kab, A)),
            Believes(A, Has(B, Kab)),
            Believes(A, Prim(PROPS[0])),
        )) + (Has(B, Kab),)
        schema = Schema("T1", "parameterized twins", lambda: None,
                        lambda pool: iter(twins))
        reports = {
            engine: sweep_system(_PROPERTY_SYSTEM, schemas=(schema,),
                                 engine=engine)
            for engine in ("compiled", "interpreted")
        }
        assert sweep_fingerprint(reports["compiled"]) == sweep_fingerprint(
            reports["interpreted"]
        )
        swept = reports["compiled"].per_schema["T1"]
        assert swept.points_checked == len(twins) * len(_POINTS)
        assert swept.violations


class TestForeignRuns:
    def test_foreign_run_sharing_a_name_is_interpreted(self):
        """Seeds 1 and 2 both name their runs run-1..3: a compiled seed-1
        system must answer seed 2's points as the interpreter does, not
        with the bits of its own same-named runs."""
        one = generate_system(GeneratorConfig(seed=1))
        two = generate_system(GeneratorConfig(seed=2))
        assert [r.name for r in one.runs] == [r.name for r in two.runs]
        formulas_ = [
            parse_formula(text, one.vocabulary)
            for text in ("P1 sees N1", "P2 said N1", "P1 has K1", "p0",
                         "P1 believes p0", "fresh(N1)")
        ]
        compiled = CompiledSystem(one)
        for formula in formulas_:
            compiled.truth_bits(formula)  # fill the shared kernel memos
        for formula in formulas_:
            for run, k in two.points():
                assert compiled.evaluate(formula, run, k) == Evaluator(
                    one
                ).evaluate(formula, run, k), f"{formula} @ ({run.name}, {k})"


# ---------------------------------------------------------------------------
# The bitset contract: a node is its truth bitset
# ---------------------------------------------------------------------------


def _counting(system):
    """``system`` with a predicate interpretation that counts its calls
    per point (``p0`` holds in run ``r1``)."""
    calls: Counter = Counter()

    def predicate(proposition, run, k):
        calls[(run.name, k)] += 1
        return run.name == "r1"

    return system_of(system.runs, Interpretation.from_predicate(predicate),
                     VOCAB), calls


class TestBitsetNodes:
    def test_dropped_context_frees_compiled_state_without_the_collector(
        self, system
    ):
        """No node refers back to its compiled system, so dropping the
        context frees the compiled state by reference counting alone."""
        who = Parameter("Px", Sort.PRINCIPAL)
        formulas_ = [
            parse_formula(text, system.vocabulary)
            for text in ("P1 believes p0", "P2 believes (P1 sees N1)",
                         "P1 said N2", "~(P3 says N1) | p0")
        ] + [ForAll(who, Said(who, system.vocabulary.nonce("N1")))]
        gc.disable()
        try:
            ctx = _context.fresh("dropped")
            with _context.use(ctx):
                compiled = compiled_for(system, None)
                for formula in formulas_:
                    assert compiled.truth_bits(formula) is not None
            dead = weakref.ref(compiled)
            del compiled, ctx
            assert dead() is None
        finally:
            gc.enable()

    def test_prim_predicate_runs_once_per_point(self):
        counted, calls = _counting(_PROPERTY_SYSTEM)
        p0 = Prim(PROPS[0])
        with _context.scoped("prim-once"):
            compiled = CompiledSystem(counted)
            bits = compiled.truth_bits(p0)
            assert compiled.truth_bits(p0) == bits
            for i, (run, k) in enumerate(compiled.points):
                assert compiled.evaluate(p0, run, k) == bool((bits >> i) & 1)
            assert compiled.truth_bits(And(p0, Believes(A, p0))) is not None
        assert calls == Counter({(run.name, k): 1 for run, k in _POINTS})

    def test_refused_parent_leaves_its_children_computed(self):
        """The children compile first: after a refusal, a compilable
        child is a hit whose bits were computed on the way."""
        counted, calls = _counting(_partial_system())
        p0 = Prim(PROPS[0])
        with _context.scoped("refused-parent") as ctx:
            compiled = CompiledSystem(counted)
            assert compiled.truth_bits(And(p0, Sees(S, Na))) is None
            computed = sum(calls.values())
            assert computed == len(compiled.points)
            hits = ctx.counters.get("compiled_eval.hit", 0)
            misses = ctx.counters["compiled_eval.miss"]
            assert compiled.truth_bits(p0) == compiled.run_mask("r1")
            assert ctx.counters["compiled_eval.hit"] == hits + 1
            assert ctx.counters["compiled_eval.miss"] == misses
            assert sum(calls.values()) == computed


# ---------------------------------------------------------------------------
# Indexed leaves: one lookup per sees/has/said/says/controls node
# ---------------------------------------------------------------------------


def _leaves(system):
    """Every sees/has/said/says/controls leaf over the system's messages
    and keys, plus a message and a key nobody sent or held, for each
    principal (the environment included)."""
    messages = {Nonce("Nunsent")}
    keys = {Key("Kunheld")}
    for run in system.runs:
        messages |= submessages_of_all(run.messages_sent_by(run.end_time))
        for principal in run.all_principals:
            for k in run.times:
                keys |= run.keyset(principal, k)
    bodies = [m for m in messages if isinstance(m, Formula)] + [
        Prim(proposition) for proposition in PROPS
    ]
    leaves = []
    for principal in system.principals() + (ENVIRONMENT,):
        for message in sorted(messages, key=str):
            leaves += [Sees(principal, message), Said(principal, message),
                       Says(principal, message)]
        leaves += [Has(principal, key) for key in sorted(keys, key=str)]
        leaves += [Controls(principal, body) for body in bodies]
    return leaves


def _newkey_system(seed):
    system = generate_system(GeneratorConfig(seed=seed))
    assert any(
        isinstance(action, NewKey)
        for run in system.runs
        for _who, action in run.state(run.end_time).env.history
    )
    return system


def _jurisdiction_system():
    """A says ``p0`` only before the epoch and ``p1`` after it, in both
    runs; both hold in ``r1`` only.  So A controls ``p1`` in ``r1``
    alone, and ``p0`` everywhere: a pre-epoch send is no saying."""
    p0, p1 = Prim(PROPS[0]), Prim(PROPS[1])

    def build(name):
        builder = RunBuilder([A, B], keysets={A: [Kab], B: [Kab]})
        builder.send(A, p0, B)
        builder.receive(B)
        builder.mark_epoch()
        builder.send(A, p1, B)
        builder.receive(B)
        return builder.build(name)

    interp = Interpretation.from_run_table({PROPS[0]: ["r1"],
                                            PROPS[1]: ["r1"]})
    return system_of([build("r1"), build("r2")], interp, VOCAB)


_JURISDICTION_SYSTEM = _jurisdiction_system()


class TestIndexedLeaves:
    def test_leaves_compile_to_the_interpreters_bitsets(self):
        kinds = Counter()
        for system in (_PROPERTY_SYSTEM, _JURISDICTION_SYSTEM,
                       _newkey_system(1), _newkey_system(3)):
            interpreter = Evaluator(system)
            points = tuple(system.points())
            with _context.scoped("indexed-leaves"):
                compiled = CompiledSystem(system)
                for leaf in _leaves(system):
                    expected = sum(
                        1 << i for i, (run, k) in enumerate(points)
                        if interpreter.evaluate(leaf, run, k)
                    )
                    assert compiled.truth_bits(leaf) == expected, str(leaf)
                    kinds[type(leaf).__name__, "holds"] += expected != 0
                    kinds[type(leaf).__name__, "fails"] += (
                        expected != compiled.full_mask)
        # Every clause holds at some point and fails at another.
        for kind in ("Sees", "Said", "Says", "Has", "Controls"):
            assert kinds[kind, "holds"] and kinds[kind, "fails"], kind

    def test_pre_epoch_sends_make_said_and_says_differ(self):
        said = [leaf for leaf in _leaves(_PROPERTY_SYSTEM)
                if isinstance(leaf, Said)]
        compiled = CompiledSystem(_PROPERTY_SYSTEM)
        assert any(
            compiled.truth_bits(leaf)
            != compiled.truth_bits(Says(leaf.principal, leaf.message))
            for leaf in said
        )

    @pytest.mark.parametrize("clause", [Says, Controls],
                             ids=lambda clause: clause.__name__)
    def test_says_index_keeping_old_sends_is_caught(self, clause,
                                                    monkeypatch):
        """A planted bug: a ``says`` index that keeps sends at time <= 0
        (the ``said`` index).  The differential oracle must catch it,
        on ``says`` leaves and on ``controls`` leaves alike."""
        system = _JURISDICTION_SYSTEM
        points = tuple(system.points())
        leaves = [leaf for leaf in _leaves(system) if isinstance(leaf, clause)]
        with _context.scoped("honest-says"):
            assert check_compiled_differential(system, leaves, points) == []
        honest = CompiledSystem._index

        def keeps_old_sends(self, kind, principal):
            return honest(self, "said" if kind == "says" else kind, principal)

        monkeypatch.setattr(CompiledSystem, "_index", keeps_old_sends)
        with _context.scoped("planted-says"):
            failures = check_compiled_differential(system, leaves, points)
        assert failures
        assert {f.oracle for f in failures} == {"compiled_vs_interpreted"}


# ---------------------------------------------------------------------------
# Compile counters: each truth_bits call counts the nodes it visited
# ---------------------------------------------------------------------------


def _tally(ctx):
    counters = ctx.counters
    return (counters.get("compiled_eval.hit", 0),
            counters.get("compiled_eval.miss", 0))


class TestCompileCounters:
    def test_one_call_counts_exactly_the_nodes_it_visited(self):
        p, q = Prim(PROPS[0]), Prim(PROPS[1])
        with _context.scoped("tally") as ctx:
            compiled = CompiledSystem(_PROPERTY_SYSTEM)
            compiled.truth_bits(And(p, q))
            assert _tally(ctx) == (0, 3)
            compiled.truth_bits(And(p, q))
            assert _tally(ctx) == (1, 3)
            compiled.truth_bits(Or(q, Not(p)))
            assert _tally(ctx) == (3, 5)

    def test_raising_builder_leaves_no_stale_tally(self, monkeypatch):
        """The walk's tallies reach the context even when a builder
        raises, and the next call counts only its own nodes."""
        p, q = Prim(PROPS[0]), Prim(PROPS[1])

        def broken(self, formula, left, right):
            raise RuntimeError("planted")

        # Patched before the compiled system exists, as a class-level
        # builder patch must be to take effect.
        monkeypatch.setattr(CompiledSystem, "_build_or", broken)
        compiled = CompiledSystem(_PROPERTY_SYSTEM)
        with _context.scoped("raising") as ctx:
            with pytest.raises(RuntimeError, match="planted"):
                compiled.truth_bits(Or(p, q))
            assert _tally(ctx) == (0, 3)
        with _context.scoped("after") as ctx:
            assert compiled.truth_bits(p) == compiled.run_mask("r1")
            assert _tally(ctx) == (1, 0)


# ---------------------------------------------------------------------------
# Compilations at a vector share the top compilation's tables
# ---------------------------------------------------------------------------


def _counting_walks(monkeypatch) -> Counter:
    """Count ``hidden_run_views`` calls per (principal, run name)."""
    from repro.semantics import evaluator as evaluator_module

    walks = Counter()
    honest = evaluator_module.hidden_run_views

    def counting(run, principal, pattern_hide, nodes):
        walks[principal, run.name] += 1
        return honest(run, principal, pattern_hide, nodes)

    monkeypatch.setattr(evaluator_module, "hidden_run_views", counting)
    return walks


class TestCompilationsAtAVector:
    SYSTEM = generate_system(GeneratorConfig(seed=3, runs=4))
    TEXTS = (
        "P1 believes p0",
        "P2 believes (P1 sees N1)",
        "P1 believes (P2 believes (P3 sees N2)) & P3 said N2",
        "~(P3 says N1) | P1 believes p0",
        "P2 controls (P1 believes p0)",
    )

    def _formulas(self):
        return [parse_formula(text, self.SYSTEM.vocabulary)
                for text in self.TEXTS]

    def _vectors(self):
        P1, P2, _P3 = self.SYSTEM.principals()
        names = [run.name for run in self.SYSTEM.runs]
        return [GoodRunVector.of({P1: names[:size]}) for size in (0, 1, 2)] + [
            GoodRunVector.of({P1: names[2:], P2: names[1:3]})]

    def test_vectors_walk_no_view_and_build_no_index(self, monkeypatch):
        """After the top compilation, each compilation at a vector
        reads the top's view classes and leaf indices: no hidden-view
        walk and no index of its own, and the interpreter's answers."""
        system, formulas_ = self.SYSTEM, self._formulas()
        expected = {
            (vector, formula): sum(
                1 << i for i, (run, k) in enumerate(system.points())
                if interpreter.evaluate(formula, run, k)
            )
            for vector in self._vectors()
            for interpreter in [Evaluator(system, vector)]
            for formula in formulas_
        }
        walks = _counting_walks(monkeypatch)
        with _context.scoped("vectors-share"):
            top = compiled_for(system)
            for formula in formulas_:
                assert top.truth_bits(formula) is not None
            walked, indices = Counter(walks), set(top._indices)
            assert walked and set(walked.values()) == {1}
            for vector in self._vectors():
                compiled = compiled_for(system, vector)
                assert compiled._top is top
                assert "_indices" not in vars(compiled)
                for formula in formulas_:
                    assert compiled.truth_bits(formula) == (
                        expected[vector, formula]), (formula, vector)
            assert walks == walked
            assert set(top._indices) == indices
        # The vectors moved some verdicts: the tables are shared, not
        # the answers.
        assert any(
            len({expected[vector, formula] for vector in self._vectors()}) > 1
            for formula in formulas_
        )

    def test_vectors_take_the_forall_expansions_from_the_top(
        self, monkeypatch
    ):
        """After the top compilation compiles a ``ForAll``, compilations
        at two restricting vectors substitute nothing: they read the
        top's expansions, and answer as the interpreter does."""
        from repro.semantics import compiler as compiler_module

        system = self.SYSTEM
        P1, _P2, P3 = system.principals()
        x = Parameter("x", Sort.NONCE)
        formula = ForAll(x, Believes(P1, Not(Said(P3, x))))
        vectors = self._vectors()[1:3]
        substitutions = []
        honest = compiler_module.substitute

        def counting(message, assignment):
            substitutions.append(message)
            return honest(message, assignment)

        monkeypatch.setattr(compiler_module, "substitute", counting)
        with _context.scoped("forall-at-vectors"):
            top = compiled_for(system).truth_bits(formula)
            assert top is not None and substitutions
            substitutions.clear()
            answers = {
                vector: compiled_for(system, vector).truth_bits(formula)
                for vector in vectors
            }
        assert substitutions == []
        # The vectors moved the verdict: the expansions are shared, not
        # the answers.
        assert len({top, *answers.values()}) == 3
        for vector in vectors:
            interpreter = Evaluator(system, vector)
            assert answers[vector] == sum(
                1 << i for i, (run, k) in enumerate(system.points())
                if interpreter.evaluate(formula, run, k)
            ), vector

    def test_vector_truth_answers_a_belief_under_controls(self):
        """A belief under ``Controls`` at a restricting vector: one
        bitset, equal to the interpreter at every point."""
        system = self.SYSTEM
        formula = parse_formula("P2 controls (P1 believes p0)",
                                system.vocabulary)
        P1 = system.principals()[0]
        vector = GoodRunVector.of({P1: [run.name for run in system.runs[:2]]})
        with _context.scoped("controls-at-vector"):
            bits = VectorTruth(system).truth_bits(formula, vector)
        assert bits is not None
        interpreter = Evaluator(system, vector)
        for i, (run, k) in enumerate(system.points()):
            assert bool((bits >> i) & 1) == interpreter.evaluate(formula, run, k)
