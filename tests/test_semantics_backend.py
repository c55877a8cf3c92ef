"""The semantics-backend seam: resolution, parity, and the containment.

Three layers of confidence in ``repro.semantics.backend``:

* name resolution against the two built-in backends (and its error
  path for an unknown name);
* backend parity on the full protocol corpus — belief interpreted,
  belief compiled, epistemic interpreted, and epistemic compiled must
  agree wherever the theory says they must (exactly on belief-free
  formulas, compiled==interpreted within each backend, and never
  epistemic-true/belief-false on belief-positive formulas);
* the ``cross_backend`` fuzz oracle demonstrably catches a planted
  wrong-direction bug (an ``epistemic`` compile patched to a Believes
  clause that is always true).
"""

import random

import pytest

from repro import context
from repro.errors import EngineError, SemanticsError
from repro.fuzz.oracles import (
    _mentions_belief,
    check_cross_backend,
    sample_formulas,
    sample_goodrun_vector,
    sample_points,
)
from repro.goodruns.construction import construct_good_runs
from repro.protocols import (
    forwarding,
    kerberos,
    needham_schroeder,
    otway_rees,
    wide_mouth_frog,
    yahalom,
)
from repro.semantics.backend import (
    DEFAULT_BACKEND,
    backend_names,
    get_backend,
)
from repro.semantics.compiler import CompiledSystem, compiled_for
from repro.semantics.epistemic import (
    CompiledEpistemicSystem,
    EpistemicBackend,
    EpistemicEvaluator,
)
from repro.semantics.evaluator import Evaluator
from repro.semantics.goodvectors import GoodRunVector
from repro.semantics.vector_eval import VectorTruth
from repro.soundness import GeneratorConfig, generate_system
from repro.soundness.audit import assumptions_vector
from repro.terms.formulas import Believes
from repro.terms.ops import has_belief_under_negation

SYSTEM_CASES = [
    (kerberos, kerberos.at_protocol, "kerberos-normal"),
    (needham_schroeder, needham_schroeder.at_protocol, "ns-normal"),
    (otway_rees, otway_rees.at_protocol, "otway-rees-normal"),
    (yahalom, yahalom.at_protocol, "yahalom-normal"),
    (wide_mouth_frog, wide_mouth_frog.at_protocol, "wmf-normal"),
    (forwarding, forwarding.at_protocol, "courier-honest"),
]


class TestRegistry:
    def test_unknown_backend_is_clean_engine_error(self):
        with context.use(context.fresh("registry-unknown")):
            with pytest.raises(EngineError) as excinfo:
                get_backend("nosuch")
        message = str(excinfo.value)
        assert "unknown semantics backend 'nosuch'" in message
        assert "belief" in message and "epistemic" in message

    def test_builtins_present_and_resolvable(self):
        with context.use(context.fresh("registry-builtins")):
            assert backend_names() == ("belief", "epistemic")
            assert get_backend().name == DEFAULT_BACKEND
            assert get_backend("epistemic").name == "epistemic"
            assert isinstance(get_backend("epistemic"), EpistemicBackend)


@pytest.mark.parametrize(
    "module, protocol_factory, run_name",
    SYSTEM_CASES,
    ids=[case[2] for case in SYSTEM_CASES],
)
class TestCorpusParity:
    """Belief interpreted == belief compiled, epistemic interpreted ==
    epistemic compiled, and the containment across backends, on every
    protocol in the corpus (assumptions + goals, every point of the
    normal run, under the constructed good-run vector)."""

    def _engines_and_formulas(self, module, protocol_factory):
        protocol = protocol_factory()
        system = module.build_system()
        vector = construct_good_runs(
            system, assumptions_vector(protocol)
        ).vector
        formulas = list(protocol.assumptions) + [
            goal.formula for goal in protocol.goals
        ]
        engines = {
            "belief_interp": Evaluator(system, vector),
            "belief_compiled": compiled_for(system, vector),
            "epistemic_interp": EpistemicEvaluator(system, vector),
            "epistemic_compiled": get_backend("epistemic").compile(
                system, vector
            ),
        }
        return system, formulas, engines

    @staticmethod
    def _verdict(engine, formula, run, k):
        try:
            return engine.evaluate(formula, run, k)
        except SemanticsError as error:
            return f"error: {error}"

    def test_parity_and_containment(self, module, protocol_factory, run_name):
        system, formulas, engines = self._engines_and_formulas(
            module, protocol_factory
        )
        run = system.run(run_name)
        for formula in formulas:
            belief_free = not _mentions_belief(formula)
            monotone = not belief_free and not has_belief_under_negation(
                formula
            )
            for k in run.times:
                verdicts = {
                    name: self._verdict(engine, formula, run, k)
                    for name, engine in engines.items()
                }
                label = f"{formula} @ ({run_name}, {k}): {verdicts}"
                # Within each backend, compiled must match interpreted.
                assert verdicts["belief_interp"] == verdicts[
                    "belief_compiled"
                ], label
                assert verdicts["epistemic_interp"] == verdicts[
                    "epistemic_compiled"
                ], label
                if belief_free:
                    assert verdicts["belief_compiled"] == verdicts[
                        "epistemic_compiled"
                    ], label
                elif monotone:
                    # Containment: epistemic-true implies belief-true.
                    assert not (
                        verdicts["epistemic_compiled"] is True
                        and verdicts["belief_compiled"] is False
                    ), label


class TestEpistemicEngine:
    def test_compiled_cache_keys_do_not_alias_belief(self):
        """Both backends' compiled engines ride one context table, keyed
        by engine class: the same (system, vector) must yield distinct
        engines per backend."""
        with context.use(context.fresh("cache-alias")):
            system = generate_system(GeneratorConfig(seed=5, runs=2))
            belief = compiled_for(system)
            epistemic = compiled_for(system, engine=CompiledEpistemicSystem)
            assert belief is not epistemic
            assert isinstance(epistemic, CompiledEpistemicSystem)
            assert not isinstance(belief, CompiledEpistemicSystem)
            # Each engine is cached independently.
            assert compiled_for(system, engine=CompiledSystem) is belief
            assert get_backend("epistemic").compile(system) is epistemic

    def test_worklist_serves_epistemic(self):
        """The default (worklist) engine takes the bitset path under the
        epistemic backend and matches the naive engine stage for
        stage."""
        module, factory, _run = SYSTEM_CASES[4]  # wide-mouth-frog: small
        protocol = factory()
        system = module.build_system()
        assumptions = assumptions_vector(protocol)
        with context.use(context.fresh("epistemic-worklist")):
            worklist = construct_good_runs(
                system, assumptions, backend="epistemic"
            )
            assert context.current().counters.get(
                "goodruns.body_bitset", 0
            ) > 0
            naive = construct_good_runs(
                system, assumptions, engine="naive", backend="epistemic"
            )
        assert worklist.stages == naive.stages

    def test_vector_truth_uses_the_guarded_clause(self):
        """Where a vector leaves a principal's possibility set empty on
        a view class, ``VectorTruth`` under the epistemic backend answers
        with the guard (knowledge), exactly like the compiled epistemic
        engine at that vector."""
        with context.use(context.fresh("vector-truth-epistemic")):
            system = generate_system(GeneratorConfig(seed=0, runs=3))
            principal = sorted(system.principals(), key=str)[0]
            vector = GoodRunVector.of({principal: [system.runs[0].name]})
            compiled = get_backend("epistemic").compile(system, vector)
            groups = compiled._belief_groups_for(principal)
            assert any(not possible for _members, possible in groups)
            checker = VectorTruth(system, backend=get_backend("epistemic"))
            belief_checker = VectorTruth(system)
            differs = False
            for body in sample_formulas(random.Random(0), system, 30):
                believes = Believes(principal, body)
                bits = checker.truth_bits(believes, vector)
                if bits is None:  # beyond the checker: interpreter's job
                    continue
                assert bits == compiled.truth_bits(believes), believes
                differs |= bits != belief_checker.truth_bits(
                    believes, vector
                )
            assert differs, "no body separated the guard from belief"


class _AlwaysBelievesSystem(CompiledEpistemicSystem):
    """The planted bug: a Believes clause that is true everywhere."""

    def belief_bits(self, principal, body_bits):
        return self.full_mask


class TestCrossBackendOracle:
    def _corpus(self, seed: int = 0):
        rng = random.Random(seed)
        system = generate_system(GeneratorConfig(seed=seed, runs=3))
        formulas = sample_formulas(rng, system, 12)
        points = sample_points(rng, system, 3)
        vector = sample_goodrun_vector(rng, system)
        return system, formulas, points, vector

    def test_clean_backends_pass(self):
        system, formulas, points, vector = self._corpus(seed=0)
        with context.use(context.fresh("cross-clean")):
            failures = check_cross_backend(
                system, formulas, points, goodruns=vector
            )
        assert failures == [], [f.description for f in failures]

    def test_planted_wrong_direction_bug_is_caught(self, monkeypatch):
        """Patch the epistemic backend's compile to the always-true-
        Believes engine; the oracle must flag wrong-direction
        disagreements (epistemic-true where belief is false)."""
        system, formulas, points, vector = self._corpus(seed=0)
        monkeypatch.setattr(
            EpistemicBackend, "compile",
            lambda self, system, goodruns=None, pattern_hide=False:
                _AlwaysBelievesSystem(
                    system, goodruns, pattern_hide=pattern_hide
                ),
        )
        with context.use(context.fresh("cross-planted")):
            failures = check_cross_backend(
                system, formulas, points, goodruns=vector
            )
        wrong_direction = [
            f for f in failures if "wrong-direction" in f.description
        ]
        assert wrong_direction, (
            "planted always-true Believes was not caught; "
            f"failures={[f.description for f in failures]}"
        )
        for failure in wrong_direction:
            assert failure.oracle == "cross_backend"
            assert "containment" in failure.description
