"""Edge-case tests for corners the main suites do not reach."""

import pytest

from repro.errors import (
    AssumptionError,
    ParseError,
    ReproError,
    SemanticsError,
    VocabularyError,
)
from repro.logic import Engine, Fact, MessagePool, standard_rules
from repro.logic.rules import BeliefIntrospection
from repro.model import (
    Interpretation,
    RunBuilder,
    readable,
    system_of,
)
from repro.semantics import Evaluator, GoodRunVector, all_stable
from repro.terms import (
    Believes,
    Key,
    Nonce,
    Principal,
    PrivateKey,
    PublicKey,
    Sees,
    SharedKey,
    Sort,
    Vocabulary,
    encrypted,
    parse_formula,
)

A = Principal("A")
B = Principal("B")
K = Key("K")
N = Nonce("N")
GOOD = SharedKey(A, K, B)


class TestErrors:
    def test_parse_error_carries_context(self):
        error = ParseError("boom", "text", 3)
        assert error.text == "text" and error.position == 3

    def test_hierarchy(self):
        assert issubclass(ParseError, ReproError)
        assert issubclass(AssumptionError, ReproError)


class TestVocabulary:
    def test_reserved_keywords(self):
        vocab = Vocabulary()
        for keyword in ("believes", "fresh", "pk", "inv", "forall"):
            with pytest.raises(VocabularyError):
                vocab.principal(keyword)

    def test_conflicting_redeclaration(self):
        vocab = Vocabulary()
        vocab.key("X")
        with pytest.raises(VocabularyError):
            vocab.nonce("X")

    def test_redeclaration_same_sort_ok(self):
        vocab = Vocabulary()
        assert vocab.key("X") == vocab.key("X")

    def test_merge(self):
        left, right = Vocabulary(), Vocabulary()
        left.principal("A")
        right.key("K")
        merged = left.merge(right)
        assert "A" in merged and "K" in merged

    def test_of(self):
        vocab = Vocabulary.of([A, K])
        assert vocab.lookup("A") == A

    def test_constants_by_sort(self):
        vocab = Vocabulary()
        vocab.principal("A")
        vocab.keypair("Ka")
        vocab.key("K")
        keys = vocab.constants(Sort.KEY)
        assert Key("K") in keys
        assert PublicKey("Ka") in keys

    def test_len_and_iter(self):
        vocab = Vocabulary()
        vocab.principals("A", "B")
        assert len(vocab) == 2
        assert {symbol.name for symbol in vocab} == {"A", "B"}

    def test_nonalnum_rejected(self):
        with pytest.raises(VocabularyError):
            Vocabulary().principal("1bad")


class TestGoodRunVector:
    def test_sorted_entries_required(self):
        with pytest.raises(SemanticsError):
            GoodRunVector(((B, frozenset()), (A, frozenset())))

    def test_duplicate_entries_rejected(self):
        with pytest.raises(SemanticsError):
            GoodRunVector(((A, frozenset()), (A, frozenset())))

    def test_default_is_all_runs(self):
        vector = GoodRunVector()
        assert vector.good_runs(A) is None
        assert not vector.restricts(A)

    def test_describe(self):
        vector = GoodRunVector.of({A: ["r1"]})
        assert "A" in vector.describe() and "r1" in vector.describe()


class TestModelMisc:
    def test_readable_asymmetric(self):
        cipher = encrypted(N, PublicKey("Ka"), A)
        assert readable(frozenset({PrivateKey("Ka")}), cipher)
        assert not readable(frozenset({PublicKey("Ka")}), cipher)

    def test_system_constants(self):
        builder = RunBuilder([A, B], keysets={A: [K]})
        system = system_of([builder.build("r")])
        assert Key("K") in system.constants(Sort.KEY)

    def test_environment_property(self):
        builder = RunBuilder([A, B])
        system = system_of([builder.build("r")])
        assert system.environment.name == "Env"

    def test_run_str(self):
        builder = RunBuilder([A, B])
        run = builder.build("demo")
        assert "demo" in str(run)


class TestEngineMisc:
    def test_extra_facts(self):
        engine = Engine(standard_rules())
        pool = MessagePool([GOOD])
        derivation = engine.close([], pool, extra_facts=[Fact((A,), GOOD)])
        assert derivation.holds(Believes(A, GOOD))

    def test_belief_introspection_rule(self):
        engine = Engine(standard_rules(enable_introspection=True),
                        max_prefix=3)
        pool = MessagePool([GOOD])
        derivation = engine.close([Believes(A, GOOD)], pool)
        assert derivation.holds(Believes(A, Believes(A, GOOD)))

    def test_explain_cycle_guard(self):
        """Explain terminates even on mutually-derived facts (symmetry
        derives both orientations from each other)."""
        engine = Engine(standard_rules())
        pool = MessagePool([GOOD])
        derivation = engine.close([Believes(A, GOOD)], pool)
        text = derivation.explain(Believes(A, SharedKey(B, K, A)),
                                  max_depth=50)
        assert text.count("A21") >= 1


class TestSemanticsMisc:
    def build(self):
        vocab = Vocabulary()
        vocab.principal("A"), vocab.principal("B")
        vocab.key("K"), vocab.nonce("N")
        builder = RunBuilder([A, B], keysets={A: [K], B: [K]})
        builder.send(A, N, B)
        builder.receive(B)
        return system_of([builder.build("r")], vocabulary=vocab)

    def test_all_stable(self):
        system = self.build()
        evaluator = Evaluator(system)
        from repro.terms import Said

        assert all_stable(evaluator, [Sees(B, N), Said(A, N)])

    def test_evaluate_rejects_non_formula(self):
        system = self.build()
        with pytest.raises(SemanticsError):
            Evaluator(system).evaluate(N, system.runs[0], 0)

    def test_evaluate_rejects_bad_time(self):
        system = self.build()
        from repro.terms import TRUE

        with pytest.raises(SemanticsError):
            Evaluator(system).evaluate(TRUE, system.runs[0], 99)

    def test_principal_position_must_be_constant(self):
        system = self.build()
        from repro.terms import Parameter

        parameter = Parameter("P", Sort.PRINCIPAL)
        with pytest.raises(SemanticsError):
            Evaluator(system)._eval(Sees(parameter, N), system.runs[0], 0)

    def test_pattern_hide_evaluator(self):
        system = self.build()
        evaluator = Evaluator(system, pattern_hide=True)
        run = system.runs[0]
        assert evaluator.evaluate(Believes(B, Sees(B, N)), run, run.end_time)


class TestAnnotationRendering:
    def test_step_annotation_truncation(self):
        from repro.analysis import analyze
        from repro.protocols import kerberos

        report = analyze(kerberos.at_protocol())
        rendered = "\n".join(a.pretty(limit=2) for a in report.annotations)
        assert "more" in rendered

    def test_goal_result_str(self):
        from repro.analysis import analyze
        from repro.protocols import kerberos

        report = analyze(kerberos.at_protocol())
        texts = [str(result) for result in report.goal_results]
        assert any("as expected" in text for text in texts)


class TestRuntimeMisc:
    def test_internal_action_with_data(self):
        from repro.model import RunBuilder

        builder = RunBuilder([A, B])
        builder.internal(A, "tick", {"count": 1})
        run = builder.build("internal")
        assert run.local(A, run.end_time).datum("count") == 1

    def test_scenario_params(self):
        from repro.model import RunBuilder
        from repro.terms import Parameter

        parameter = Parameter("Kp", Sort.KEY)
        run = RunBuilder([A, B]).build("p", params={parameter: K})
        assert run.value_of(parameter) == K
