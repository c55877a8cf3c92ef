"""Tests for derivation-to-Hilbert-proof certification."""

import pytest

from repro.analysis import analyze
from repro.errors import ProofError
from repro.logic import (
    CertificationError,
    Derivation,
    Engine,
    Fact,
    FactIndex,
    MessagePool,
    certify,
    lift_implication,
    lift_one_level,
    normalize_to_facts,
    prove_a4,
    prove_projection,
    prove_reconstruction,
    standard_rules,
)
from repro.logic.proof import ProofBuilder
from repro.protocols import corpus, kerberos, wide_mouth_frog, x509
from repro.terms import (
    And,
    Believes,
    Controls,
    Fresh,
    Has,
    Implies,
    Key,
    Nonce,
    Not,
    Or,
    Prim,
    PrimitiveProposition,
    Principal,
    Said,
    Says,
    Sees,
    SharedKey,
)
from repro.terms.messages import Encrypted

A = Principal("A")
B = Principal("B")
S = Principal("S")
K = Key("K")
N = Nonce("N")
P = Prim(PrimitiveProposition("p"))
Q = Prim(PrimitiveProposition("q"))
GOOD = SharedKey(A, K, B)


class TestLifting:
    def base(self, antecedents, consequent):
        builder = ProofBuilder()
        builder.tautology(Implies(_conj(antecedents), consequent))
        return builder.build()

    def test_lift_single_premise(self):
        base = self.base([And(P, Q)], P)
        lifted = lift_one_level(base, A, split=False)
        assert lifted.conclusion == Implies(
            Believes(A, And(P, Q)), Believes(A, P)
        )
        assert lifted.is_theorem()

    def test_lift_splits_premises_by_default(self):
        base = self.base([And(P, Q)], P)
        lifted = lift_one_level(base, A)
        assert lifted.conclusion == Implies(
            _conj([Believes(A, P), Believes(A, Q)]), Believes(A, P)
        )

    def test_lift_two_premises(self):
        builder = ProofBuilder()
        builder.tautology(Implies(_conj([P, Q]), And(P, Q)))
        lifted = lift_one_level(builder.build(), B)
        assert lifted.conclusion == Implies(
            _conj([Believes(B, P), Believes(B, Q)]),
            Believes(B, And(P, Q)),
        )

    def test_lift_deep_prefix(self):
        from repro.terms import believes_chain

        builder = ProofBuilder()
        builder.tautology(Implies(And(P, Q), P))
        lifted = lift_implication(builder.build(), (A, B, S))
        conclusion = lifted.conclusion
        assert conclusion == Implies(
            _conj([
                believes_chain([A, B, S], P),
                believes_chain([A, B, S], Q),
            ]),
            believes_chain([A, B, S], P),
        )
        lifted.check()

    def test_lift_rejects_premiseful(self):
        builder = ProofBuilder()
        builder.premise(Implies(P, Q))
        with pytest.raises(ProofError, match="premise-free"):
            lift_one_level(builder.build(), A)
        # A theorem that is not an implication has nothing to lift.
        builder = ProofBuilder()
        builder.tautology(Or(P, Not(P)))
        with pytest.raises(ProofError, match="implication theorem"):
            lift_one_level(builder.build(), A)


class TestOneLifting:
    """§4.2's one argument: every axiom is believed (R2) and A1 closes
    belief under modus ponens, with A4 joining the believed premises."""

    def test_a4_checks_and_concludes(self):
        proof = prove_a4(A, P, Q)
        proof.check()
        assert proof.conclusion == Implies(
            And(Believes(A, P), Believes(A, Q)), Believes(A, And(P, Q))
        )
        assert proof.is_theorem()

    @pytest.mark.parametrize("axiom, args, rule", [
        pytest.param(
            "A5", (B, K, S, B, N, S),
            Implies(
                And(Believes(B, SharedKey(B, K, S)),
                    Believes(B, Sees(B, Encrypted(N, K, S)))),
                Believes(B, Said(S, N)),
            ),
            id="message_meaning",
        ),
        pytest.param(
            "A15", (S, P),
            Implies(
                And(Believes(B, Controls(S, P)), Believes(B, Says(S, P))),
                Believes(B, P),
            ),
            id="jurisdiction",
        ),
        pytest.param(
            "A20", (S, N),
            Implies(
                And(Believes(B, Fresh(N)), Believes(B, Said(S, N))),
                Believes(B, Says(S, N)),
            ),
            id="nonce_verification",
        ),
    ])
    def test_ban_rule_is_its_axiom_lifted(self, axiom, args, rule):
        """The BAN rule inside B's beliefs is lift_one_level of a
        one-step proof of its axiom."""
        builder = ProofBuilder()
        builder.axiom(axiom, *args)
        proof = lift_one_level(builder.build(), B)
        proof.check()
        assert proof.is_theorem()
        assert proof.conclusion == rule


class TestProjectionReconstruction:
    def test_projection_of_and(self):
        formula = And(P, Believes(A, Q))
        fact = Fact((A,), Q)
        proof = prove_projection(formula, fact)
        assert proof.conclusion == Implies(formula, Believes(A, Q))

    def test_projection_through_belief(self):
        formula = Believes(A, And(P, Believes(B, Q)))
        fact = Fact((A, B), Q)
        proof = prove_projection(formula, fact)
        assert proof.conclusion == Implies(
            formula, Believes(A, Believes(B, Q))
        )
        proof.check()

    def test_projection_rejects_non_fact(self):
        with pytest.raises(ProofError):
            prove_projection(P, Fact((), Q))

    def test_reconstruction_of_nested(self):
        formula = Believes(A, And(P, Q))
        proof = prove_reconstruction(formula)
        facts = normalize_to_facts(formula)
        expected_antecedent = _conj([fact.to_formula() for fact in facts])
        assert proof.conclusion == Implies(expected_antecedent, formula)
        proof.check()

    def test_reconstruction_identity(self):
        proof = prove_reconstruction(P)
        assert proof.conclusion == Implies(P, P)


class TestCertifySmall:
    def close(self, formulas, seeds=()):
        engine = Engine(standard_rules())
        pool = MessagePool(tuple(seeds) + tuple(formulas))
        return engine.close(formulas, pool)

    def test_symmetry_certificate(self):
        derivation = self.close([Believes(A, GOOD)])
        proof = certify(derivation, Believes(A, SharedKey(B, K, A)))
        proof.check()
        assert proof.premises == (Believes(A, GOOD),)

    def test_modus_ponens_certificate(self):
        honesty = Implies(Believes(B, GOOD), GOOD)
        derivation = self.close(
            [Believes(A, honesty), Believes(A, Believes(B, GOOD))]
        )
        proof = certify(derivation, Believes(A, GOOD))
        proof.check()
        assert set(proof.premises) == {
            Believes(A, honesty),
            Believes(A, Believes(B, GOOD)),
        }

    def test_transparent_introspection_certificate(self):
        """A11+ steps certify via the S3 schema."""
        from repro.terms import encrypted

        cipher = encrypted(N, K, B)
        derivation = self.close([Sees(A, cipher), Has(A, K)])
        proof = certify(derivation, Believes(A, Sees(A, cipher)))
        proof.check()

    def test_given_fact_is_its_own_premise(self):
        derivation = self.close([Believes(A, GOOD)])
        proof = certify(derivation, Believes(A, GOOD))
        assert len(proof.steps) == 1

    def test_underived_fact_rejected(self):
        derivation = self.close([Believes(A, GOOD)])
        with pytest.raises(CertificationError):
            certify(derivation, Believes(B, GOOD))

    def test_conjunction_goal(self):
        derivation = self.close([Believes(A, And(GOOD, Fresh(N)))])
        goal = Believes(A, And(GOOD, Fresh(N)))
        proof = certify(derivation, goal)
        proof.check()
        assert proof.conclusion == goal


class TestCertifyCorpus:
    @pytest.mark.parametrize(
        "protocol",
        [p for p in corpus() if p.logic == "at"],
        ids=lambda p: p.name,
    )
    def test_every_achieved_goal_certifies(self, protocol):
        """Every goal the reformulated engine derives has a checked
        Hilbert proof from the protocol's own assumptions/annotations."""
        report = analyze(protocol)
        for result in report.goal_results:
            if not result.achieved:
                continue
            proof = certify(report.derivation, result.goal.formula)
            proof.check()
            assert proof.conclusion == result.goal.formula

    def test_kerberos_premises_are_protocol_inputs(self):
        protocol = kerberos.at_protocol()
        report = analyze(protocol)
        ctx = kerberos.terms()
        proof = certify(report.derivation, Believes(ctx.B, ctx.good))
        allowed = set()
        for assumption in protocol.assumptions:
            for fact in normalize_to_facts(assumption):
                allowed.add(fact.to_formula())
        from repro.analysis import step_assertions

        for step in protocol.steps:
            for assertion in step_assertions(step, "at"):
                for fact in normalize_to_facts(assertion):
                    allowed.add(fact.to_formula())
        assert set(proof.premises) <= allowed

    def test_wmf_nested_jurisdiction_certifies(self):
        """Depth-2 conclusions (relayed beliefs) certify too."""
        protocol = wide_mouth_frog.at_protocol()
        report = analyze(protocol)
        ctx = wide_mouth_frog.terms()
        goal = Believes(ctx.B, Believes(ctx.A, ctx.good))
        proof = certify(report.derivation, goal)
        proof.check()

    def test_x509_signature_chain_certifies(self):
        """Public-key steps (A5p, asymmetric A8/A11) certify."""
        protocol = x509.at_protocol("repaired")
        report = analyze(protocol)
        ctx = x509.terms()
        from repro.terms import Says

        goal = Believes(ctx.B, Says(ctx.A, ctx.yab))
        proof = certify(report.derivation, goal)
        proof.check()
        axioms_used = {
            step.justification.name
            for step in proof.steps
            if hasattr(step.justification, "name")
        }
        assert "A5p" in axioms_used


def _conj(formulas):
    from repro.terms import conj

    return conj(list(formulas))


class TestCertificationBoundaries:
    def test_ban_derivations_are_not_certifiable(self):
        """The BAN rules have no Hilbert system behind them; certifying
        a BAN-derived fact reports the uncertifiable rule honestly."""
        from repro.analysis import analyze
        from repro.protocols import kerberos

        report = analyze(kerberos.ban_protocol())
        ctx = kerberos.terms()
        with pytest.raises(CertificationError):
            certify(report.derivation, Believes(ctx.B, ctx.good))

    def test_unknown_rule_certificate_raises(self):
        from repro.logic.certify import _base_certificate

        with pytest.raises(CertificationError):
            _base_certificate("made-up-rule", P, [P])

    def test_fabricated_origin_mismatch_detected(self):
        """A corrupted derivation (wrong premises recorded) cannot slip
        through: the compiled step must equal the claimed fact."""
        from repro.logic import Derivation, FactIndex

        shared_ba = SharedKey(B, K, A)
        index = FactIndex(
            [Fact((A,), GOOD), Fact((A,), Fresh(N)),
             Fact((A,), shared_ba)]
        )
        derivation = Derivation(index)
        # claim symmetry produced Fresh(N) from GOOD — it did not:
        derivation.origins[Fact((A,), Fresh(N))] = (
            "A21", (Fact((A,), GOOD),)
        )
        with pytest.raises(CertificationError):
            certify(derivation, Believes(A, Fresh(N)))
