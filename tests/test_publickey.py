"""Tests for the public-key extension (the full paper's "treatment is
similar" remark, realized end-to-end)."""
# ruff: noqa: E402

import pytest

from repro.analysis import analyze
from repro.errors import SemanticsError
from repro.model import ENVIRONMENT, RunBuilder, said_submsgs, seen_submsgs, system_of
from repro.protocols import x509
from repro.semantics import OPAQUE, Evaluator, hide_message
from repro.terms import (
    Believes,
    Key,
    Nonce,
    Principal,
    PrivateKey,
    PublicKey,
    PublicKeyOf,
    Said,
    Sees,
    Vocabulary,
    decryption_key,
    encrypted,
    group,
    parse_formula,
)

A = Principal("A")
B = Principal("B")
N = Nonce("N")
KA_PUB = PublicKey("Ka")
KA_PRIV = PrivateKey("Ka")
KB_PUB = PublicKey("Kb")
KB_PRIV = PrivateKey("Kb")


class TestKeyPairs:
    def test_partners(self):
        assert KA_PUB.partner == KA_PRIV
        assert KA_PRIV.partner == KA_PUB

    def test_halves_are_distinct(self):
        assert KA_PUB != KA_PRIV
        assert KA_PUB != Key("Ka")

    def test_decryption_key(self):
        assert decryption_key(Key("K")) == Key("K")
        assert decryption_key(KA_PUB) == KA_PRIV
        assert decryption_key(KA_PRIV) == KA_PUB

    def test_vocabulary_keypair(self):
        vocab = Vocabulary()
        pub, priv = vocab.keypair("Ka")
        assert pub.partner == priv
        assert vocab.lookup("Ka") == pub

    def test_pk_parses_and_prints(self):
        vocab = Vocabulary()
        a, = vocab.principals("A")
        pub, _ = vocab.keypair("Ka")
        formula = parse_formula("pk(A, Ka)", vocab)
        assert formula == PublicKeyOf(a, pub)
        assert parse_formula(str(formula), vocab) == formula


class TestAsymmetricSubmsgs:
    def test_public_encryption_read_with_private(self):
        cipher = encrypted(N, KB_PUB, A)
        assert N not in seen_submsgs(frozenset({KB_PUB}), cipher)
        assert N in seen_submsgs(frozenset({KB_PRIV}), cipher)

    def test_signature_read_with_public(self):
        signature = encrypted(N, KA_PRIV, A)
        assert N in seen_submsgs(frozenset({KA_PUB}), signature)
        assert N not in seen_submsgs(frozenset({KA_PRIV}), signature)

    def test_saying_requires_construction_key(self):
        """Descent for *saying* uses the construction key: signing
        vouches for contents, holding the public key of a relayed
        encryption does too (one can rebuild it)."""
        signature = encrypted(N, KA_PRIV, A)
        assert N in said_submsgs(frozenset({KA_PRIV}), (), signature)
        assert N not in said_submsgs(frozenset({KA_PUB}), (), signature)

    def test_hide_asymmetric(self):
        cipher = encrypted(N, KB_PUB, A)
        assert hide_message(frozenset({KB_PUB}), cipher) == OPAQUE
        assert hide_message(frozenset({KB_PRIV}), cipher) == cipher


class TestPkSemantics:
    def build_run(self, env_signs: bool = False):
        builder = RunBuilder(
            [A, B],
            keysets={A: [KA_PRIV, KB_PUB], B: [KB_PRIV, KA_PUB]},
            env_keys=[KA_PRIV] if env_signs else [],
        )
        builder.send(A, encrypted(N, KA_PRIV, A), B)
        builder.receive(B)
        if env_signs:
            builder.send(ENVIRONMENT, encrypted(Nonce("M"), KA_PRIV, A), B)
            builder.receive(B)
        return builder.build("pk-run")

    def test_pk_holds_when_only_owner_signs(self):
        run = self.build_run()
        evaluator = Evaluator(system_of([run]))
        assert evaluator.evaluate(PublicKeyOf(A, KA_PUB), run, 0)

    def test_pk_spoiled_by_foreign_signature(self):
        run = self.build_run(env_signs=True)
        evaluator = Evaluator(system_of([run]))
        assert not evaluator.evaluate(PublicKeyOf(A, KA_PUB), run, 0)

    def test_pk_requires_public_key_constant(self):
        run = self.build_run()
        evaluator = Evaluator(system_of([run]))
        with pytest.raises(SemanticsError):
            evaluator.evaluate(PublicKeyOf(A, Key("K")), run, 0)

    def test_signature_verification_seen(self):
        run = self.build_run()
        evaluator = Evaluator(system_of([run]))
        assert evaluator.evaluate(Sees(B, N), run, run.end_time)

    def test_signature_attribution(self):
        run = self.build_run()
        evaluator = Evaluator(system_of([run]))
        assert evaluator.evaluate(Said(A, N), run, run.end_time)


class TestX509:
    @pytest.mark.parametrize("logic", ["ban", "at"])
    def test_defect_reproduced(self, logic):
        protocol = (
            x509.ban_protocol() if logic == "ban" else x509.at_protocol()
        )
        report = analyze(protocol)
        outcomes = {r.goal.label: r.achieved for r in report.goal_results}
        assert outcomes["B-reads-secret"]
        assert outcomes["B-attributes-Xa"]
        assert not outcomes["B-attributes-secret"]  # the defect

    @pytest.mark.parametrize("logic", ["ban", "at"])
    def test_repair_works(self, logic):
        protocol = (
            x509.ban_protocol("repaired")
            if logic == "ban"
            else x509.at_protocol("repaired")
        )
        report = analyze(protocol)
        outcomes = {r.goal.label: r.achieved for r in report.goal_results}
        assert outcomes["B-attributes-secret"]

    def test_at_proof_uses_signature_axiom(self):
        report = analyze(x509.at_protocol("repaired"))
        tree = report.explain_goal("B-attributes-secret")
        assert "A5p" in tree


class TestX509AttackSystem:
    """The strip-and-re-sign attack, concretely (E13)."""

    def test_system_wellformed(self):
        system = x509.build_system()
        assert system.is_wellformed()
        assert {run.name for run in system.runs} == {
            "x509-normal",
            "x509-resign-attack",
        }

    def test_attacker_never_sees_the_secret(self):
        from repro.model import ENVIRONMENT, system_of

        ctx = x509.terms()
        system = x509.build_system()
        evaluator = Evaluator(system)
        attack = system.run("x509-resign-attack")
        end = attack.end_time
        # B holds a message validly signed by the attacker containing a
        # secret the attacker has never seen:
        assert evaluator.evaluate(Sees(ctx.B, ctx.blob), attack, end)
        assert not evaluator.evaluate(Sees(ENVIRONMENT, ctx.yab), attack, end)

    def test_signature_attributes_only_the_blob(self):
        """In the logic, B can conclude the attacker said the *blob* but
        has no axiom descending ``said`` through encryption — exactly the
        E4 incompleteness boundary, and exactly the standard's defect."""
        from repro.model import ENVIRONMENT

        ctx = x509.terms()
        system = x509.build_system()
        evaluator = Evaluator(system)
        attack = system.run("x509-resign-attack")
        end = attack.end_time
        assert evaluator.evaluate(Said(ENVIRONMENT, ctx.blob), attack, end)
        # A, who built the blob, genuinely said its contents:
        assert evaluator.evaluate(Said(ctx.A, ctx.yab), attack, end)

    def test_a_remains_sole_signer_of_its_key(self):
        """pk(A, Ka) survives the attack: the intruder signed with its
        own key, not A's."""
        ctx = x509.terms()
        system = x509.build_system()
        evaluator = Evaluator(system)
        attack = system.run("x509-resign-attack")
        assert evaluator.evaluate(
            PublicKeyOf(ctx.A, ctx.Ka), attack, 0
        )
