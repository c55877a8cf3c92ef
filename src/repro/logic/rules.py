"""The forward rules of the reformulated-logic engine (Section 4.2).

Each rule is the forward reading of an axiom schema (a paper schema or
a flagged extra), applied uniformly inside belief prefixes: if
⊢ φ1 ∧ ... ∧ φn ⊃ ψ then ``P believes φ1, ..., P believes φn ⊢
P believes ψ`` by R2, A4 and A1 — the lifting that
:func:`repro.logic.certify.lift_one_level` builds as a checked proof.

Two rules deserve comment:

* ``SeesIntrospection`` generalizes A11 from ciphertexts to arbitrary
  *transparent* messages: X is transparent to P when every ciphertext
  occurring in X is under a key P holds, so that hiding leaves X intact
  in P's local state.  A11 itself is the special case where X is a
  ciphertext under a held key with transparent body; EXPERIMENTS.md
  discusses why the transparency side condition is needed at all.
* ``A14`` (forwarding accountability) has a *negative* premise
  (¬P sees X) and is deliberately not a forward rule: honest analyses
  never need it, and negation-as-failure would be unsound.
"""

from __future__ import annotations

from typing import Iterator

from repro.logic.engine import Inference, MessagePool, Rule
from repro.logic.facts import Fact, FactIndex
from repro.terms.atoms import Key, Principal, PrivateKey, decryption_key
from repro.terms.base import Message
from repro.terms.formulas import (
    Controls,
    ForAll,
    Formula,
    Fresh,
    Has,
    PublicKeyOf,
    Said,
    Says,
    Sees,
    SharedKey,
    SharedSecret,
    believes_chain,
)
from repro.terms.messages import Combined, Encrypted, Forwarded, Group
from repro.terms.ops import substitute, walk


def transparent(message: Message, keys: frozenset[Key]) -> bool:
    """True iff hiding with ``keys`` leaves the message intact: every
    ciphertext anywhere inside it is under a held key."""
    return all(
        decryption_key(node.key) in keys
        for node in walk(message)
        if isinstance(node, Encrypted)
    )


class LiftedModusPonens:
    """A1 as a forward rule: within any belief prefix, an implication
    whose antecedent's facts are all present yields its consequent.

    This is how Section 3.2's "honesty as an explicit initial
    assumption" is exercised: ``B believes (A believes φ ⊃ φ)`` plus
    ``B believes A believes φ`` gives ``B believes φ``.
    """

    name = "A1"
    justification = "axiom A1 (belief closed under modus ponens)"

    def apply(self, index: FactIndex, pool: MessagePool) -> Iterator[Inference]:
        from repro.logic.facts import normalize_to_facts
        from repro.terms.formulas import Implies

        for prefix in index.prefixes():
            for fact in index.with_body_type(prefix, Implies):
                body = fact.body
                assert isinstance(body, Implies)
                try:
                    antecedent_facts = normalize_to_facts(body.antecedent)
                except Exception:
                    continue
                premises = tuple(
                    Fact(prefix + sub.prefix, sub.body)
                    for sub in antecedent_facts
                )
                if all(premise in index for premise in premises):
                    yield Inference(
                        believes_chain(prefix, body.consequent),
                        self.name,
                        (fact, *premises),
                    )


class SharedKeySymmetry:
    """A21: P <-K-> Q ⊃ Q <-K-> P, in any belief prefix."""

    name = "A21"
    justification = "axiom A21 (shared-key symmetry), lifted by R2+A1"

    def apply(self, index: FactIndex, pool: MessagePool) -> Iterator[Inference]:
        for prefix in index.prefixes():
            for fact in index.with_body_type(prefix, SharedKey):
                body = fact.body
                assert isinstance(body, SharedKey)
                flipped = SharedKey(body.right, body.key, body.left)
                yield Inference(Fact(prefix, flipped), self.name, (fact,))


class SharedSecretSymmetry:
    """A21 (secrets): P <-X-> Q ⊃ Q <-X-> P, in any belief prefix."""

    name = "A21s"
    justification = "axiom A21 (shared-secret symmetry), lifted by R2+A1"

    def apply(self, index: FactIndex, pool: MessagePool) -> Iterator[Inference]:
        for prefix in index.prefixes():
            for fact in index.with_body_type(prefix, SharedSecret):
                body = fact.body
                assert isinstance(body, SharedSecret)
                flipped = SharedSecret(body.right, body.secret, body.left)
                yield Inference(Fact(prefix, flipped), self.name, (fact,))


class SeesComponents:
    """A7/A9/A10: seeing tuples, combinations, and forwardings."""

    name = "A7/A9/A10"
    justification = "axioms A7, A9, A10, lifted by R2+A1"

    def apply(self, index: FactIndex, pool: MessagePool) -> Iterator[Inference]:
        for prefix in index.prefixes():
            for fact in index.with_body_type(prefix, Sees):
                body = fact.body
                assert isinstance(body, Sees)
                message = body.message
                parts: tuple[Message, ...]
                if isinstance(message, Group):
                    parts = message.parts
                elif isinstance(message, Combined):
                    parts = (message.body,)
                elif isinstance(message, Forwarded):
                    parts = (message.body,)
                else:
                    continue
                for part in parts:
                    yield Inference(
                        Fact(prefix, Sees(body.principal, part)),
                        self.name,
                        (fact,),
                    )


class SeesDecrypt:
    """A8: P sees {X^Q}_K ∧ P has K ⊃ P sees X."""

    name = "A8"
    justification = "axiom A8 (decryption with a held key), lifted by R2+A1"

    def apply(self, index: FactIndex, pool: MessagePool) -> Iterator[Inference]:
        for prefix in index.prefixes():
            for fact in index.with_body_type(prefix, Sees):
                body = fact.body
                assert isinstance(body, Sees)
                message = body.message
                if not isinstance(message, Encrypted):
                    continue
                opener = decryption_key(message.key)
                has = Fact(prefix, Has(body.principal, opener))
                if has in index:
                    yield Inference(
                        Fact(prefix, Sees(body.principal, message.body)),
                        self.name,
                        (fact, has),
                    )


class SeesIntrospection:
    """A11 generalized: top-level seeing of a transparent message lifts
    into the principal's beliefs.

    Transparency is judged from the principal's *asserted* key facts
    (top-level ``P has K``), which under-approximates its key set — a
    sound direction to err in.
    """

    name = "A11+"
    justification = (
        "axiom A11 generalized to transparent messages (hiding fixes them)"
    )

    def apply(self, index: FactIndex, pool: MessagePool) -> Iterator[Inference]:
        top = ()
        key_facts: dict[Principal, list[Fact]] = {}
        for fact in index.with_body_type(top, Has):
            body = fact.body
            assert isinstance(body, Has)
            if isinstance(body.principal, Principal) and isinstance(body.key, Key):
                key_facts.setdefault(body.principal, []).append(fact)
        for fact in index.with_body_type(top, Sees):
            body = fact.body
            assert isinstance(body, Sees)
            principal = body.principal
            if not isinstance(principal, Principal):
                continue
            holders = key_facts.get(principal, [])
            keys = frozenset(
                held.body.key for held in holders  # type: ignore[union-attr]
            )
            if transparent(body.message, keys):
                yield Inference(
                    Fact((principal,), body),
                    self.name,
                    (fact, *holders),
                )


class SeesCipherIntrospection:
    """A11 (paper-faithful): P sees {X^Q}_K ∧ P has K ⊃
    P believes (P sees {X^Q}_K).

    This is the axiom the paper uses to reconstruct BAN's
    message-meaning rule; it does *not* require the ciphertext body to
    be transparent, which is exactly the subtlety EXPERIMENTS.md (E3)
    dissects — under the extended abstract's collapse-``hide``, A11
    instances whose body nests a ciphertext the principal cannot read
    are falsifiable, while all instances arising in the paper's own
    protocol analyses remain true in their protocol systems.
    """

    name = "A11"
    justification = "axiom A11 (believing what one sees encrypted)"

    def apply(self, index: FactIndex, pool: MessagePool) -> Iterator[Inference]:
        top = ()
        for fact in index.with_body_type(top, Sees):
            body = fact.body
            assert isinstance(body, Sees)
            message = body.message
            if not isinstance(message, Encrypted):
                continue
            principal = body.principal
            if not isinstance(principal, Principal):
                continue
            has = Fact(top, Has(principal, decryption_key(message.key)))
            if has in index:
                yield Inference(
                    Fact((principal,), body), self.name, (fact, has)
                )


class HasIntrospection:
    """S2: P has K ⊃ P believes (P has K)."""

    name = "S2"
    justification = "schema S2 (key sets survive hiding unchanged)"

    def apply(self, index: FactIndex, pool: MessagePool) -> Iterator[Inference]:
        for fact in index.with_body_type((), Has):
            body = fact.body
            assert isinstance(body, Has)
            if isinstance(body.principal, Principal):
                yield Inference(
                    Fact((body.principal,), body), self.name, (fact,)
                )


class MessageMeaningKey:
    """A5: P <-K-> Q ∧ R sees {X^S}_K ⊃ Q said X  (P ≠ S)."""

    name = "A5"
    justification = "axiom A5 (message meaning, shared keys), lifted by R2+A1"

    def apply(self, index: FactIndex, pool: MessagePool) -> Iterator[Inference]:
        for prefix in index.prefixes():
            shared = index.with_body_type(prefix, SharedKey)
            if not shared:
                continue
            for sees_fact in index.with_body_type(prefix, Sees):
                sees = sees_fact.body
                assert isinstance(sees, Sees)
                message = sees.message
                if not isinstance(message, Encrypted):
                    continue
                for key_fact in shared:
                    key_formula = key_fact.body
                    assert isinstance(key_formula, SharedKey)
                    if key_formula.key != message.key:
                        continue
                    if key_formula.left == message.sender:
                        continue  # side condition P ≠ S
                    yield Inference(
                        Fact(prefix, Said(key_formula.right, message.body)),
                        self.name,
                        (key_fact, sees_fact),
                    )


class MessageMeaningPublicKey:
    """A5p: pk(Q, K) ∧ R sees {X^S}_K⁻¹ ⊃ Q said X."""

    name = "A5p"
    justification = "schema A5p (signature message meaning), lifted by R2+A1"

    def apply(self, index: FactIndex, pool: MessagePool) -> Iterator[Inference]:
        for prefix in index.prefixes():
            owners = index.with_body_type(prefix, PublicKeyOf)
            if not owners:
                continue
            for sees_fact in index.with_body_type(prefix, Sees):
                sees = sees_fact.body
                assert isinstance(sees, Sees)
                message = sees.message
                if not isinstance(message, Encrypted):
                    continue
                if not isinstance(message.key, PrivateKey):
                    continue
                for owner_fact in owners:
                    owner = owner_fact.body
                    assert isinstance(owner, PublicKeyOf)
                    if owner.key != message.key.partner:
                        continue
                    yield Inference(
                        Fact(prefix, Said(owner.principal, message.body)),
                        self.name,
                        (owner_fact, sees_fact),
                    )


class MessageMeaningSecret:
    """A6: P <-Y-> Q ∧ R sees (X^S)_Y ⊃ Q said X  (P ≠ S)."""

    name = "A6"
    justification = "axiom A6 (message meaning, shared secrets), lifted by R2+A1"

    def apply(self, index: FactIndex, pool: MessagePool) -> Iterator[Inference]:
        for prefix in index.prefixes():
            shared = index.with_body_type(prefix, SharedSecret)
            if not shared:
                continue
            for sees_fact in index.with_body_type(prefix, Sees):
                sees = sees_fact.body
                assert isinstance(sees, Sees)
                message = sees.message
                if not isinstance(message, Combined):
                    continue
                for secret_fact in shared:
                    secret_formula = secret_fact.body
                    assert isinstance(secret_formula, SharedSecret)
                    if secret_formula.secret != message.secret:
                        continue
                    if secret_formula.left == message.sender:
                        continue  # side condition P ≠ S
                    yield Inference(
                        Fact(prefix, Said(secret_formula.right, message.body)),
                        self.name,
                        (secret_fact, sees_fact),
                    )


class _SayingComponents:
    """Shared implementation of A12/A13 and their says variants."""

    verb: type
    name = ""
    justification = ""

    def apply(self, index: FactIndex, pool: MessagePool) -> Iterator[Inference]:
        for prefix in index.prefixes():
            for fact in index.with_body_type(prefix, self.verb):
                body = fact.body
                message = body.message
                if isinstance(message, Group):
                    parts: tuple[Message, ...] = message.parts
                elif isinstance(message, Combined):
                    parts = (message.body,)
                else:
                    continue
                for part in parts:
                    yield Inference(
                        Fact(prefix, self.verb(body.principal, part)),
                        self.name,
                        (fact,),
                    )


class SaidComponents(_SayingComponents):
    verb = Said
    name = "A12/A13"
    justification = "axioms A12, A13 (components of said messages)"


class SaysComponents(_SayingComponents):
    verb = Says
    name = "A12s/A13s"
    justification = "axioms A12, A13, says variants (Section 4.2)"


class NonceVerification:
    """A20: fresh(X) ∧ P said X ⊃ P says X."""

    name = "A20"
    justification = "axiom A20 (a fresh message was recently said)"

    def apply(self, index: FactIndex, pool: MessagePool) -> Iterator[Inference]:
        for prefix in index.prefixes():
            fresh_facts = index.with_body_type(prefix, Fresh)
            if not fresh_facts:
                continue
            fresh_messages = {
                fact.body.message: fact  # type: ignore[union-attr]
                for fact in fresh_facts
            }
            for said_fact in index.with_body_type(prefix, Said):
                said = said_fact.body
                assert isinstance(said, Said)
                fresh_fact = fresh_messages.get(said.message)
                if fresh_fact is not None:
                    yield Inference(
                        Fact(prefix, Says(said.principal, said.message)),
                        self.name,
                        (fresh_fact, said_fact),
                    )


class Jurisdiction:
    """A15: P controls φ ∧ P says φ ⊃ φ."""

    name = "A15"
    justification = "axiom A15 (jurisdiction without honesty)"

    def apply(self, index: FactIndex, pool: MessagePool) -> Iterator[Inference]:
        for prefix in index.prefixes():
            controls_facts = index.with_body_type(prefix, Controls)
            if not controls_facts:
                continue
            for says_fact in index.with_body_type(prefix, Says):
                says = says_fact.body
                assert isinstance(says, Says)
                if not isinstance(says.message, Formula):
                    continue
                for controls_fact in controls_facts:
                    controls = controls_fact.body
                    assert isinstance(controls, Controls)
                    if (
                        controls.principal == says.principal
                        and controls.body == says.message
                    ):
                        yield Inference(
                            believes_chain(prefix, controls.body),
                            self.name,
                            (controls_fact, says_fact),
                        )


class SaysImpliesSaid:
    """S1: P says X ⊃ P said X."""

    name = "S1"
    justification = "schema S1 (recently said implies said)"

    def apply(self, index: FactIndex, pool: MessagePool) -> Iterator[Inference]:
        for prefix in index.prefixes():
            for fact in index.with_body_type(prefix, Says):
                body = fact.body
                assert isinstance(body, Says)
                yield Inference(
                    Fact(prefix, Said(body.principal, body.message)),
                    self.name,
                    (fact,),
                )


class FreshnessLifting:
    """A16-A19: a message with a fresh component is fresh.

    Bounded by the message pool: freshness is lifted only to messages
    that actually occur in the analysis.
    """

    name = "A16-A19"
    justification = "axioms A16-A19 (freshness of containing messages)"

    def apply(self, index: FactIndex, pool: MessagePool) -> Iterator[Inference]:
        for prefix in index.prefixes():
            for fact in index.with_body_type(prefix, Fresh):
                body = fact.body
                assert isinstance(body, Fresh)
                for container in pool.supermessages(body.message):
                    yield Inference(
                        Fact(prefix, Fresh(container)), self.name, (fact,)
                    )


class ForAllInstantiation:
    """∀-elimination over the pool's constants and parameters (Section 8)."""

    name = "forall"
    justification = "universal instantiation over the finite vocabulary"

    def apply(self, index: FactIndex, pool: MessagePool) -> Iterator[Inference]:
        for prefix in index.prefixes():
            for fact in index.with_body_type(prefix, ForAll):
                body = fact.body
                assert isinstance(body, ForAll)
                for term in pool.terms_of_sort(body.variable.value_sort):
                    instance = substitute(body.body, {body.variable: term})
                    yield Inference(
                        believes_chain(prefix, instance),  # may need re-normalizing
                        self.name,
                        (fact,),
                    )


class BeliefIntrospection:
    """A2: P believes φ ⊃ P believes P believes φ (prefix-bounded)."""

    name = "A2"
    justification = "axiom A2 (positive introspection)"

    def __init__(self, max_prefix: int = 3) -> None:
        self.max_prefix = max_prefix

    def apply(self, index: FactIndex, pool: MessagePool) -> Iterator[Inference]:
        # Duplicate the leading believer of every nested fact.  Snapshot
        # the index first: the engine integrates inferences as they are
        # yielded, and growing a set during iteration is an error.
        for fact in tuple(index):
            if not fact.prefix or len(fact.prefix) + 1 > self.max_prefix:
                continue
            doubled = (fact.prefix[0],) + fact.prefix
            yield Inference(Fact(doubled, fact.body), self.name, (fact,))


def standard_rules(enable_introspection: bool = False) -> tuple[Rule, ...]:
    """The default rule set of the reformulated-logic engine."""
    rules: list[Rule] = [
        LiftedModusPonens(),
        SharedKeySymmetry(),
        SharedSecretSymmetry(),
        SeesComponents(),
        SeesDecrypt(),
        SeesCipherIntrospection(),
        SeesIntrospection(),
        HasIntrospection(),
        MessageMeaningKey(),
        MessageMeaningPublicKey(),
        MessageMeaningSecret(),
        SaidComponents(),
        SaysComponents(),
        NonceVerification(),
        Jurisdiction(),
        SaysImpliesSaid(),
        FreshnessLifting(),
        ForAllInstantiation(),
    ]
    if enable_introspection:
        rules.append(BeliefIntrospection())
    return tuple(rules)
