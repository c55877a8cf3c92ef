"""Compile engine derivations into checked Hilbert proofs.

The forward engine's rules are *justified* by axioms plus the R2+A1
lifting argument; this module makes the justification concrete: given a
completed :class:`~repro.logic.engine.Derivation` and a derived fact,
:func:`certify` produces a :class:`~repro.logic.proof.Proof` — modus
ponens and necessitation over axiom instances and tautologies, with the
derivation's *given* facts as premises — that the independent proof
checker validates.  The engine can be wrong; a certified conclusion
cannot (up to the axioms' own soundness, which the sweep checks).

Machinery:

* :func:`lift_implication` — from ⊢ (φ1 ∧ ... ∧ φn) ⊃ ψ produce
  ⊢ (Bπφ1 ∧ ... ∧ Bπφn) ⊃ Bπψ for any belief prefix π, by iterating
  necessitation, A4-chaining, and A1 (the formal content of "rules fire
  uniformly inside belief prefixes").  It is the one lifting: a BAN
  rule is :func:`lift_one_level` of its axiom (message meaning of A5,
  jurisdiction of A15, nonce verification of A20).
* :func:`prove_a4` — the derivation of A4 from a tautology, R2 and A1
  that licenses the A4 chain (§4.2: "many properties follow from these
  axioms, including A4").
* :func:`prove_projection` — ⊢ φ ⊃ f for each normalized fact f of φ
  (conjunction elimination, pushed under beliefs with R2+A1).
* :func:`prove_reconstruction` — the converse, ⊢ conj(facts of φ) ⊃ φ
  (conjunction introduction via A4).
* per-rule *certificates* reconstructing the base axiom instance from a
  rule application's premises and conclusion.

Every standard rule of the reformulated engine carries a certificate,
including ``A11+`` (via the extra schema S3, the transparency-repaired
reading of A11).  A rule without one — e.g. a user-supplied semantic
rule — raises :class:`CertificationError`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ProofError, ReproError
from repro.logic.engine import Derivation
from repro.logic.facts import Fact, normalize_to_facts
from repro.logic.proof import Proof, ProofBuilder
from repro.terms.atoms import Principal
from repro.terms.formulas import (
    And,
    Believes,
    Controls,
    ForAll,
    Formula,
    Fresh,
    Has,
    Implies,
    PublicKeyOf,
    Said,
    Says,
    Sees,
    SharedKey,
    SharedSecret,
    conj,
)
from repro.terms.messages import Combined, Encrypted, Forwarded, Group


class CertificationError(ReproError):
    """The fact's derivation uses a rule with no axiomatic certificate."""


# ---------------------------------------------------------------------------
# Generic proof combinators
# ---------------------------------------------------------------------------


def _compose(builder: ProofBuilder, ab: int, bc: int) -> int:
    """From steps ⊢ A ⊃ B and ⊢ B ⊃ C conclude ⊢ A ⊃ C."""
    ab_formula = builder.formula_at(ab)
    bc_formula = builder.formula_at(bc)
    assert isinstance(ab_formula, Implies) and isinstance(bc_formula, Implies)
    goal = Implies(ab_formula.antecedent, bc_formula.consequent)
    glue = builder.tautology(
        Implies(ab_formula, Implies(bc_formula, goal))
    )
    step = builder.mp(ab, glue)
    return builder.mp(bc, step)


def _identity(builder: ProofBuilder, formula: Formula) -> int:
    return builder.tautology(Implies(formula, formula))


def prove_a4(p: Principal, phi: Formula, psi: Formula) -> Proof:
    """A4: P believes φ ∧ P believes ψ ⊃ P believes (φ ∧ ψ).

    Proof sketch: ⊢ φ ⊃ (ψ ⊃ φ∧ψ) (tautology); necessitate; close under
    A1 twice; discharge with the deduction-style tautology glue.
    """
    b = ProofBuilder()
    # Premise-style proof of the implication via tautological composition:
    # we derive the implication directly rather than via premises, so the
    # result is a theorem (usable under necessitation).
    taut = b.tautology(Implies(phi, Implies(psi, And(phi, psi))))
    nec = b.necessitate(taut, p)  # P believes (φ ⊃ (ψ ⊃ φ∧ψ))
    a1_first = b.axiom("A1", p, phi, Implies(psi, And(phi, psi)))
    # a1_first: (Bφ ∧ B(φ⊃(ψ⊃φ∧ψ))) ⊃ B(ψ⊃φ∧ψ)
    a1_second = b.axiom("A1", p, psi, And(phi, psi))
    # a1_second: (Bψ ∧ B(ψ⊃φ∧ψ)) ⊃ B(φ∧ψ)
    b_phi = Believes(p, phi)
    b_psi = Believes(p, psi)
    b_imp = b.formula_at(nec)
    b_mid = Believes(p, Implies(psi, And(phi, psi)))
    goal = Implies(And(b_phi, b_psi), Believes(p, And(phi, psi)))
    # Propositional glue: from ⊢ B(φ⊃(ψ⊃φ∧ψ)), ⊢ (Bφ ∧ B(..)) ⊃ B(ψ⊃φ∧ψ),
    # and ⊢ (Bψ ∧ B(ψ⊃φ∧ψ)) ⊃ B(φ∧ψ), conclude the goal.
    glue = b.tautology(
        Implies(
            b_imp,
            Implies(
                Implies(And(b_phi, b_imp), b_mid),
                Implies(Implies(And(b_psi, b_mid), Believes(p, And(phi, psi))),
                        goal),
            ),
        )
    )
    step = b.mp(nec, glue)
    step = b.mp(a1_first, step)
    step = b.mp(a1_second, step)
    return b.build()


def lift_one_level(base: Proof, principal: Principal,
                   split: bool = True) -> Proof:
    """From ⊢ conj(φ1..φn) ⊃ ψ produce ⊢ conj(Bφ1..Bφn) ⊃ Bψ.

    With ``split=True`` (the rule-certificate reading) the base
    antecedent's top-level conjunction is treated as a premise list and
    each premise is believed separately; with ``split=False`` the whole
    antecedent is one premise (``Bφ ⊃ Bψ``).
    """
    conclusion = base.conclusion
    if not isinstance(conclusion, Implies):
        raise ProofError("lift_one_level needs an implication theorem")
    if not base.is_theorem():
        raise ProofError("lifting requires a premise-free proof")
    parts = (
        _conj_parts(conclusion.antecedent) if split
        else [conclusion.antecedent]
    )
    psi = conclusion.consequent

    builder = ProofBuilder()
    base_index = builder.splice(base)
    nec = builder.necessitate(base_index, principal)  # B(φconj ⊃ ψ)
    a1_index = builder.axiom("A1", principal, conclusion.antecedent, psi)

    lifted_parts = [Believes(principal, part) for part in parts]
    goal = Implies(conj(lifted_parts), Believes(principal, psi))

    # A4 chain: from the individual beliefs to belief of the whole
    # (right-associated) conjunction.
    chain_indices: list[int] = []
    chain_formulas: list[Formula] = []
    suffix = parts[-1]
    for part in reversed(parts[:-1]):
        a4_index = builder.axiom("A4", principal, part, suffix)
        chain_indices.append(a4_index)
        chain_formulas.append(builder.formula_at(a4_index))
        suffix = And(part, suffix)
    # Note: builder.axiom("A4", ...) is admissible because A4 has a
    # checked derivation (prove_a4); the checker validates the instance
    # against the registered schema either way.

    b_nec = builder.formula_at(nec)
    a1_formula = builder.formula_at(a1_index)
    glue_formula = goal
    for dependency in [a1_formula, b_nec, *chain_formulas]:
        glue_formula = Implies(dependency, glue_formula)
    glue = builder.tautology(glue_formula)
    step = glue
    for dependency_index in [*reversed(chain_indices), nec, a1_index]:
        step = builder.mp(dependency_index, step)
    return builder.build()


def lift_implication(base: Proof, prefix: tuple[Principal, ...]) -> Proof:
    """Lift a base implication theorem under a whole belief prefix."""
    proof = base
    for principal in reversed(prefix):
        proof = lift_one_level(proof, principal)
    return proof


def _conj_parts(formula: Formula) -> list[Formula]:
    """Right-associated conjunction parts (matching ``conj``)."""
    parts = []
    while isinstance(formula, And):
        parts.append(formula.left)
        formula = formula.right
    parts.append(formula)
    return parts


def prove_projection(formula: Formula, fact: Fact) -> Proof:
    """⊢ formula ⊃ fact.to_formula(), for a normalized fact of formula."""
    target = fact.to_formula()
    builder = ProofBuilder()
    if formula == target:
        _identity(builder, formula)
        return builder.build()
    if isinstance(formula, And):
        for side, keep in ((formula.left, True), (formula.right, False)):
            if fact in normalize_to_facts(side):
                taut = builder.tautology(Implies(formula, side))
                inner = builder.splice(prove_projection(side, fact))
                _compose(builder, taut, inner)
                return builder.build()
        raise ProofError(f"{fact} is not a projection of {formula}")
    if isinstance(formula, Believes):
        principal = formula.principal
        if not fact.prefix or fact.prefix[0] != principal:
            raise ProofError(f"{fact} is not a projection of {formula}")
        inner_fact = Fact(fact.prefix[1:], fact.body)
        inner_proof = prove_projection(formula.body, inner_fact)
        lifted = lift_one_level(inner_proof, principal,
                                split=False)  # Bφ ⊃ Btarget
        builder.splice(lifted)
        return builder.build()
    raise ProofError(f"{fact} is not a projection of {formula}")


def prove_reconstruction(formula: Formula) -> Proof:
    """⊢ conj(normalized facts of formula) ⊃ formula."""
    facts = normalize_to_facts(formula)
    fact_formulas = [fact.to_formula() for fact in facts]
    builder = ProofBuilder()
    if len(facts) == 1 and fact_formulas[0] == formula:
        _identity(builder, formula)
        return builder.build()
    if isinstance(formula, And):
        left_proof = prove_reconstruction(formula.left)
        right_proof = prove_reconstruction(formula.right)
        left_index = builder.splice(left_proof)
        right_index = builder.splice(right_proof)
        left_formula = builder.formula_at(left_index)
        right_formula = builder.formula_at(right_index)
        goal = Implies(conj(fact_formulas), formula)
        glue = builder.tautology(
            Implies(left_formula, Implies(right_formula, goal))
        )
        step = builder.mp(left_index, glue)
        builder.mp(right_index, step)
        return builder.build()
    if isinstance(formula, Believes):
        principal = formula.principal
        assert isinstance(principal, Principal)
        inner_proof = prove_reconstruction(formula.body)
        # The inner antecedent is the conj of the inner facts: each
        # becomes a separate belief, matching the outer fact formulas.
        lifted = lift_one_level(inner_proof, principal)
        builder.splice(lifted)
        return builder.build()
    raise ProofError(f"cannot reconstruct {formula} from its facts")


# ---------------------------------------------------------------------------
# Per-rule base certificates
# ---------------------------------------------------------------------------


def _axiom_as_conjnormal_implication(
    builder: ProofBuilder, name: str, args: tuple, premise_formulas: list[Formula]
) -> int:
    """Add ⊢ conj(premise_formulas) ⊃ consequent-of-axiom.

    The axiom's antecedent and ``conj(premise_formulas)`` contain the
    same atoms, so a tautology glue bridges any associativity gap.
    """
    axiom_index = builder.axiom(name, *args)
    axiom_formula = builder.formula_at(axiom_index)
    assert isinstance(axiom_formula, Implies)
    goal = Implies(conj(premise_formulas), axiom_formula.consequent)
    if axiom_formula == goal:
        return axiom_index
    glue = builder.tautology(Implies(axiom_formula, goal))
    return builder.mp(axiom_index, glue)


def _base_certificate(
    rule: str, conclusion_body: Formula, premise_bodies: list[Formula]
) -> Proof:
    """⊢ conj(premise bodies) ⊃ conclusion body, at the shared prefix."""
    builder = ProofBuilder()

    def simple(name: str, *args) -> Proof:
        _axiom_as_conjnormal_implication(builder, name, args, premise_bodies)
        return builder.build()

    if rule == "A21":
        shared = premise_bodies[0]
        assert isinstance(shared, SharedKey)
        return simple("A21", shared.left, shared.key, shared.right)
    if rule == "A21s":
        shared = premise_bodies[0]
        assert isinstance(shared, SharedSecret)
        return simple("A21s", shared.left, shared.secret, shared.right)
    if rule == "A7/A9/A10":
        sees = premise_bodies[0]
        assert isinstance(sees, Sees)
        target = conclusion_body
        assert isinstance(target, Sees)
        message = sees.message
        if isinstance(message, Group):
            index = message.parts.index(target.message)
            return simple("A7", sees.principal, message.parts, index)
        if isinstance(message, Combined):
            return simple("A9", sees.principal, message.body,
                          message.sender, message.secret)
        assert isinstance(message, Forwarded)
        return simple("A10", sees.principal, message.body)
    if rule == "A8":
        sees = premise_bodies[0]
        assert isinstance(sees, Sees)
        cipher = sees.message
        assert isinstance(cipher, Encrypted)
        return simple("A8", sees.principal, cipher.body, cipher.sender,
                      cipher.key)
    if rule == "A11":
        sees = premise_bodies[0]
        assert isinstance(sees, Sees)
        cipher = sees.message
        assert isinstance(cipher, Encrypted)
        return simple("A11", sees.principal, cipher.body, cipher.sender,
                      cipher.key)
    if rule == "A11+":
        sees = premise_bodies[0]
        assert isinstance(sees, Sees)
        keys = tuple(
            body.key for body in premise_bodies[1:]
            if isinstance(body, Has)
        )
        return simple("S3", sees.principal, sees.message, keys)
    if rule == "S2":
        has = premise_bodies[0]
        assert isinstance(has, Has)
        return simple("S2", has.principal, has.key)
    if rule == "A5":
        shared, sees = premise_bodies
        assert isinstance(shared, SharedKey) and isinstance(sees, Sees)
        cipher = sees.message
        assert isinstance(cipher, Encrypted)
        return simple("A5", shared.left, shared.key, shared.right,
                      sees.principal, cipher.body, cipher.sender)
    if rule == "A5p":
        owner, sees = premise_bodies
        assert isinstance(owner, PublicKeyOf) and isinstance(sees, Sees)
        signature = sees.message
        assert isinstance(signature, Encrypted)
        return simple("A5p", owner.principal, owner.key, sees.principal,
                      signature.body, signature.sender)
    if rule == "A6":
        shared, sees = premise_bodies
        assert isinstance(shared, SharedSecret) and isinstance(sees, Sees)
        combo = sees.message
        assert isinstance(combo, Combined)
        return simple("A6", shared.left, shared.secret, shared.right,
                      sees.principal, combo.body, combo.sender)
    if rule == "A12/A13":
        said = premise_bodies[0]
        assert isinstance(said, Said)
        target = conclusion_body
        assert isinstance(target, Said)
        message = said.message
        if isinstance(message, Group):
            index = message.parts.index(target.message)
            return simple("A12", said.principal, message.parts, index)
        assert isinstance(message, Combined)
        return simple("A13", said.principal, message.body, message.sender,
                      message.secret)
    if rule == "A12s/A13s":
        says = premise_bodies[0]
        assert isinstance(says, Says)
        target = conclusion_body
        assert isinstance(target, Says)
        message = says.message
        if isinstance(message, Group):
            index = message.parts.index(target.message)
            return simple("A12s", says.principal, message.parts, index)
        assert isinstance(message, Combined)
        return simple("A13s", says.principal, message.body, message.sender,
                      message.secret)
    if rule == "A20":
        fresh, said = premise_bodies
        assert isinstance(fresh, Fresh) and isinstance(said, Said)
        return simple("A20", said.principal, said.message)
    if rule == "S1":
        says = premise_bodies[0]
        assert isinstance(says, Says)
        return simple("S1", says.principal, says.message)
    if rule == "A16-A19":
        fresh = premise_bodies[0]
        assert isinstance(fresh, Fresh)
        target = conclusion_body
        assert isinstance(target, Fresh)
        container = target.message
        if isinstance(container, Group):
            index = container.parts.index(fresh.message)
            return simple("A16", container.parts, index)
        if isinstance(container, Encrypted):
            return simple("A17", container.body, container.sender,
                          container.key)
        if isinstance(container, Combined):
            return simple("A18", container.body, container.sender,
                          container.secret)
        assert isinstance(container, Forwarded)
        return simple("A19", container.body)
    raise CertificationError(
        f"rule {rule!r} has no axiomatic certificate (it is justified "
        "semantically, not by an axiom of Section 4.2)"
    )


def _certificate_with_projection(
    rule: str,
    conclusion: Fact,
    premises: tuple[Fact, ...],
    prefix: tuple[Principal, ...],
) -> Proof:
    """Certificates for rules whose conclusion was fact-normalized
    (A15, A1, Q1): axiom/step to the whole consequent, then project."""
    premise_bodies = [
        Fact(p.prefix[len(prefix):], p.body).to_formula() for p in premises
    ]
    inner_conclusion = Fact(conclusion.prefix[len(prefix):], conclusion.body)
    builder = ProofBuilder()

    if rule == "A15":
        controls, says = premise_bodies
        assert isinstance(controls, Controls) and isinstance(says, Says)
        whole = controls.body
        step = _axiom_as_conjnormal_implication(
            builder, "A15", (controls.principal, whole), premise_bodies
        )
    elif rule == "forall":
        quantified = premise_bodies[0]
        assert isinstance(quantified, ForAll)
        # Recover the instantiating term from the conclusion: Q1's
        # instance formula must match the reconstructed consequent.
        whole, step = _match_forall(builder, quantified, inner_conclusion)
    elif rule == "A1":
        implication = premise_bodies[0]
        assert isinstance(implication, Implies)
        whole = implication.consequent
        antecedent_facts = normalize_to_facts(implication.antecedent)
        reconstruction = prove_reconstruction(implication.antecedent)
        reconstruction_index = builder.splice(reconstruction)
        reconstruction_formula = builder.formula_at(reconstruction_index)
        goal = Implies(conj(premise_bodies), whole)
        glue = builder.tautology(
            Implies(reconstruction_formula, goal)
        )
        step = builder.mp(reconstruction_index, glue)
    else:  # pragma: no cover - dispatch is exhaustive
        raise CertificationError(f"unexpected projection rule {rule!r}")

    target = inner_conclusion.to_formula()
    if whole != target:
        projection = prove_projection(whole, inner_conclusion)
        projection_index = builder.splice(projection)
        _compose(builder, step, projection_index)
    return builder.build()


def _match_forall(builder: ProofBuilder, quantified: ForAll,
                  conclusion: Fact):
    """Find the Q1 instance whose consequent covers the conclusion."""
    from repro.terms.ops import substitute

    target_facts = {conclusion}
    # Try to recover the witness by unifying the conclusion against the
    # body: substitute each free occurrence candidate is hard in
    # general, so try terms occurring in the conclusion.
    from repro.terms.ops import walk

    candidates = list(dict.fromkeys(walk(conclusion.to_formula())))
    for term in candidates:
        try:
            instance = substitute(
                quantified.body, {quantified.variable: term}
            )
        except Exception:
            continue
        if conclusion in normalize_to_facts(instance):
            index = _axiom_as_conjnormal_implication(
                builder, "Q1", (quantified, term), [quantified]
            )
            return instance, index
    raise CertificationError(
        f"could not recover the instantiation witness for {quantified}"
    )


# ---------------------------------------------------------------------------
# The compiler
# ---------------------------------------------------------------------------

_PROJECTION_RULES = {"A15", "A1", "forall"}
_MIXED_PREFIX_RULES = {"A11", "A11+", "S2"}


@dataclass
class _Compiler:
    derivation: Derivation
    builder: ProofBuilder
    cache: dict[Fact, int]

    def compile(self, fact: Fact) -> int:
        cached = self.cache.get(fact)
        if cached is not None:
            return cached
        origin = self.derivation.origins.get(fact)
        if origin is None:
            if fact not in self.derivation.index:
                raise CertificationError(f"{fact} was never derived")
            index = self.builder.premise(fact.to_formula())
            self.cache[fact] = index
            return index
        rule, premises = origin
        premise_indices = [self.compile(premise) for premise in premises]
        implication_index = self._implication(rule, fact, premises)
        antecedent_index = self._conj_chain(premise_indices)
        index = self.builder.mp(antecedent_index, implication_index)
        if self.builder.formula_at(index) != fact.to_formula():
            raise CertificationError(
                f"certificate for {rule} concluded "
                f"{self.builder.formula_at(index)}, expected {fact.to_formula()}"
            )
        self.cache[fact] = index
        return index

    def _conj_chain(self, indices: list[int]) -> int:
        """Right-associated conjunction of the given steps."""
        if not indices:
            raise CertificationError(
                "a rule application certificate needs at least one premise"
            )
        result = indices[-1]
        for index in reversed(indices[:-1]):
            result = self.builder.conj(index, result)
        return result

    def _implication(
        self, rule: str, conclusion: Fact, premises: tuple[Fact, ...]
    ) -> int:
        prefix = self._application_prefix(rule, conclusion, premises)
        if rule in _PROJECTION_RULES:
            base = _certificate_with_projection(rule, conclusion, premises,
                                                prefix)
        elif rule == "A2":
            base = self._a2_certificate(conclusion, premises)
            prefix = ()
        elif rule in _MIXED_PREFIX_RULES:
            premise_bodies = [p.body for p in premises]
            base = _base_certificate(rule, conclusion.body, premise_bodies)
            prefix = ()
        else:
            premise_bodies = [
                Fact(p.prefix[len(prefix):], p.body).to_formula()
                for p in premises
            ]
            base = _base_certificate(
                rule,
                Fact(conclusion.prefix[len(prefix):],
                     conclusion.body).to_formula(),
                premise_bodies,
            )
        lifted = lift_implication(base, prefix)
        return self.builder.splice(lifted)

    def _a2_certificate(self, conclusion: Fact,
                        premises: tuple[Fact, ...]) -> Proof:
        premise = premises[0]
        inner = Fact(premise.prefix[1:], premise.body).to_formula()
        builder = ProofBuilder()
        builder.axiom("A2", premise.prefix[0], inner)
        return builder.build()

    @staticmethod
    def _application_prefix(
        rule: str, conclusion: Fact, premises: tuple[Fact, ...]
    ) -> tuple[Principal, ...]:
        """The shared belief prefix the rule fired inside."""
        if rule in _MIXED_PREFIX_RULES or rule == "A2":
            return ()
        candidates = [conclusion.prefix] + [p.prefix for p in premises]
        shared = min(candidates, key=len)
        for candidate in candidates:
            if candidate[: len(shared)] != shared:
                raise CertificationError(
                    f"rule {rule!r} premises do not share a prefix"
                )
        return shared


def certify(derivation: Derivation, formula: Formula) -> Proof:
    """A checked Hilbert proof of the formula from the given facts.

    The proof's premises are exactly the derivation's *given* facts the
    conclusion actually depends on; everything else is axiom instances,
    tautologies, modus ponens, and necessitation, validated by
    :meth:`Proof.check`.
    """
    facts = normalize_to_facts(formula)
    builder = ProofBuilder()
    compiler = _Compiler(derivation, builder, {})
    indices = [compiler.compile(fact) for fact in facts]
    if len(facts) > 1 or facts[0].to_formula() != formula:
        # Conclude the original formula from its facts (A4/conj intro).
        reconstruction = prove_reconstruction(formula)
        reconstruction_index = builder.splice(reconstruction)
        conj_index = compiler._conj_chain(indices)
        builder.mp(conj_index, reconstruction_index)
    proof = builder.build()
    if proof.conclusion != formula:
        raise CertificationError(
            f"certification concluded {proof.conclusion}, expected {formula}"
        )
    return proof
