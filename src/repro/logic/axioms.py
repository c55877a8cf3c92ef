"""The axiom schemas of the reformulated logic (Section 4.2).

Each schema knows how to *build* a concrete instance from arguments
(with the paper's side conditions enforced) and how to *enumerate*
instances over a finite pool of principals, keys, messages, and
formulas — which is how the empirical soundness harness (Theorem 1)
sweeps every axiom over generated systems.

Paper schemas: A1-A3 (belief), A5/A6 (message meaning), A7-A11
(seeing), A12-A14 and their ``says`` variants (saying), A15
(jurisdiction), A16-A19 (freshness), A20 (nonce verification), A21
(shared-key and shared-secret symmetry).  A4 is the derived belief-
conjunction property the paper singles out.  We additionally register
two schemas that are valid in the semantics but absent from the paper's
list (S1: ``says`` implies ``said``; S2: key-possession introspection);
they are flagged ``extra`` and evaluated separately in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from repro.errors import ProofError
from repro.terms.atoms import Key, Principal, PrivateKey, PublicKey, decryption_key
from repro.terms.base import Message
from repro.terms.formulas import (
    And,
    Believes,
    Controls,
    ForAll,
    Formula,
    Fresh,
    Has,
    Implies,
    Not,
    PublicKeyOf,
    Said,
    Says,
    Sees,
    SharedKey,
    SharedSecret,
)
from repro.terms.ops import substitute
from repro.terms.messages import Combined, Encrypted, Forwarded, Group


@dataclass(frozen=True)
class InstancePool:
    """Finite vocabularies from which schema instances are drawn.

    ``messages`` should already contain the structured messages
    (ciphertexts, combinations, forwardings, groups) of interest; the
    schemas filter by shape rather than synthesizing new structure.
    """

    principals: tuple[Principal, ...] = ()
    keys: tuple[Key, ...] = ()
    messages: tuple[Message, ...] = ()
    formulas: tuple[Formula, ...] = ()
    secrets: tuple[Message, ...] = ()

    @property
    def encrypted(self) -> tuple[Encrypted, ...]:
        return tuple(m for m in self.messages if isinstance(m, Encrypted))

    @property
    def combined(self) -> tuple[Combined, ...]:
        return tuple(m for m in self.messages if isinstance(m, Combined))

    @property
    def forwarded(self) -> tuple[Forwarded, ...]:
        return tuple(m for m in self.messages if isinstance(m, Forwarded))

    @property
    def groups(self) -> tuple[Group, ...]:
        return tuple(m for m in self.messages if isinstance(m, Group))


@dataclass(frozen=True)
class Schema:
    """One axiom schema: a named instance builder plus an enumerator."""

    name: str
    description: str
    builder: Callable[..., Formula]
    enumerator: Callable[[InstancePool], Iterator[Formula]]
    derived: bool = False
    extra: bool = False

    def build(self, *args) -> Formula:
        return self.builder(*args)

    def instances(self, pool: InstancePool) -> Iterator[Formula]:
        return self.enumerator(pool)


def _check_distinct(name: str, left: Principal, right: Principal) -> None:
    if left == right:
        raise ProofError(f"{name}: side condition requires {left} != {right}")


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def a1(p: Principal, phi: Formula, psi: Formula) -> Formula:
    """A1: P believes φ ∧ P believes (φ ⊃ ψ) ⊃ P believes ψ."""
    return Implies(
        And(Believes(p, phi), Believes(p, Implies(phi, psi))), Believes(p, psi)
    )


def a2(p: Principal, phi: Formula) -> Formula:
    """A2: P believes φ ⊃ P believes (P believes φ)."""
    return Implies(Believes(p, phi), Believes(p, Believes(p, phi)))


def a3(p: Principal, phi: Formula) -> Formula:
    """A3: ¬P believes φ ⊃ P believes (¬P believes φ)."""
    return Implies(
        Not(Believes(p, phi)), Believes(p, Not(Believes(p, phi)))
    )


def a4(p: Principal, phi: Formula, psi: Formula) -> Formula:
    """A4 (derived): P believes φ ∧ P believes ψ ⊃ P believes (φ ∧ ψ)."""
    return Implies(
        And(Believes(p, phi), Believes(p, psi)), Believes(p, And(phi, psi))
    )


def a5(
    p: Principal, key: Key, q: Principal, r: Principal, x: Message, s: Principal
) -> Formula:
    """A5: P <-K-> Q ∧ R sees {X^S}_K ⊃ Q said X, provided P != S."""
    _check_distinct("A5", p, s)
    return Implies(
        And(SharedKey(p, key, q), Sees(r, Encrypted(x, key, s))), Said(q, x)
    )


def a5p(
    q: Principal, key: PublicKey, r: Principal, x: Message, s: Principal
) -> Formula:
    """A5p (public-key message meaning, full-paper extension):
    pk(Q, K) ∧ R sees {X^S}_K⁻¹ ⊃ Q said X — a verified signature
    identifies the signer."""
    signature = Encrypted(x, key.partner, s)
    return Implies(And(PublicKeyOf(q, key), Sees(r, signature)), Said(q, x))


def a6(
    p: Principal, y: Message, q: Principal, r: Principal, x: Message, s: Principal
) -> Formula:
    """A6: P <-Y-> Q ∧ R sees (X^S)_Y ⊃ Q said X, provided P != S."""
    _check_distinct("A6", p, s)
    return Implies(
        And(SharedSecret(p, y, q), Sees(r, Combined(x, y, s))), Said(q, x)
    )


def a7(p: Principal, parts: tuple[Message, ...], index: int) -> Formula:
    """A7: P sees (X1, ..., Xk) ⊃ P sees Xi."""
    return Implies(Sees(p, Group(parts)), Sees(p, parts[index]))


def a8(p: Principal, x: Message, q: Principal, key: Key) -> Formula:
    """A8: P sees {X^Q}_K ∧ P has K ⊃ P sees X.

    For asymmetric keys the possession premise names the *decryption*
    key (the private partner of a public encryption key, the public
    partner of a signing key) — the full-paper public-key treatment.
    """
    return Implies(
        And(Sees(p, Encrypted(x, key, q)), Has(p, decryption_key(key))),
        Sees(p, x),
    )


def a9(p: Principal, x: Message, q: Principal, y: Message) -> Formula:
    """A9: P sees (X^Q)_Y ⊃ P sees X."""
    return Implies(Sees(p, Combined(x, y, q)), Sees(p, x))


def a10(p: Principal, x: Message) -> Formula:
    """A10: P sees 'X' ⊃ P sees X."""
    return Implies(Sees(p, Forwarded(x)), Sees(p, x))


def a11(p: Principal, x: Message, q: Principal, key: Key) -> Formula:
    """A11: P sees {X^Q}_K ∧ P has K ⊃ P believes (P sees {X^Q}_K).

    As with A8, the possession premise names the decryption key when K
    is asymmetric.
    """
    ciphertext = Encrypted(x, key, q)
    return Implies(
        And(Sees(p, ciphertext), Has(p, decryption_key(key))),
        Believes(p, Sees(p, ciphertext)),
    )


def _saying(verb) -> Callable[..., Formula]:
    def tuple_axiom(p: Principal, parts: tuple[Message, ...], index: int) -> Formula:
        return Implies(verb(p, Group(parts)), verb(p, parts[index]))

    return tuple_axiom


a12 = _saying(Said)
a12.__doc__ = "A12: P said (X1, ..., Xk) ⊃ P said Xi."
a12s = _saying(Says)
a12s.__doc__ = "A12 (says variant): P says (X1, ..., Xk) ⊃ P says Xi."


def a13(p: Principal, x: Message, q: Principal, y: Message) -> Formula:
    """A13: P said (X^Q)_Y ⊃ P said X."""
    return Implies(Said(p, Combined(x, y, q)), Said(p, x))


def a13s(p: Principal, x: Message, q: Principal, y: Message) -> Formula:
    """A13 (says variant): P says (X^Q)_Y ⊃ P says X."""
    return Implies(Says(p, Combined(x, y, q)), Says(p, x))


def a14(p: Principal, x: Message) -> Formula:
    """A14: P said 'X' ∧ ¬P sees X ⊃ P said X (forwarding accountability)."""
    return Implies(And(Said(p, Forwarded(x)), Not(Sees(p, x))), Said(p, x))


def a14s(p: Principal, x: Message) -> Formula:
    """A14 (says variant): P says 'X' ∧ ¬P sees X ⊃ P says X."""
    return Implies(And(Says(p, Forwarded(x)), Not(Sees(p, x))), Says(p, x))


def a15(p: Principal, phi: Formula) -> Formula:
    """A15: P controls φ ∧ P says φ ⊃ φ (jurisdiction, honesty-free)."""
    return Implies(And(Controls(p, phi), Says(p, phi)), phi)


def a16(parts: tuple[Message, ...], index: int) -> Formula:
    """A16: fresh(Xi) ⊃ fresh((X1, ..., Xk))."""
    return Implies(Fresh(parts[index]), Fresh(Group(parts)))


def a17(x: Message, q: Principal, key: Key) -> Formula:
    """A17: fresh(X) ⊃ fresh({X^Q}_K)."""
    return Implies(Fresh(x), Fresh(Encrypted(x, key, q)))


def a18(x: Message, q: Principal, y: Message) -> Formula:
    """A18: fresh(X) ⊃ fresh((X^Q)_Y)."""
    return Implies(Fresh(x), Fresh(Combined(x, y, q)))


def a19(x: Message) -> Formula:
    """A19: fresh(X) ⊃ fresh('X')."""
    return Implies(Fresh(x), Fresh(Forwarded(x)))


def a20(p: Principal, x: Message) -> Formula:
    """A20: fresh(X) ∧ P said X ⊃ P says X (nonce verification as a
    definition of freshness)."""
    return Implies(And(Fresh(x), Said(p, x)), Says(p, x))


def a21(p: Principal, key: Key, q: Principal) -> Formula:
    """A21 (keys): P <-K-> Q ⊃ Q <-K-> P."""
    return Implies(SharedKey(p, key, q), SharedKey(q, key, p))


def a21s(p: Principal, x: Message, q: Principal) -> Formula:
    """A21 (secrets): P <-X-> Q ⊃ Q <-X-> P."""
    return Implies(SharedSecret(p, x, q), SharedSecret(q, x, p))


def s1(p: Principal, x: Message) -> Formula:
    """S1 (extra, valid): P says X ⊃ P said X."""
    return Implies(Says(p, x), Said(p, x))


def s3(p: Principal, x: Message, keys: tuple[Key, ...]) -> Formula:
    """S3 (extra, valid): transparent-seeing introspection —
    ``P sees X ∧ P has K1 ∧ ... ∧ P has Kn ⊃ P believes (P sees X)``
    provided every ciphertext inside X opens with one of K1..Kn.

    This is the repaired reading of A11 (see EXPERIMENTS.md, E3): when
    X is *transparent* given the listed keys, hiding leaves X intact in
    P's local state, so indistinguishable points agree on seeing it.
    """
    from repro.logic.rules import transparent
    from repro.terms.formulas import conj as _conj

    if not transparent(x, frozenset(keys)):
        raise ProofError(f"S3: {x} is not transparent given keys {keys}")
    antecedent = _conj([Sees(p, x)] + [Has(p, key) for key in keys])
    return Implies(antecedent, Believes(p, Sees(p, x)))


def q1(quantified: ForAll, term: Message) -> Formula:
    """Q1 (extra, valid): ∀x.φ ⊃ φ[x := t] — universal instantiation
    over the finite vocabulary (Section 8)."""
    if not isinstance(quantified, ForAll):
        raise ProofError("Q1 needs a ForAll formula")
    instance = substitute(quantified.body, {quantified.variable: term})
    return Implies(quantified, instance)


def s2(p: Principal, key: Key) -> Formula:
    """S2 (extra, valid): P has K ⊃ P believes (P has K) — hiding
    preserves the key set, so possession is introspective."""
    return Implies(Has(p, key), Believes(p, Has(p, key)))


# ---------------------------------------------------------------------------
# Enumerators
# ---------------------------------------------------------------------------


def _belief_enum(builder, binary: bool):
    def enumerate_(pool: InstancePool) -> Iterator[Formula]:
        for p in pool.principals:
            for phi in pool.formulas:
                if binary:
                    for psi in pool.formulas:
                        yield builder(p, phi, psi)
                else:
                    yield builder(p, phi)

    return enumerate_


def _enum_a5(pool: InstancePool) -> Iterator[Formula]:
    for cipher in pool.encrypted:
        if not isinstance(cipher.key, Key):
            continue
        for p in pool.principals:
            if p == cipher.sender:
                continue
            for q in pool.principals:
                for r in pool.principals:
                    yield a5(p, cipher.key, q, r, cipher.body, cipher.sender)


def _enum_a5p(pool: InstancePool) -> Iterator[Formula]:
    for cipher in pool.encrypted:
        if not isinstance(cipher.key, PrivateKey):
            continue
        for q in pool.principals:
            for r in pool.principals:
                yield a5p(q, cipher.key.partner, r, cipher.body, cipher.sender)


def _enum_a6(pool: InstancePool) -> Iterator[Formula]:
    for combo in pool.combined:
        for p in pool.principals:
            if p == combo.sender:
                continue
            for q in pool.principals:
                for r in pool.principals:
                    yield a6(p, combo.secret, q, r, combo.body, combo.sender)


def _group_enum(builder):
    def enumerate_(pool: InstancePool) -> Iterator[Formula]:
        for grp in pool.groups:
            for index in range(len(grp.parts)):
                for p in pool.principals:
                    yield builder(p, grp.parts, index)

    return enumerate_


def _cipher_enum(builder):
    def enumerate_(pool: InstancePool) -> Iterator[Formula]:
        for cipher in pool.encrypted:
            if not isinstance(cipher.key, Key):
                continue
            if not isinstance(cipher.sender, Principal):
                continue
            for p in pool.principals:
                yield builder(p, cipher.body, cipher.sender, cipher.key)

    return enumerate_


def _combined_enum(builder):
    def enumerate_(pool: InstancePool) -> Iterator[Formula]:
        for combo in pool.combined:
            if not isinstance(combo.sender, Principal):
                continue
            for p in pool.principals:
                yield builder(p, combo.body, combo.sender, combo.secret)

    return enumerate_


def _forward_enum(builder):
    def enumerate_(pool: InstancePool) -> Iterator[Formula]:
        for fwd in pool.forwarded:
            for p in pool.principals:
                yield builder(p, fwd.body)

    return enumerate_


def _message_enum(builder):
    def enumerate_(pool: InstancePool) -> Iterator[Formula]:
        for message in pool.messages:
            for p in pool.principals:
                yield builder(p, message)

    return enumerate_


def _enum_a15(pool: InstancePool) -> Iterator[Formula]:
    for p in pool.principals:
        for phi in pool.formulas:
            yield a15(p, phi)


def _enum_a16(pool: InstancePool) -> Iterator[Formula]:
    for grp in pool.groups:
        for index in range(len(grp.parts)):
            yield a16(grp.parts, index)


def _enum_a17(pool: InstancePool) -> Iterator[Formula]:
    for cipher in pool.encrypted:
        if isinstance(cipher.key, Key) and isinstance(cipher.sender, Principal):
            yield a17(cipher.body, cipher.sender, cipher.key)


def _enum_a18(pool: InstancePool) -> Iterator[Formula]:
    for combo in pool.combined:
        if isinstance(combo.sender, Principal):
            yield a18(combo.body, combo.sender, combo.secret)


def _enum_a19(pool: InstancePool) -> Iterator[Formula]:
    for fwd in pool.forwarded:
        yield a19(fwd.body)


def _pair_key_enum(builder):
    def enumerate_(pool: InstancePool) -> Iterator[Formula]:
        for p in pool.principals:
            for q in pool.principals:
                for key in pool.keys:
                    yield builder(p, key, q)

    return enumerate_


def _pair_secret_enum(builder):
    def enumerate_(pool: InstancePool) -> Iterator[Formula]:
        for p in pool.principals:
            for q in pool.principals:
                for secret in pool.secrets:
                    yield builder(p, secret, q)

    return enumerate_


def _enum_s3(pool: InstancePool) -> Iterator[Formula]:
    from repro.logic.rules import transparent

    keys = pool.keys
    for message in pool.messages:
        if not transparent(message, frozenset(keys)):
            continue
        for p in pool.principals:
            yield s3(p, message, keys)


def _enum_q1(pool: InstancePool) -> Iterator[Formula]:
    from repro.terms.atoms import Sort

    for formula in pool.formulas:
        if not isinstance(formula, ForAll):
            continue
        sort = formula.variable.value_sort
        candidates: tuple[Message, ...]
        if sort is Sort.KEY:
            candidates = pool.keys
        elif sort is Sort.PRINCIPAL:
            candidates = pool.principals
        else:
            candidates = pool.secrets
        for term in candidates:
            try:
                yield q1(formula, term)
            except Exception:
                continue


def _enum_s2(pool: InstancePool) -> Iterator[Formula]:
    for p in pool.principals:
        for key in pool.keys:
            yield s2(p, key)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

AXIOMS: dict[str, Schema] = {
    schema.name: schema
    for schema in [
        Schema("A1", "belief closed under modus ponens", a1,
               _belief_enum(a1, binary=True)),
        Schema("A2", "positive belief introspection", a2,
               _belief_enum(a2, binary=False)),
        Schema("A3", "negative belief introspection", a3,
               _belief_enum(a3, binary=False)),
        Schema("A4", "belief conjunction (derived)", a4,
               _belief_enum(a4, binary=True), derived=True),
        Schema("A5", "message meaning: shared keys", a5, _enum_a5),
        Schema("A5p", "message meaning: public-key signatures", a5p,
               _enum_a5p, extra=True),
        Schema("A6", "message meaning: shared secrets", a6, _enum_a6),
        Schema("A7", "seeing tuple components", a7, _group_enum(a7)),
        Schema("A8", "seeing through held keys", a8, _cipher_enum(a8)),
        Schema("A9", "seeing through combination", a9, _combined_enum(a9)),
        Schema("A10", "seeing through forwarding", a10, _forward_enum(a10)),
        Schema("A11", "believing what one sees encrypted", a11,
               _cipher_enum(a11)),
        Schema("A12", "saying tuple components", a12, _group_enum(a12)),
        Schema("A12s", "saying tuple components (says)", a12s,
               _group_enum(a12s)),
        Schema("A13", "saying through combination", a13, _combined_enum(a13)),
        Schema("A13s", "saying through combination (says)", a13s,
               _combined_enum(a13s)),
        Schema("A14", "forwarding accountability", a14, _forward_enum(a14)),
        Schema("A14s", "forwarding accountability (says)", a14s,
               _forward_enum(a14s)),
        Schema("A15", "jurisdiction without honesty", a15, _enum_a15),
        Schema("A16", "freshness of tuples", a16, _enum_a16),
        Schema("A17", "freshness of ciphertexts", a17, _enum_a17),
        Schema("A18", "freshness of combinations", a18, _enum_a18),
        Schema("A19", "freshness of forwardings", a19, _enum_a19),
        Schema("A20", "nonce verification: fresh implies recent", a20,
               _message_enum(a20)),
        Schema("A21", "shared-key symmetry", a21, _pair_key_enum(a21)),
        Schema("A21s", "shared-secret symmetry", a21s, _pair_secret_enum(a21s)),
        Schema("S1", "says implies said (extra)", s1, _message_enum(s1),
               extra=True),
        Schema("S2", "key-possession introspection (extra)", s2, _enum_s2,
               extra=True),
        Schema("Q1", "universal instantiation (extra)", q1, _enum_q1,
               extra=True),
        Schema("S3", "transparent-seeing introspection (extra)", s3,
               _enum_s3, extra=True),
    ]
}


def schema(name: str) -> Schema:
    try:
        return AXIOMS[name]
    except KeyError:
        raise ProofError(f"unknown axiom schema {name!r}") from None


def paper_schemas() -> tuple[Schema, ...]:
    """The axioms of Section 4.2 proper (excludes derived A4 and extras)."""
    return tuple(s for s in AXIOMS.values() if not s.derived and not s.extra)


def extra_schemas() -> tuple[Schema, ...]:
    return tuple(s for s in AXIOMS.values() if s.extra)


def build_axiom(name: str, *args) -> Formula:
    """Build a named axiom instance (used by proof steps)."""
    return schema(name).build(*args)
