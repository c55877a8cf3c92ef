"""Logic-vs-semantics oracles: the derivation layer on the hook.

The original fuzzer only differentials the *model* layer (caches,
hide, ground paths); these three families close the loop over the
*derivation* layer of Sections 4 and 8:

* **Engine-vs-semantics replay** — sample assumptions that are *true*
  at a random point of a generated system, close them under the
  engine's rules, and re-evaluate every derived fact at that same
  point.  Each rule is backed by a valid implication, so a derived
  fact that evaluates false is a soundness counterexample (the
  pointwise reading of Theorem 1).
* **Adversarial proof mutation** — certify an engine derivation into a
  checked Hilbert proof, corrupt it with
  :mod:`repro.fuzz.proof_mutators`, and assert the proof checker's
  verdict matches the corruption's tag — rejecting with
  :class:`~repro.errors.ProofError` and nothing else.
* **Interpretation agreement** — with per-workload randomized Prim
  interpretations (:func:`repro.fuzz.generate.randomize_interpretation`),
  the evaluator's ``Prim`` verdicts must agree with the interpretation
  predicate directly, on non-interned clones, and after a pickle
  round-trip (picklability is part of the data model's contract).

The replay rule set excludes the paper-faithful ``A11``
(:class:`~repro.logic.rules.SeesCipherIntrospection`): as documented in
EXPERIMENTS.md, A11 as printed is *falsifiable* under collapse-hide
when the seen ciphertext nests an unreadable one, so replaying it
against the semantics would "find" the known caveat forever.  The
transparency-guarded ``A11+`` stays in.
"""

from __future__ import annotations

import pickle
import random
from typing import Sequence

from repro.errors import EngineError, ProofError, SemanticsError
from repro.logic.engine import Derivation, Engine, MessagePool, Rule
from repro.logic.facts import normalize_to_facts
from repro.logic.proof import Proof
from repro.logic.rules import standard_rules
from repro.model.runs import Run
from repro.model.system import System
from repro.semantics.evaluator import Evaluator
from repro.soundness.audit import replay_derivation
from repro.terms.atoms import Sort
from repro.terms.base import Message
from repro.terms.formulas import (
    Believes,
    Formula,
    Fresh,
    Has,
    Implies,
    Prim,
    Said,
    Says,
    Sees,
    SharedKey,
    SharedSecret,
)
from repro.terms.ops import walk

from repro.fuzz.oracles import OracleFailure, deintern
from repro.fuzz.proof_mutators import ACCEPT, CONSERVATIVE, REJECT, ProofMutation

#: Rules excluded from the replay closure; see the module docstring.
REPLAY_EXCLUDED_RULES: frozenset[str] = frozenset({"A11"})

#: Engine resource bound for one replay closure (exceeding it skips
#: the replay rather than failing the campaign).
REPLAY_MAX_FACTS = 4000


def replay_rules() -> tuple[Rule, ...]:
    """The standard rule set minus the known-falsifiable ``A11``."""
    return tuple(
        rule
        for rule in standard_rules()
        if rule.name not in REPLAY_EXCLUDED_RULES
    )


# ---------------------------------------------------------------------------
# Engine-vs-semantics replay
# ---------------------------------------------------------------------------


def _sorted(items) -> list:
    return sorted(items, key=str)


def sample_assumptions(
    rng: random.Random,
    system: System,
    evaluator: Evaluator,
    run: Run,
    k: int,
    count: int,
) -> tuple[Formula, ...]:
    """Assumptions that are *true* at ``(run, k)``, engine-digestible.

    Candidates are read off the point's actual state — sees over
    received traffic, has over held keys, said/says over performed
    sends, freshness/shared-key/shared-secret/Prim over the vocabulary
    — then filtered by the evaluator, so the replay precondition
    ("assumptions hold at the point") is true by construction.  A
    belief wrap and an implication are layered on top when they stay
    true, giving the lifted rules and modus ponens material to chew on.
    Everything is ground: derived facts then stay evaluable.
    """
    principals = [
        principal
        for principal in system.principals()
        if run.is_system_principal(principal)
    ]
    candidates: list[Formula] = []
    for principal in principals:
        for message in _sorted(run.received_messages(principal, k))[:4]:
            candidates.append(Sees(principal, message))
        for key in _sorted(run.keyset(principal, k))[:3]:
            candidates.append(Has(principal, key))
        sent = _sorted({send.message for send in run.sends(principal, k)})
        for message in sent[:2]:
            candidates.append(Said(principal, message))
            candidates.append(Says(principal, message))
    keys = _sorted(system.constants(Sort.KEY))
    nonces = _sorted(system.constants(Sort.NONCE))
    for nonce in nonces[:2]:
        candidates.append(Fresh(nonce))
    if len(principals) >= 2:
        for key in keys[:2]:
            left, right = rng.sample(principals, 2)
            candidates.append(SharedKey(left, key, right))
        for nonce in nonces[:1]:
            left, right = rng.sample(principals, 2)
            candidates.append(SharedSecret(left, nonce, right))
    for proposition in _sorted(system.constants(Sort.PROPOSITION))[:2]:
        candidates.append(Prim(proposition))

    rng.shuffle(candidates)
    true_pool: list[Formula] = []
    for formula in candidates:
        if len(true_pool) >= count + 2:
            break
        try:
            if evaluator.evaluate(formula, run, k):
                true_pool.append(formula)
        except SemanticsError:
            continue
    chosen = true_pool[:count]
    spares = true_pool[count:]

    if chosen and principals:
        for formula in list(chosen)[:2]:
            wrapped = Believes(rng.choice(principals), formula)
            if evaluator.evaluate(wrapped, run, k):
                chosen.append(wrapped)
    if chosen:
        # True because its consequent is: material for LiftedModusPonens.
        consequent = spares[0] if spares else chosen[0]
        chosen.append(Implies(rng.choice(chosen), consequent))
    return tuple(dict.fromkeys(chosen))


def _seed_messages(assumptions: Sequence[Formula]) -> tuple[Message, ...]:
    """Every message-sorted node mentioned by the assumptions."""
    seeds: dict[Message, None] = {}
    for formula in assumptions:
        for node in walk(formula):
            if isinstance(node, Message) and not isinstance(node, Formula):
                seeds[node] = None
    return tuple(seeds)


def check_engine_replay(
    evaluator: Evaluator,
    run: Run,
    k: int,
    assumptions: Sequence[Formula],
    rules: Sequence[Rule] | None = None,
) -> tuple[list[OracleFailure], Derivation | None]:
    """Close the assumptions, replay every derived fact at ``(run, k)``
    against ``evaluator`` (the harness passes the ``--backend``'s
    compiled engine).

    Returns the failures plus the derivation (for downstream proof
    mutation).  A closure that blows the :data:`REPLAY_MAX_FACTS`
    resource bound is skipped — that is a capacity verdict, not a
    soundness one.
    """
    if not assumptions:
        return [], None
    active_rules = replay_rules() if rules is None else tuple(rules)
    engine = Engine(active_rules, max_facts=REPLAY_MAX_FACTS, max_prefix=3)
    pool = MessagePool(_seed_messages(assumptions))
    try:
        derivation = engine.close(assumptions, pool)
    except EngineError:
        return [], None
    failures = []
    for entry in replay_derivation(derivation, evaluator, run, k):
        if entry.consistent:
            continue
        facts = normalize_to_facts(entry.formula)
        origin = derivation.origins.get(facts[0]) if facts else None
        rule_name = origin[0] if origin else "?"
        failures.append(OracleFailure.at(
            "engine_replay",
            f"rule {rule_name} derived a fact that is false in the model",
            run, k, entry.formula,
        ))
    return failures, derivation


# ---------------------------------------------------------------------------
# Proof mutation
# ---------------------------------------------------------------------------


def check_proof_mutation(
    mutation: ProofMutation, original: Proof
) -> OracleFailure | None:
    """The checker's verdict on a mutant must match its expectation.

    Any non-:class:`ProofError` exception out of ``check()`` is a
    failure in its own right — the mutation oracle can only trust
    "rejected" verdicts if malformed proofs are *diagnosed*, never
    crashed on (the exception-discipline contract).
    """
    label = f"{mutation.name} ({mutation.detail})"
    try:
        mutation.proof.check()
    except ProofError:
        rejected = True
    except Exception as error:
        return OracleFailure(
            "proof_mutation",
            f"{label}: checker crashed with "
            f"{type(error).__name__}: {error}",
        )
    else:
        rejected = False
    if mutation.expectation == REJECT and not rejected:
        why = "forged proof was accepted"
    elif mutation.expectation == ACCEPT and rejected:
        why = "benign mutant was rejected"
    elif mutation.expectation == CONSERVATIVE and not rejected and not (
        mutation.proof.conclusion == original.conclusion
        and set(mutation.proof.premises) <= set(original.premises)
    ):
        why = "accepted mutant proves something new"
    else:
        return None
    return OracleFailure("proof_mutation", f"{label}: {why}")


# ---------------------------------------------------------------------------
# Interpretation agreement
# ---------------------------------------------------------------------------


def check_interpretation_agreement(
    system: System, points: Sequence[tuple[Run, int]]
) -> list[OracleFailure]:
    """Evaluator ``Prim`` verdicts must agree with the interpretation.

    Three legs per (proposition, point): the evaluator against the
    predicate called directly, a non-interned ``Prim`` clone against
    the same, and the predicate after a pickle round-trip (built-in
    interpretations are plain data, so they must survive one).
    """
    failures = []
    evaluator = Evaluator(system)
    try:
        thawed = pickle.loads(pickle.dumps(system.interpretation))
    except Exception:
        thawed = None  # non-picklable custom predicate: skip that leg
    for proposition in _sorted(system.constants(Sort.PROPOSITION)):
        formula = Prim(proposition)
        clone = deintern(formula)
        for run, k in points:
            direct = system.interpretation.holds(proposition, run, k)
            legs = (
                ("prim_agreement", evaluator.evaluate(formula, run, k),
                 "evaluator Prim verdict diverged from the interpretation "
                 f"(direct={direct})"),
                ("prim_agreement", evaluator.evaluate(clone, run, k),
                 "non-interned Prim clone diverged from the interpretation"),
                ("prim_pickle",
                 direct if thawed is None else thawed.holds(proposition, run, k),
                 "interpretation changed verdict after a pickle round-trip"),
            )
            for oracle, verdict, why in legs:
                if verdict != direct:
                    failures.append(
                        OracleFailure.at(oracle, why, run, k, formula)
                    )
    return failures
