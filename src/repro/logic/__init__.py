"""The reformulated logic of authentication (Section 4).

Axiom schemas A1-A21 with modus ponens and necessitation, checked
Hilbert proofs, and a forward-chaining engine for protocol analysis
whose derivations certify into such proofs.  A theorem lifts under
belief in one way, :func:`~repro.logic.certify.lift_one_level`.
"""

from repro.logic.axioms import (
    AXIOMS,
    InstancePool,
    Schema,
    build_axiom,
    extra_schemas,
    paper_schemas,
    schema,
)
from repro.logic.certify import (
    CertificationError,
    certify,
    lift_implication,
    lift_one_level,
    prove_a4,
    prove_projection,
    prove_reconstruction,
)
from repro.logic.engine import (
    Derivation,
    Engine,
    Inference,
    MessagePool,
    Rule,
)
from repro.logic.facts import Fact, FactIndex, facts_of, normalize_to_facts
from repro.logic.proof import (
    ByAxiom,
    ByModusPonens,
    ByNecessitation,
    ByPremise,
    ByTautology,
    Proof,
    ProofBuilder,
    Step,
)
from repro.logic.rules import standard_rules, transparent
from repro.logic.tautology import (
    find_falsifying_valuation,
    is_tautology,
    propositional_atoms,
)

__all__ = [
    "AXIOMS",
    "InstancePool",
    "Schema",
    "build_axiom",
    "extra_schemas",
    "paper_schemas",
    "schema",
    "CertificationError",
    "certify",
    "lift_implication",
    "lift_one_level",
    "prove_a4",
    "prove_projection",
    "prove_reconstruction",
    "Derivation",
    "Engine",
    "Inference",
    "MessagePool",
    "Rule",
    "Fact",
    "FactIndex",
    "facts_of",
    "normalize_to_facts",
    "ByAxiom",
    "ByModusPonens",
    "ByNecessitation",
    "ByPremise",
    "ByTautology",
    "Proof",
    "ProofBuilder",
    "Step",
    "standard_rules",
    "transparent",
    "is_tautology",
    "find_falsifying_valuation",
    "propositional_atoms",
]
