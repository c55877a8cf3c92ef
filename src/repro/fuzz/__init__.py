"""Differential run-fuzzing and fault injection.

The soundness of Theorem 1 hinges on the well-formedness restrictions
of Section 5 and on the semantic kernels behaving identically across
every fast path (interning, memoization, the ground-formula shortcut,
the compiled engine).  This package *generates* hostile runs and
checks those invariants differentially instead of trusting the
hand-built protocol systems:

* :mod:`repro.fuzz.generate` — seeded random workload generation
  (layered on the E3 system generator, well-formed by construction),
  including per-workload Prim interpretation randomization;
* :mod:`repro.fuzz.mutators` — run fault injectors, each tagged with
  the WF condition it should trip (or with none, for benign mutations);
* :mod:`repro.fuzz.proof_mutators` — adversarial mutations of checked
  Hilbert proofs, tagged with the verdict the checker must return;
* :mod:`repro.fuzz.oracles` — the WF-classification oracle and the
  cache/interning, hide, ground-path, compiled and cross-backend
  differentials;
* :mod:`repro.fuzz.logic_oracles` — the derivation-layer oracles:
  engine-vs-semantics replay, proof-mutation checking, and Prim
  interpretation agreement;
* :mod:`repro.fuzz.goodruns_oracles` — the Theorem 2/3 construction
  oracles: support, stage monotonicity, fixpoint idempotence, engine
  agreement, and brute-force optimality on small systems;
* :mod:`repro.fuzz.shrink` — the one greedy minimization loop and its
  reductions for runs, proofs, assumption sets, and good-run vectors;
* :mod:`repro.fuzz.harness` — the oracle table (one row per oracle, in
  RNG draw order), the loop that runs it, and the JSON report behind
  ``python -m repro fuzz``.
"""

from repro.fuzz.generate import generate_base_system, randomize_interpretation
from repro.fuzz.goodruns_oracles import (
    check_goodruns_construction,
    deep_assumptions,
    describe_assumptions,
    sample_assumption_vector,
)
from repro.fuzz.harness import (
    ORACLE_FAMILIES,
    Counterexample,
    FuzzConfig,
    FuzzReport,
    run_fuzz,
)
from repro.fuzz.logic_oracles import (
    REPLAY_EXCLUDED_RULES,
    check_engine_replay,
    check_interpretation_agreement,
    check_proof_mutation,
    replay_rules,
    sample_assumptions,
)
from repro.fuzz.mutators import MUTATORS, Mutation, apply_random_mutator
from repro.fuzz.oracles import (
    OracleFailure,
    check_cache_differential,
    check_clean_system,
    check_cross_backend,
    check_ground_path_differential,
    check_hide_differential,
    check_mutation,
    deintern,
    sample_goodrun_vector,
)
from repro.fuzz.proof_mutators import (
    PROOF_MUTATORS,
    ProofMutation,
    apply_random_proof_mutator,
)
from repro.fuzz.shrink import (
    describe_proof,
    describe_run,
    shrink_assumption_vector,
    shrink_proof,
    shrink_run,
)

__all__ = [
    "ORACLE_FAMILIES",
    "FuzzConfig",
    "generate_base_system",
    "randomize_interpretation",
    "check_goodruns_construction",
    "deep_assumptions",
    "describe_assumptions",
    "sample_assumption_vector",
    "Counterexample",
    "FuzzReport",
    "run_fuzz",
    "REPLAY_EXCLUDED_RULES",
    "check_engine_replay",
    "check_interpretation_agreement",
    "check_proof_mutation",
    "replay_rules",
    "sample_assumptions",
    "MUTATORS",
    "Mutation",
    "apply_random_mutator",
    "OracleFailure",
    "check_cache_differential",
    "check_clean_system",
    "check_cross_backend",
    "check_ground_path_differential",
    "check_hide_differential",
    "check_mutation",
    "deintern",
    "sample_goodrun_vector",
    "PROOF_MUTATORS",
    "ProofMutation",
    "apply_random_proof_mutator",
    "describe_proof",
    "describe_run",
    "shrink_assumption_vector",
    "shrink_proof",
    "shrink_run",
]
