"""The fuzzing campaign driver and its JSON report.

One iteration = one seeded workload: generate a well-formed base
system, randomize its Prim interpretation, run the differential
evaluator oracles over sampled formulas and points, inject one fault
and check the WF oracle classifies it, close a true assumption set
under the derivation engine and replay every derived fact against the
semantics, certify a derivation into a Hilbert proof and attack the
proof checker with surgical mutations, and (periodically) replay the
soundness sweep in parallel and compare renders.  Failures are
greedily shrunk before being recorded, so the report carries minimal
reproductions, not raw random noise.

Oracle families can be selected per campaign (``FuzzConfig.oracles``,
``fuzz --oracles``); everything is a pure function of
``FuzzConfig.seed``: re-running with the same seed, iteration count,
and family selection reproduces every workload, mutation choice, and
oracle verdict bit-for-bit.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field, replace as dc_replace
from typing import Sequence

from repro import context, perf
from repro.errors import ProofError
from repro.goodruns.construction import construct_good_runs
from repro.logic.certify import CertificationError, certify
from repro.logic.engine import Derivation, Rule
from repro.logic.proof import Proof
from repro.model.system import System
from repro.obs import journal, run_metadata, spans
from repro.obs.spans import summarize
from repro.obs.trace import render_why, trace_evaluation
from repro.semantics.backend import get_backend

from repro.fuzz.generate import (
    ORACLE_FAMILIES,
    FuzzConfig,
    generate_base_system,
    randomize_interpretation,
)
from repro.fuzz.goodruns_oracles import (
    check_goodruns_construction,
    describe_assumptions,
    sample_assumption_vector,
)
from repro.fuzz.logic_oracles import (
    check_engine_replay,
    check_interpretation_agreement,
    check_proof_mutation,
    sample_assumptions,
)
from repro.fuzz.mutators import MUTATORS, Mutation, apply_random_mutator
from repro.fuzz.oracles import (
    OracleFailure,
    check_cache_differential,
    check_clean_system,
    check_compiled_differential,
    check_cross_backend,
    check_ground_path_differential,
    check_hide_differential,
    check_mutation,
    check_parallel_sweep,
    classification_failure,
    sample_formulas,
    sample_goodrun_vector,
    sample_points,
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
    shrink_assumptions,
    shrink_proof,
    shrink_run,
)


#: How many trailing journal events a counterexample carries (the
#: "flight recorder" tail attached next to the why-false trace).
JOURNAL_TAIL = 20


@dataclass
class MutatorStats:
    applied: int = 0
    detected: int = 0
    failed: int = 0


@dataclass
class Counterexample:
    """A shrunk failing artifact, ready for the JSON report."""

    iteration: int
    failure: OracleFailure
    mutator: str | None = None
    expected: list[str] = field(default_factory=list)
    script: list[str] = field(default_factory=list)
    #: Rendered "why" proof-tree of the violated instance, when the
    #: failure names a (formula, run, time) that can be re-evaluated.
    trace: list[str] = field(default_factory=list)
    #: The iteration's correlation ID: the same value stamped on its
    #: journal events and span attributes, so a counterexample selects
    #: its own telemetry out of the campaign's merged stream.
    corr_id: str | None = None
    #: The flight-recorder tail of the failing iteration (last-N
    #: journal events: compilations, fallbacks, evictions, stage
    #: skips, oracle verdicts) — what happened just before it failed.
    journal: list[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "iteration": self.iteration,
            "mutator": self.mutator,
            "expected": self.expected,
            "failure": self.failure.to_json(),
            "script": self.script,
            "trace": self.trace,
            "corr_id": self.corr_id,
            "journal": [dict(event) for event in self.journal],
        }


@dataclass
class FuzzReport:
    """Aggregated campaign outcome."""

    seed: int
    iterations: int = 0
    mutations: dict[str, MutatorStats] = field(default_factory=dict)
    #: Per-proof-mutator tallies (the adversarial proof-mutation family).
    proof_mutations: dict[str, MutatorStats] = field(default_factory=dict)
    oracle_checks: dict[str, int] = field(default_factory=dict)
    counterexamples: list[Counterexample] = field(default_factory=list)
    elapsed_s: float = 0.0
    #: Environment fingerprint (:func:`repro.obs.run_metadata`).
    meta: dict = field(default_factory=dict)
    #: Per-phase wall-clock summary (:func:`repro.obs.spans.summarize`).
    spans: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def count_check(self, oracle: str, n: int = 1) -> None:
        self.oracle_checks[oracle] = self.oracle_checks.get(oracle, 0) + n

    def mutator_stats(self, name: str) -> MutatorStats:
        return self.mutations.setdefault(name, MutatorStats())

    def proof_mutator_stats(self, name: str) -> MutatorStats:
        return self.proof_mutations.setdefault(name, MutatorStats())

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "iterations": self.iterations,
            "ok": self.ok,
            "elapsed_s": round(self.elapsed_s, 3),
            "mutations": {
                name: {
                    "applied": stats.applied,
                    "detected": stats.detected,
                    "failed": stats.failed,
                }
                for name, stats in sorted(self.mutations.items())
            },
            "proof_mutations": {
                name: {
                    "applied": stats.applied,
                    "detected": stats.detected,
                    "failed": stats.failed,
                }
                for name, stats in sorted(self.proof_mutations.items())
            },
            "oracle_checks": dict(sorted(self.oracle_checks.items())),
            "counterexamples": [c.to_json() for c in self.counterexamples],
            "meta": dict(self.meta),
            "spans": dict(self.spans),
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def render(self) -> str:
        lines = [
            f"fuzz: seed={self.seed} iterations={self.iterations} "
            f"elapsed={self.elapsed_s:.1f}s "
            f"{'OK' if self.ok else 'FAILURES: ' + str(len(self.counterexamples))}"
        ]
        header = f"  {'mutator':<22} {'applied':>8} {'detected':>9} {'failed':>7}"
        lines.append(header)
        lines.append("  " + "-" * (len(header) - 2))
        for name in MUTATORS:
            stats = self.mutations.get(name, MutatorStats())
            lines.append(
                f"  {name:<22} {stats.applied:>8} {stats.detected:>9} "
                f"{stats.failed:>7}"
            )
        if self.proof_mutations:
            lines.append(f"  {'proof mutator':<22} "
                         f"{'applied':>8} {'detected':>9} {'failed':>7}")
            lines.append("  " + "-" * (len(header) - 2))
            for name in sorted(PROOF_MUTATORS):
                stats = self.proof_mutations.get(name, MutatorStats())
                lines.append(
                    f"  {name:<22} {stats.applied:>8} {stats.detected:>9} "
                    f"{stats.failed:>7}"
                )
        lines.append(
            "  oracle checks: "
            + ", ".join(
                f"{name}={n}" for name, n in sorted(self.oracle_checks.items())
            )
        )
        for example in self.counterexamples[:5]:
            lines.append(f"  ! {example.failure.oracle}: "
                         f"{example.failure.description}")
        return "\n".join(lines)


def _shrunk_counterexample(
    iteration: int, mutation: Mutation, failure: OracleFailure
) -> Counterexample:
    """Minimize a WF-classification failure before recording it."""
    expected, exact = mutation.expected, mutation.exact

    def still_fails(candidate) -> bool:
        return (
            classification_failure(expected, exact, candidate) is not None
        )

    minimal = shrink_run(mutation.run, still_fails)
    return Counterexample(
        iteration=iteration,
        failure=failure,
        mutator=mutation.name,
        expected=sorted(expected),
        script=describe_run(minimal),
    )


def _failure_trace(
    system: System, failure: OracleFailure, vector=None
) -> list[str]:
    """Best-effort "why" proof-tree for an oracle failure.

    The failure records the violated instance as a string; when it
    round-trips through the parser against the system's vocabulary, a
    fresh traced belief evaluation (relative to ``vector``, if given)
    explains the verdict the oracle objected to.  Anything unparseable
    (or un-evaluable) yields no trace rather than masking the original
    failure.
    """
    if (
        failure.formula is None
        or failure.run_name is None
        or failure.time is None
    ):
        return []
    try:
        from repro.terms.parser import parse_formula

        formula = parse_formula(failure.formula, system.vocabulary)
        run = system.run(failure.run_name)
        _verdict, root = trace_evaluation(
            system, formula, run, failure.time, goodruns=vector
        )
        return render_why(root).splitlines()
    except Exception:  # pragma: no cover - diagnostics must not throw
        return []


def _system_with(system: System, run) -> System:
    """The system with one run replaced by its mutated twin (same name)."""
    runs = tuple(
        run if original.name == run.name else original
        for original in system.runs
    )
    return dc_replace(system, runs=runs)


def _shrunk_replay_counterexample(
    iteration: int,
    failure: OracleFailure,
    system: System,
    run,
    k: int,
    assumptions,
    rules,
    max_facts: int,
) -> Counterexample:
    """Minimize a replay failure to the assumptions that still derive
    a false fact, and attach the engine's own explanation of it."""

    def still_fails(candidate) -> bool:
        failures, _derivation = check_engine_replay(
            system, run, k, candidate, rules=rules, max_facts=max_facts
        )
        return bool(failures)

    minimal = shrink_assumptions(assumptions, still_fails)
    script = [f"point: ({run.name}, {k})"]
    script += [f"assume: {formula}" for formula in minimal]
    shrunk_failures, derivation = check_engine_replay(
        system, run, k, minimal, rules=rules, max_facts=max_facts
    )
    witness = shrunk_failures[0] if shrunk_failures else failure
    if derivation is not None and witness.formula is not None:
        try:
            from repro.terms.parser import parse_formula

            bad = parse_formula(witness.formula, system.vocabulary)
            script += derivation.explain(bad).splitlines()
        except Exception:  # pragma: no cover - diagnostics must not throw
            pass
    return Counterexample(
        iteration=iteration,
        failure=witness,
        script=script,
        trace=_failure_trace(system, witness),
    )


def _shrunk_proof_counterexample(
    iteration: int,
    mutation: ProofMutation,
    original: Proof,
    failure: OracleFailure,
) -> Counterexample:
    """Minimize the mutant proof while its oracle verdict persists."""

    def still_fails(candidate: Proof) -> bool:
        twin = ProofMutation(
            mutation.name, candidate, mutation.expectation, mutation.detail
        )
        return check_proof_mutation(twin, original) is not None

    minimal = shrink_proof(mutation.proof, still_fails)
    return Counterexample(
        iteration=iteration,
        failure=failure,
        mutator=mutation.name,
        expected=[mutation.expectation],
        script=describe_proof(minimal),
    )


def _shrunk_goodruns_counterexample(
    iteration: int,
    failure: OracleFailure,
    system: System,
    assumptions,
    optimality_cap: int,
) -> Counterexample:
    """Minimize the assumption vector while the same oracle kind keeps
    failing, and attach a why-false trace relative to its fixpoint."""
    kind = failure.oracle

    def still_fails(candidate) -> bool:
        return any(
            candidate_failure.oracle == kind
            for candidate_failure in check_goodruns_construction(
                system, candidate, optimality_cap=optimality_cap
            )
        )

    minimal = shrink_assumption_vector(assumptions, still_fails)
    shrunk = [
        candidate_failure
        for candidate_failure in check_goodruns_construction(
            system, minimal, optimality_cap=optimality_cap
        )
        if candidate_failure.oracle == kind
    ]
    witness = shrunk[0] if shrunk else failure
    try:
        trace = _failure_trace(
            system, witness, construct_good_runs(system, minimal).vector
        )
    except Exception:  # pragma: no cover - diagnostics must not throw
        trace = []
    return Counterexample(
        iteration=iteration,
        failure=witness,
        script=describe_assumptions(minimal),
        trace=trace,
    )


def _shrunk_cross_backend_counterexample(
    iteration: int,
    failure: OracleFailure,
    system: System,
    formulas,
    points,
    vector,
) -> Counterexample:
    """Minimize the restricting good-run vector while the same formula
    keeps disagreeing, then attach the belief why trace relative to the
    minimal vector."""
    from repro.semantics.goodvectors import GoodRunVector

    kind = (failure.oracle, failure.formula)

    def still_fails(candidate: GoodRunVector) -> bool:
        return any(
            (f.oracle, f.formula) == kind
            for f in check_cross_backend(
                system, formulas, points, goodruns=candidate
            )
        )

    # Greedy entry deletion: dropping an entry *weakens* the
    # restriction (absent principals default to all-runs-good), so the
    # surviving entries are the ones the disagreement actually needs.
    entries = dict(vector.entries)
    changed = True
    while changed:
        changed = False
        for principal in sorted(entries, key=str):
            candidate_map = {
                p: g for p, g in entries.items() if p != principal
            }
            if still_fails(GoodRunVector.of(candidate_map)):
                entries = candidate_map
                changed = True
                break
    minimal = GoodRunVector.of(entries)
    shrunk = [
        f
        for f in check_cross_backend(
            system, formulas, points, goodruns=minimal
        )
        if (f.oracle, f.formula) == kind
    ]
    witness = shrunk[0] if shrunk else failure
    script = [f"vector: {minimal.describe()}"]
    if witness.run_name is not None:
        script += describe_run(system.run(witness.run_name))
    return Counterexample(
        iteration=iteration,
        failure=witness,
        script=script,
        trace=_failure_trace(system, witness, minimal),
    )


def _certified_proof(
    rng: random.Random, derivation: Derivation
) -> Proof | None:
    """Certify one randomly chosen derived fact into a checked proof.

    Facts whose certificates cannot be compiled (givens only, or rules
    without a certificate at this prefix) are skipped; a handful of
    candidates is plenty per iteration.
    """
    candidates = sorted(derivation.origins, key=str)
    if not candidates:
        return None
    rng.shuffle(candidates)
    for fact in candidates[:4]:
        try:
            proof = certify(derivation, fact.to_formula())
        except (CertificationError, ProofError):
            continue
        if len(proof.steps) >= 2:
            return proof
    return None


def run_fuzz(
    config: FuzzConfig,
    progress=None,
    replay_rules: Sequence[Rule] | None = None,
) -> FuzzReport:
    """Run one fuzzing campaign; pure in ``config``.

    ``replay_rules`` overrides the engine rule set the replay oracle
    closes assumptions under — test fixtures use it to plant a
    deliberately unsound rule and watch the oracle catch it.
    """
    unknown = set(config.oracles) - set(ORACLE_FAMILIES)
    if unknown:
        raise ValueError(
            f"unknown oracle families {sorted(unknown)}; "
            f"choose from {list(ORACLE_FAMILIES)}"
        )
    enabled = frozenset(config.oracles)
    report = FuzzReport(seed=config.seed)
    report.meta = run_metadata(
        command="fuzz", seed=config.seed, iterations=config.iterations,
        oracles=sorted(enabled), backend=config.backend,
    )
    span_mark = spans.mark()
    started = time.perf_counter()
    for iteration in range(config.iterations):
        # Each iteration runs in an ephemeral engine context: its
        # interned terms, kernel memos, and evaluator registrations are
        # dropped wholesale when the workload ends (bounding memory for
        # long campaigns), while its telemetry (counters, spans,
        # journal events, cache peaks) is absorbed into the caller's
        # context so campaign telemetry stays whole.  The deterministic
        # correlation ID ties an iteration's journal events, span
        # attributes, and counterexamples together — and keeps reports
        # bit-reproducible per seed.
        corr_id = f"fuzz-{config.seed}-{iteration}"
        iter_ctx = context.fresh(f"fuzz-iter-{iteration}", corr_id=corr_id)
        with context.use(iter_ctx):
            before = len(report.counterexamples)
            with spans.span("fuzz.iteration"):
                _fuzz_iteration(config, enabled, report, iteration,
                                replay_rules)
            fresh_examples = report.counterexamples[before:]
            if fresh_examples:
                # Attach the iteration's flight-recorder tail: the
                # last-N events (compiles, fallbacks, evictions, oracle
                # verdicts) leading up to the failure.
                events = journal.tail(JOURNAL_TAIL)
                for example in fresh_examples:
                    example.corr_id = corr_id
                    example.journal = events
        context.current().absorb(iter_ctx.telemetry())
        report.iterations += 1
        if progress is not None:
            progress(report)
    report.elapsed_s = time.perf_counter() - started
    report.spans = summarize(spans.delta_since(span_mark))
    return report


def _fuzz_iteration(
    config: FuzzConfig,
    enabled: frozenset,
    report: FuzzReport,
    iteration: int,
    replay_rules: Sequence[Rule] | None,
) -> None:
    """One seeded workload, run under the caller-installed context."""
    with spans.span("fuzz.generate"):
        system, rng = generate_base_system(config, iteration)
    perf.count("fuzz.iterations")

    # Interpretation fuzzing: re-roll the Prim interpretation per
    # workload (seeded, picklable) and check the evaluator, clone,
    # and pickle legs all agree with the predicate directly.
    if "interpretation" in enabled:
        with spans.span("fuzz.interpretation"):
            system = randomize_interpretation(rng, system)
            interp_points = sample_points(rng, system, config.points_per_run)
            interp_failures = check_interpretation_agreement(
                system, interp_points
            )
        journal.record("oracle_verdict", oracle="prim_agreement",
                       checks=len(interp_points),
                       failures=len(interp_failures))
        report.count_check("prim_agreement", len(interp_points))
        for failure in interp_failures:
            report.counterexamples.append(
                Counterexample(
                    iteration=iteration,
                    failure=failure,
                    trace=_failure_trace(system, failure),
                )
            )

    # Oracle: the generator only emits well-formed systems.
    if "wf" in enabled:
        report.count_check("generator_wellformed", len(system.runs))
        for failure in check_clean_system(system):
            report.counterexamples.append(
                Counterexample(
                    iteration=iteration,
                    failure=failure,
                    script=describe_run(system.run(failure.run_name)),
                )
            )

    # Fault injection + WF classification oracle.
    mutation = None
    if "wf" in enabled:
        with spans.span("fuzz.mutate"):
            mutation = apply_random_mutator(rng, rng.choice(system.runs))
    if mutation is not None:
        perf.count(f"fuzz.mutations.{mutation.name}")
        stats = report.mutator_stats(mutation.name)
        stats.applied += 1
        report.count_check("wf_classification")
        failure = check_mutation(mutation)
        journal.record("oracle_verdict", oracle="wf_classification",
                       mutator=mutation.name,
                       failures=0 if failure is None else 1)
        if failure is None:
            stats.detected += 1
        else:
            stats.failed += 1
            report.counterexamples.append(
                _shrunk_counterexample(iteration, mutation, failure)
            )
        # A benign mutant that stayed clean is fresh differential
        # material: run the evaluator oracles on the mutated system.
        if failure is None and not mutation.expected:
            system = _system_with(system, mutation.run)

    # Differential evaluator oracles on the (possibly benign-mutated)
    # well-formed system.
    if enabled & {"differential", "compiled", "cross_backend"}:
        formulas = sample_formulas(
            rng, system, config.formulas_per_iteration
        )
        points = sample_points(rng, system, config.points_per_run)
    else:
        formulas, points = (), ()
    if "differential" in enabled and formulas and points:
        checks = len(formulas) * len(points)
        report.count_check("cache_differential", checks)
        report.count_check("hide_differential", checks)
        report.count_check("ground_path_differential", len(points))
        with spans.span("fuzz.differential", checks=checks):
            failures = (
                check_cache_differential(system, formulas, points)
                + check_hide_differential(system, formulas, points)
                + check_ground_path_differential(
                    rng, system, formulas, points
                )
            )
        journal.record("oracle_verdict", oracle="differential",
                       checks=checks, failures=len(failures))
        for failure in failures:
            run = system.run(failure.run_name) if failure.run_name else None
            report.counterexamples.append(
                Counterexample(
                    iteration=iteration,
                    failure=failure,
                    script=describe_run(run) if run is not None else [],
                    trace=_failure_trace(system, failure),
                )
            )

    # Compiled-vs-interpreted engine differential: the fast path the
    # sweep/audit/replay loops adopted must stay byte-identical to the
    # interpreter, under both hide variants.
    if "compiled" in enabled and formulas and points:
        checks = len(formulas) * len(points) * 2
        report.count_check("compiled_vs_interpreted", checks)
        with spans.span("fuzz.compiled", checks=checks):
            compiled_failures = check_compiled_differential(
                system, formulas, points
            ) + check_compiled_differential(
                system, formulas, points, pattern_hide=True
            )
        journal.record("oracle_verdict", oracle="compiled_vs_interpreted",
                       checks=checks, failures=len(compiled_failures))
        for failure in compiled_failures:
            run = system.run(failure.run_name) if failure.run_name else None
            report.counterexamples.append(
                Counterexample(
                    iteration=iteration,
                    failure=failure,
                    script=describe_run(run) if run is not None else [],
                    trace=_failure_trace(system, failure),
                )
            )

    # Cross-backend containment map: the belief and epistemic backends
    # are compared under a seeded restricting good-run vector (and
    # again unrestricted), under both hide variants.  Agreement is not
    # expected everywhere — belief-true/epistemic-false is the allowed
    # direction of the guarded-defensible-knowledge containment — but
    # error outcomes must match, belief-free formulas must agree
    # exactly, and an epistemic-true/belief-false verdict on a
    # belief-positive formula is a counterexample.
    if "cross_backend" in enabled and formulas and points:
        checks = len(formulas) * len(points) * 4
        report.count_check("cross_backend", checks)
        with spans.span("fuzz.cross_backend", checks=checks):
            cross_vector = sample_goodrun_vector(rng, system)
            cross_failures = (
                check_cross_backend(system, formulas, points)
                + check_cross_backend(
                    system, formulas, points, pattern_hide=True
                )
                + check_cross_backend(
                    system, formulas, points, goodruns=cross_vector
                )
                + check_cross_backend(
                    system, formulas, points, goodruns=cross_vector,
                    pattern_hide=True,
                )
            )
        journal.record("oracle_verdict", oracle="cross_backend",
                       checks=checks, failures=len(cross_failures))
        for failure in cross_failures:
            report.counterexamples.append(
                _shrunk_cross_backend_counterexample(
                    iteration, failure, system, formulas, points,
                    cross_vector,
                )
            )

    # Good-runs construction invariants: a random I1 assumption vector
    # through the Theorem 2/3 pipeline.  The whole check — the
    # construction, both engines, and the brute-force optimality
    # search — runs in its own ephemeral context (the enumeration warms
    # per-vector caches no later oracle wants), with counters and
    # spans (the per-stage ``goodruns.stage`` telemetry) absorbed back
    # into the iteration's context for the campaign report.
    if "goodruns_construction" in enabled:
        goodruns_ctx = context.fresh(f"fuzz-goodruns-{iteration}")
        with context.use(goodruns_ctx):
            with spans.span("fuzz.goodruns"):
                goodruns_assumptions = sample_assumption_vector(
                    rng, system, config.goodruns_assumptions
                )
                goodruns_failures = []
                if goodruns_assumptions is not None:
                    goodruns_failures = check_goodruns_construction(
                        system,
                        goodruns_assumptions,
                        optimality_cap=config.goodruns_optimality_cap,
                    )
        context.current().absorb(goodruns_ctx.telemetry())
        if goodruns_assumptions is not None:
            report.count_check("goodruns_construction")
            journal.record("oracle_verdict", oracle="goodruns_construction",
                           failures=len(goodruns_failures))
        for failure in goodruns_failures:
            report.counterexamples.append(
                _shrunk_goodruns_counterexample(
                    iteration, failure, system, goodruns_assumptions,
                    config.goodruns_optimality_cap,
                )
            )

    # Engine-vs-semantics replay: close a true assumption set under
    # the (A11-excluded) rules, replay every derived fact at the
    # assumption point.  The derivation doubles as the proof corpus
    # for the mutation oracle below.
    derivation = None
    if enabled & {"engine_replay", "proof_mutation"}:
        with spans.span("fuzz.engine_replay"):
            replay_run = rng.choice(system.runs)
            replay_k = rng.choice(list(replay_run.times))
            replay_evaluator = get_backend(config.backend).compile(system)
            assumptions = sample_assumptions(
                rng, system, replay_evaluator, replay_run, replay_k,
                config.replay_assumptions,
            )
            replay_failures, derivation = check_engine_replay(
                system, replay_run, replay_k, assumptions,
                rules=replay_rules,
                max_facts=config.replay_max_facts,
                evaluator=replay_evaluator,
            )
        if "engine_replay" in enabled:
            derived = len(derivation.origins) if derivation else 0
            report.count_check("engine_replay", max(derived, 1))
            journal.record("oracle_verdict", oracle="engine_replay",
                           checks=max(derived, 1),
                           failures=len(replay_failures))
            for failure in replay_failures:
                report.counterexamples.append(
                    _shrunk_replay_counterexample(
                        iteration, failure, system, replay_run,
                        replay_k, assumptions, replay_rules,
                        config.replay_max_facts,
                    )
                )

    # Adversarial proof mutation: certify one derived fact into a
    # checked Hilbert proof and corrupt it; the checker must reject
    # every non-benign mutant with ProofError and never crash.
    if "proof_mutation" in enabled and derivation is not None:
        with spans.span("fuzz.proof_mutation"):
            proof = _certified_proof(rng, derivation)
            proof_failures: list[tuple[ProofMutation, OracleFailure]] = []
            if proof is not None:
                for _ in range(config.proof_mutations_per_iteration):
                    proof_mutation = apply_random_proof_mutator(rng, proof)
                    if proof_mutation is None:
                        break
                    perf.count(
                        f"fuzz.proof_mutations.{proof_mutation.name}"
                    )
                    stats = report.proof_mutator_stats(proof_mutation.name)
                    stats.applied += 1
                    report.count_check("proof_mutation")
                    failure = check_proof_mutation(proof_mutation, proof)
                    if failure is None:
                        stats.detected += 1
                    else:
                        stats.failed += 1
                        proof_failures.append((proof_mutation, failure))
            if proof is not None:
                journal.record("oracle_verdict", oracle="proof_mutation",
                               failures=len(proof_failures))
        for proof_mutation, failure in proof_failures:
            report.counterexamples.append(
                _shrunk_proof_counterexample(
                    iteration, proof_mutation, proof, failure
                )
            )

    # Periodic parallel-sweep differential (a full model-check, so
    # only every Nth iteration and with a tight instance cap).
    if (
        "parallel" in enabled
        and config.parallel_every
        and iteration % config.parallel_every == config.parallel_every - 1
    ):
        report.count_check("parallel_sweep_differential")
        with spans.span("fuzz.parallel_sweep"):
            failure = check_parallel_sweep(
                system, config.parallel_workers, config.parallel_instances
            )
        journal.record("oracle_verdict", oracle="parallel_sweep",
                       failures=0 if failure is None else 1)
        if failure is not None:
            report.counterexamples.append(
                Counterexample(iteration=iteration, failure=failure)
            )
