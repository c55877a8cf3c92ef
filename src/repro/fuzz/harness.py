"""The fuzzing campaign driver and its JSON report.

One iteration = one seeded workload: generate a well-formed base
system, then run the enabled rows of the oracle table :data:`ROWS`
over it in table order, which is the order they draw from the
iteration's RNG.  A row is one function of the iteration's
:class:`Workload`; one loop does the bookkeeping of every row that
ran — a ``fuzz.<oracle>`` span, its ``oracle_checks`` counts, one
``oracle_verdict`` journal event, and its counterexamples.  Failures
are greedily shrunk before being recorded, so the report carries
minimal reproductions, not raw random noise.

Oracle families can be selected per campaign (``FuzzConfig.oracles``,
``fuzz --oracles``); everything is a pure function of
``FuzzConfig.seed``: re-running with the same seed, iteration count,
and family selection reproduces every workload, mutation choice, and
oracle verdict bit-for-bit.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import asdict, dataclass, field, replace as dc_replace
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

from repro import context, perf
from repro.errors import ProofError
from repro.goodruns.construction import construct_good_runs
from repro.logic.certify import CertificationError, certify
from repro.logic.engine import Derivation, Rule
from repro.logic.proof import Proof
from repro.model.runs import Run
from repro.model.system import System
from repro.obs import journal, run_metadata, spans
from repro.obs.spans import summarize
from repro.obs.trace import render_why, trace_evaluation
from repro.semantics.backend import get_backend
from repro.semantics.compiler import CompiledSystem
from repro.terms.formulas import Formula

from repro.fuzz.generate import generate_base_system, randomize_interpretation
from repro.fuzz.goodruns_oracles import (
    ENGINE_VARIANTS,
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
from repro.fuzz.mutators import MUTATORS, apply_random_mutator
from repro.fuzz.oracles import (
    OracleFailure,
    check_cache_differential,
    check_clean_system,
    check_compiled_differential,
    check_cross_backend,
    check_ground_path_differential,
    check_hide_differential,
    check_mutation,
    check_said_entries,
    classification_failure,
    sample_formulas,
    sample_goodrun_vector,
    sample_points,
)
from repro.fuzz.proof_mutators import PROOF_MUTATORS, apply_random_proof_mutator
from repro.fuzz.shrink import (
    describe_proof,
    describe_run,
    drop_one,
    drop_restriction,
    shrink,
    shrink_assumption_vector,
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
        return {**asdict(self), "failure": self.failure.to_json()}


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

    def tally(self, kind: str, name: str, failure) -> None:
        """Count one applied mutator of ``kind`` (``mutations`` or
        ``proof_mutations``) and whether its oracle verdict held."""
        perf.count(f"fuzz.{kind}.{name}")
        stats = getattr(self, kind).setdefault(name, MutatorStats())
        stats.applied += 1
        if failure is None:
            stats.detected += 1
        else:
            stats.failed += 1

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "iterations": self.iterations,
            "ok": self.ok,
            "elapsed_s": round(self.elapsed_s, 3),
            "mutations": _stats_json(self.mutations),
            "proof_mutations": _stats_json(self.proof_mutations),
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
        tables = [("mutator", MUTATORS, self.mutations)]
        if self.proof_mutations:
            tables.append(
                ("proof mutator", sorted(PROOF_MUTATORS), self.proof_mutations)
            )
        for title, names, tally in tables:
            header = f"  {title:<22} {'applied':>8} {'detected':>9} {'failed':>7}"
            lines += [header, "  " + "-" * (len(header) - 2)]
            for name in names:
                stats = tally.get(name, MutatorStats())
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


def _stats_json(tally: dict[str, MutatorStats]) -> dict:
    return {name: asdict(stats) for name, stats in sorted(tally.items())}


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


class Verdict(NamedTuple):
    """What one row reports back to the loop."""

    #: Checks run, per ``oracle_checks`` key.
    checks: dict[str, int]
    failures: Sequence
    #: How one failure becomes a shrunk counterexample; ``None`` is the
    #: loop's default (:meth:`Workload.counterexample`).
    shrink: Callable | None = None


class _Replay(NamedTuple):
    run: Run
    k: int
    evaluator: CompiledSystem
    assumptions: tuple[Formula, ...]
    failures: list[OracleFailure]
    derivation: Derivation | None


#: Points sampled per run for the evaluator differentials and the
#: interpretation-agreement oracle.
POINTS_PER_RUN = 3
#: Formulas sampled from the instantiation pool per iteration.
FORMULAS_PER_ITERATION = 6
#: True assumptions sampled per engine-replay workload.
REPLAY_ASSUMPTIONS = 6


@dataclass
class Workload:
    """One iteration's material, shared by the rows in table order.

    Rows that rewrite ``system`` (the randomized interpretation, a
    benign mutant that stayed clean) replace it for every later row.
    The shared draws — the differentials' formulas and points, and the
    replay point, assumptions and derivation that proof mutation
    reuses — are made at first use, so each selection of families
    draws from ``rng`` in the same order as the full table.
    """

    config: FuzzConfig
    iteration: int
    report: FuzzReport
    system: System
    rng: random.Random
    #: The engine rule set the replay closes under (None: the default).
    rules: Sequence[Rule] | None

    @cached_property
    def sample(self):
        """The differentials' formulas and points."""
        return (
            sample_formulas(self.rng, self.system, FORMULAS_PER_ITERATION),
            sample_points(self.rng, self.system, POINTS_PER_RUN),
        )

    @cached_property
    def replay(self) -> _Replay:
        """A true assumption set at a random point, closed and replayed."""
        run = self.rng.choice(self.system.runs)
        k = self.rng.choice(list(run.times))
        evaluator = get_backend(self.config.backend).compile(self.system)
        assumptions = sample_assumptions(
            self.rng, self.system, evaluator, run, k, REPLAY_ASSUMPTIONS
        )
        failures, derivation = check_engine_replay(
            evaluator, run, k, assumptions, rules=self.rules
        )
        return _Replay(run, k, evaluator, assumptions, failures, derivation)

    def counterexample(self, failure: OracleFailure) -> Counterexample:
        """The loop's default: the failing run's script and why trace."""
        run = self.system.run(failure.run_name) if failure.run_name else None
        return Counterexample(
            self.iteration,
            failure,
            script=describe_run(run) if run is not None else [],
            trace=_failure_trace(self.system, failure),
        )


# ---------------------------------------------------------------------------
# The rows
# ---------------------------------------------------------------------------


def _prim_agreement(work: Workload) -> Verdict:
    """Re-roll the Prim interpretation (seeded, picklable); the
    evaluator, clone, and pickle legs must agree with the predicate."""
    work.system = randomize_interpretation(work.rng, work.system)
    points = sample_points(work.rng, work.system, POINTS_PER_RUN)
    return Verdict(
        {"prim_agreement": len(points)},
        check_interpretation_agreement(work.system, points),
    )


def _generator_wellformed(work: Workload) -> Verdict:
    """The generator only emits well-formed systems."""
    return Verdict(
        {"generator_wellformed": len(work.system.runs)},
        check_clean_system(work.system),
    )


def _wf_classification(work: Workload) -> Verdict | None:
    """Inject one fault; the WF checker must classify it as tagged."""
    mutation = apply_random_mutator(work.rng, work.rng.choice(work.system.runs))
    if mutation is None:
        return None
    failure = check_mutation(mutation)
    work.report.tally("mutations", mutation.name, failure)
    # A benign mutant that stayed clean replaces its run (same name):
    # fresh differential material for the rows after this one.
    if failure is None and not mutation.expected:
        work.system = dc_replace(work.system, runs=tuple(
            mutation.run if run.name == mutation.run.name else run
            for run in work.system.runs
        ))
    expected, exact = mutation.expected, mutation.exact

    def shrunk(failure: OracleFailure) -> Counterexample:
        minimal = shrink_run(
            mutation.run,
            lambda run: classification_failure(expected, exact, run) is not None,
        )
        return Counterexample(
            work.iteration, failure, mutator=mutation.name,
            expected=sorted(expected), script=describe_run(minimal),
        )

    failures = [] if failure is None else [failure]
    return Verdict({"wf_classification": 1}, failures, shrunk)


def _differential(work: Workload) -> Verdict | None:
    """Cache/interning, hide, ground-path and said-entry differentials
    on the (possibly benign-mutated) well-formed system."""
    formulas, points = work.sample
    if not (formulas and points):
        return None
    system = work.system
    checks = len(formulas) * len(points)
    return Verdict(
        {
            "cache_differential": checks,
            "hide_differential": checks,
            # One walked view per principal, point and hide variant.
            "hide_views": 2 * sum(
                len(run.all_principals) * len(run.states)
                for run in system.runs
            ),
            "ground_path_differential": len(points),
            # One said-entry walk per principal and run.
            "said_entries": sum(len(r.all_principals) for r in system.runs),
        },
        check_cache_differential(system, formulas, points)
        + check_hide_differential(system, formulas, points)
        + check_ground_path_differential(work.rng, system, formulas, points)
        + check_said_entries(system),
    )


def _compiled_vs_interpreted(work: Workload) -> Verdict | None:
    """The compiled fast path must stay byte-identical to the
    interpreter, under both hide variants."""
    formulas, points = work.sample
    if not (formulas and points):
        return None
    return Verdict(
        {"compiled_vs_interpreted": len(formulas) * len(points) * 2},
        [
            failure
            for pattern_hide in (False, True)
            for failure in check_compiled_differential(
                work.system, formulas, points, pattern_hide=pattern_hide
            )
        ],
    )


def _cross_backend(work: Workload) -> Verdict | None:
    """The belief and epistemic backends, unrestricted and under a
    seeded restricting good-run vector, under both hide variants.

    Belief-true/epistemic-false is the allowed direction of the
    guarded-defensible-knowledge containment; error outcomes must
    match, belief-free formulas must agree exactly, and an
    epistemic-true/belief-false verdict on a belief-positive formula is
    a counterexample.
    """
    formulas, points = work.sample
    if not (formulas and points):
        return None
    system = work.system
    vector = sample_goodrun_vector(work.rng, system)
    failures = [
        failure
        for goodruns in (None, vector)
        for pattern_hide in (False, True)
        for failure in check_cross_backend(
            system, formulas, points, goodruns=goodruns,
            pattern_hide=pattern_hide,
        )
    ]

    def shrunk(failure: OracleFailure) -> Counterexample:
        # Dropping an entry weakens the restriction (absent principals
        # default to all-runs-good), so the surviving entries are the
        # ones the same formula's disagreement needs.
        def failures_of(candidate):
            return [
                f for f in check_cross_backend(
                    system, formulas, points, goodruns=candidate
                )
                if (f.oracle, f.formula) == (failure.oracle, failure.formula)
            ]

        minimal = shrink(vector, drop_restriction, failures_of, math.inf, ())
        witness = (failures_of(minimal) or [failure])[0]
        script = [f"vector: {minimal.describe()}"]
        if witness.run_name is not None:
            script += describe_run(system.run(witness.run_name))
        return Counterexample(
            work.iteration, witness, script=script,
            trace=_failure_trace(system, witness, minimal),
        )

    return Verdict(
        {"cross_backend": len(formulas) * len(points) * 4}, failures, shrunk
    )


#: Assumption formulas sampled per good-runs construction workload.
GOODRUNS_ASSUMPTIONS = 4


def _goodruns_construction(work: Workload) -> Verdict | None:
    """A random I1 assumption vector through the Theorem 2/3 pipeline.

    The whole check — the construction, both engines under every
    (backend, hide) variant, and the brute-force optimality search —
    runs in its own ephemeral context (the enumeration warms
    per-vector caches no later row wants), and its telemetry (the
    per-stage ``goodruns.stage`` spans included) is absorbed into the
    iteration's context.
    """
    system = work.system
    goodruns_ctx = context.fresh(f"fuzz-goodruns-{work.iteration}")
    with context.use(goodruns_ctx):
        assumptions = sample_assumption_vector(
            work.rng, system, GOODRUNS_ASSUMPTIONS
        )
        failures = [] if assumptions is None else (
            check_goodruns_construction(system, assumptions)
        )
    context.current().absorb(goodruns_ctx.telemetry())
    if assumptions is None:
        return None

    def shrunk(failure: OracleFailure) -> Counterexample:
        # Minimal while the same oracle kind keeps failing; the why
        # trace is relative to the minimal vector's fixpoint.
        def failures_of(candidate):
            return [
                f for f in check_goodruns_construction(system, candidate)
                if f.oracle == failure.oracle
            ]

        minimal = shrink_assumption_vector(assumptions, failures_of)
        witness = (failures_of(minimal) or [failure])[0]
        try:
            trace = _failure_trace(
                system, witness, construct_good_runs(system, minimal).vector
            )
        except Exception:  # pragma: no cover - diagnostics must not throw
            trace = []
        return Counterexample(
            work.iteration, witness,
            script=describe_assumptions(minimal), trace=trace,
        )

    return Verdict({"goodruns_construction": 1,
                    "goodruns_engines": len(ENGINE_VARIANTS)}, failures, shrunk)


def _engine_replay(work: Workload) -> Verdict:
    """Every fact derived (A11 excluded) from a true assumption set
    must hold at the assumption point."""
    replay = work.replay
    derived = len(replay.derivation.origins) if replay.derivation else 0

    def replay_with(assumptions):
        return check_engine_replay(
            replay.evaluator, replay.run, replay.k, assumptions,
            rules=work.rules,
        )

    def shrunk(failure: OracleFailure) -> Counterexample:
        # The smallest assumption set that still derives a false fact,
        # with the engine's own explanation of it.
        minimal = shrink(
            replay.assumptions, drop_one,
            lambda candidate: replay_with(candidate)[0], 200, Exception,
        )
        failures, derivation = replay_with(minimal)
        witness = (failures or [failure])[0]
        script = [f"point: ({replay.run.name}, {replay.k})"]
        script += [f"assume: {formula}" for formula in minimal]
        if derivation is not None and witness.formula is not None:
            try:
                from repro.terms.parser import parse_formula

                bad = parse_formula(witness.formula, work.system.vocabulary)
                script += derivation.explain(bad).splitlines()
            except Exception:  # pragma: no cover - diagnostics must not throw
                pass
        return Counterexample(
            work.iteration, witness, script=script,
            trace=_failure_trace(work.system, witness),
        )

    return Verdict({"engine_replay": max(derived, 1)}, replay.failures, shrunk)


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


#: Proof mutations injected per iteration that certifies a proof.
PROOF_MUTATIONS_PER_ITERATION = 2


def _proof_mutation(work: Workload) -> Verdict | None:
    """Certify one replayed fact into a checked Hilbert proof and
    corrupt it; the checker must reject every non-benign mutant with
    ProofError and never crash."""
    derivation = work.replay.derivation
    proof = None if derivation is None else _certified_proof(work.rng, derivation)
    if proof is None:
        return None
    applied, failures = 0, []
    for _ in range(PROOF_MUTATIONS_PER_ITERATION):
        mutation = apply_random_proof_mutator(work.rng, proof)
        if mutation is None:
            break
        applied += 1
        failure = check_proof_mutation(mutation, proof)
        work.report.tally("proof_mutations", mutation.name, failure)
        if failure is not None:
            failures.append((mutation, failure))

    def shrunk(pair) -> Counterexample:
        mutation, failure = pair
        minimal = shrink_proof(
            mutation.proof,
            lambda candidate: check_proof_mutation(
                dc_replace(mutation, proof=candidate), proof
            ) is not None,
        )
        return Counterexample(
            work.iteration, failure, mutator=mutation.name,
            expected=[mutation.expectation], script=describe_proof(minimal),
        )

    return Verdict({"proof_mutation": applied}, failures, shrunk)


#: The oracle table, in the order the rows draw from the iteration's
#: RNG: (family selected by ``--oracles``, oracle name, row).  A row
#: returns its :class:`Verdict`, or None when it did not run.
ROWS: tuple[tuple[str, str, Callable[[Workload], Verdict | None]], ...] = (
    ("interpretation", "prim_agreement", _prim_agreement),
    ("wf", "generator_wellformed", _generator_wellformed),
    ("wf", "wf_classification", _wf_classification),
    ("differential", "differential", _differential),
    ("compiled", "compiled_vs_interpreted", _compiled_vs_interpreted),
    ("cross_backend", "cross_backend", _cross_backend),
    ("goodruns_construction", "goodruns_construction", _goodruns_construction),
    ("engine_replay", "engine_replay", _engine_replay),
    ("proof_mutation", "proof_mutation", _proof_mutation),
)

#: The selectable oracle families (``fuzz --oracles``), in table order.
ORACLE_FAMILIES: tuple[str, ...] = tuple(
    dict.fromkeys(family for family, _oracle, _row in ROWS)
)


@dataclass(frozen=True)
class FuzzConfig:
    """Knobs for one fuzzing campaign (the ``fuzz`` CLI's flags)."""

    seed: int = 0
    iterations: int = 200
    #: Oracle families enabled for this campaign (see ORACLE_FAMILIES).
    oracles: tuple[str, ...] = ORACLE_FAMILIES
    #: Semantics backend the engine-replay workload audits against
    #: (the cross-backend oracle always compares ``belief`` vs.
    #: ``epistemic`` regardless).
    backend: str = "belief"

    def __post_init__(self) -> None:
        unknown = set(self.oracles) - set(ORACLE_FAMILIES)
        if unknown or not self.oracles:
            what = (f"unknown oracle families {sorted(unknown)}" if unknown
                    else "no oracle family selected")
            raise ValueError(
                f"{what}; choose from {', '.join(ORACLE_FAMILIES)}"
            )


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
    enabled = frozenset(config.oracles)
    report = FuzzReport(seed=config.seed)
    report.meta = run_metadata(
        command="fuzz", seed=config.seed, iterations=config.iterations,
        oracles=sorted(enabled), backend=config.backend,
    )
    iteration_spans: list[dict] = []
    started = time.perf_counter()
    for iteration in range(config.iterations):
        # Each iteration runs in an ephemeral engine context: its
        # interned terms, kernel memos, and evaluator registrations are
        # dropped wholesale when the workload ends (bounding memory for
        # long campaigns), while its telemetry (counters, spans,
        # journal events, cache peaks) is absorbed into the caller's
        # context so campaign telemetry stays whole.  The report's span
        # summary is built from the iterations' own telemetry, not read
        # back from the caller's bounded buffer.  The deterministic
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
        telemetry = iter_ctx.telemetry()
        context.current().absorb(telemetry)
        iteration_spans.extend(telemetry["spans"])
        report.iterations += 1
        if progress is not None:
            progress(report)
    report.elapsed_s = time.perf_counter() - started
    report.spans = summarize(iteration_spans)
    return report


def _fuzz_iteration(
    config: FuzzConfig,
    enabled: frozenset,
    report: FuzzReport,
    iteration: int,
    replay_rules: Sequence[Rule] | None,
) -> None:
    """One seeded workload through the enabled rows, in table order,
    under the caller-installed context."""
    with spans.span("fuzz.generate"):
        system, rng = generate_base_system(config, iteration)
    perf.count("fuzz.iterations")
    work = Workload(config, iteration, report, system, rng, replay_rules)
    for family, oracle, row in ROWS:
        if family not in enabled:
            continue
        row_started = time.perf_counter()
        verdict = row(work)
        if verdict is None:
            continue
        spans.record(f"fuzz.{oracle}", time.perf_counter() - row_started)
        for key, n in verdict.checks.items():
            report.count_check(key, n)
        journal.record("oracle_verdict", oracle=oracle,
                       checks=sum(verdict.checks.values()),
                       failures=len(verdict.failures))
        shrunk = verdict.shrink or work.counterexample
        report.counterexamples.extend(
            shrunk(failure) for failure in verdict.failures
        )
