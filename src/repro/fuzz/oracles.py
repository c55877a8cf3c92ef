"""The fuzzer's invariant oracles.

Four families of checks, each independent of the machinery it audits:

* **WF classification** — :func:`repro.model.wellformed.violation_classes`
  must flag exactly (or at least, for non-exact mutations) the condition
  classes a fault injector tagged, and nothing on clean runs.
* **Cache/interning differentials** — evaluation results must be
  identical with warm caches, under a cold ephemeral engine context,
  and on structurally-equal *non-interned* clones of the formulas
  (exercising the structural ``__hash__``/``__eq__`` fallback paths).
* **Hide differentials** — ``pattern_hide`` only affects belief:
  belief-free formulas must evaluate identically under both variants,
  and pattern hiding refines indistinguishability, so a top-level
  belief that holds under collapse-hide must also hold under
  pattern-hide.  The evaluator's walked hidden views must group the
  points as the literal ``hidden_local_view`` does, and its walked said
  entries must equal the literal per-time ones.
* **Path differential** — the ground-formula fast path must agree with
  the substitution path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Sequence

from repro import context
from repro.errors import SemanticsError
from repro.model.runs import Run
from repro.model.submsgs import said_submsgs
from repro.model.system import System
from repro.model.wellformed import violation_classes
from repro.semantics.compiler import compiled_for
from repro.semantics.evaluator import Evaluator
from repro.semantics.hide import hidden_local_view
from repro.terms.atoms import Key, Parameter, Sort
from repro.terms.base import Message
from repro.terms.formulas import Believes, Formula
from repro.terms.intern import _field_names, intern_key
from repro.terms.ops import (
    constants_of_sort,
    has_belief_under_negation,
    is_ground,
    transform,
    walk,
)

from repro.fuzz.mutators import Mutation


@dataclass(frozen=True)
class OracleFailure:
    """One surviving invariant violation."""

    oracle: str
    description: str
    run_name: str | None = None
    formula: str | None = None
    time: int | None = None

    @classmethod
    def at(cls, oracle: str, description: str, run: Run, k: int,
           formula: Formula) -> "OracleFailure":
        """A failure of ``formula`` at the point ``(run, k)``."""
        return cls(oracle, description, run.name, str(formula), k)

    def to_json(self) -> dict:
        out = {"oracle": self.oracle, "description": self.description}
        if self.run_name is not None:
            out["run"] = self.run_name
        if self.formula is not None:
            out["formula"] = self.formula
        if self.time is not None:
            out["time"] = self.time
        return out


# ---------------------------------------------------------------------------
# WF classification oracles
# ---------------------------------------------------------------------------


def classification_failure(
    expected: frozenset[str], exact: bool, run: Run
) -> str | None:
    """Why the WF checker's verdict disagrees with the tag, if it does."""
    detected = violation_classes(run)
    if not expected:
        if detected:
            return f"benign mutation flagged as {sorted(detected)}"
        return None
    if exact and detected != expected:
        return (
            f"expected exactly {sorted(expected)}, "
            f"checker flagged {sorted(detected)}"
        )
    if not expected <= detected:
        missed = sorted(expected - detected)
        return f"injected {missed} not detected (flagged {sorted(detected)})"
    return None


def check_mutation(mutation: Mutation) -> OracleFailure | None:
    """The central oracle: the checker sees what was injected."""
    why = classification_failure(mutation.expected, mutation.exact, mutation.run)
    if why is None:
        return None
    return OracleFailure(
        "wf_classification",
        f"{mutation.name} ({mutation.detail}): {why}",
        run_name=mutation.run.name,
    )


def check_clean_system(system: System) -> list[OracleFailure]:
    """Generated base systems must be well-formed (builder guarantee)."""
    failures = []
    for run in system.runs:
        detected = violation_classes(run)
        if detected:
            failures.append(
                OracleFailure(
                    "generator_wellformed",
                    f"generated run flagged as {sorted(detected)}",
                    run_name=run.name,
                )
            )
    return failures


# ---------------------------------------------------------------------------
# Formula/point sampling
# ---------------------------------------------------------------------------


def sample_formulas(
    rng: random.Random, system: System, count: int
) -> tuple[Formula, ...]:
    """Ground formulas over the system's traffic, belief-wrapped ones
    included so the hide machinery is actually on the hook."""
    from repro.soundness.sweep import pool_from_system

    pool = pool_from_system(system)
    formulas = [f for f in pool.formulas if is_ground(f)]
    principals = system.principals()
    if principals:
        for formula in list(formulas)[:2]:
            if not _mentions_belief(formula):
                formulas.append(Believes(rng.choice(principals), formula))
        # One nested belief per sample: P believes Q believes φ keeps the
        # deep-hide machinery (and the widened monotonicity oracle) on
        # the hook, not just the single-level collapse.
        bodies = [f for f in formulas if not _mentions_belief(f)]
        if bodies:
            body = rng.choice(bodies)
            outer, inner = (
                rng.choice(principals), rng.choice(principals)
            )
            formulas.append(Believes(outer, Believes(inner, body)))
    rng.shuffle(formulas)
    return tuple(formulas[:count])


def sample_points(
    rng: random.Random, system: System, per_run: int
) -> tuple[tuple[Run, int], ...]:
    points = []
    for run in system.runs:
        times = list(run.times)
        for k in sorted(rng.sample(times, min(per_run, len(times)))):
            points.append((run, k))
    return tuple(points)


def _mentions_belief(formula: Formula) -> bool:
    return any(isinstance(node, Believes) for node in walk(formula))


def sample_goodrun_vector(rng: random.Random, system: System):
    """A seeded, possibly-restricting good-run vector.

    Unrestricted principals are skipped outright; restricted ones get a
    strict subset of the run names — empty subsets included, because an
    empty possibility set is exactly where the paper's belief clause
    goes vacuous and the backends may legitimately diverge (the case
    the cross-backend oracle exists to map).
    """
    from repro.semantics.goodvectors import GoodRunVector

    names = sorted(run.name for run in system.runs)
    assignment = {}
    for principal in system.principals():
        if rng.random() < 0.4:
            continue
        size = rng.randint(0, max(0, len(names) - 1))
        assignment[principal] = frozenset(rng.sample(names, size))
    return GoodRunVector.of(assignment)


# ---------------------------------------------------------------------------
# Interning / cache differentials
# ---------------------------------------------------------------------------


def deintern(term: Message) -> Message:
    """A structurally-equal clone built *behind the constructors' back*.

    The clone (and every subterm of it) bypasses the intern table and
    carries no precomputed hash, so using it forces the structural
    ``__hash__``/``__eq__`` fallbacks — semantics must not depend on
    canonical instances.
    """
    cls = type(term)
    values = intern_key(term)[1:]
    rebuilt = []
    for value in values:
        if isinstance(value, Message):
            rebuilt.append(deintern(value))
        elif isinstance(value, tuple):
            rebuilt.append(
                tuple(
                    deintern(item) if isinstance(item, Message) else item
                    for item in value
                )
            )
        else:
            rebuilt.append(value)
    clone = object.__new__(cls)
    for name, value in zip(_field_names(cls), rebuilt):
        object.__setattr__(clone, name, value)
    return clone


def check_cache_differential(
    system: System,
    formulas: Sequence[Formula],
    points: Sequence[tuple[Run, int]],
) -> list[OracleFailure]:
    """Warm caches vs. cold caches vs. non-interned clones.

    The cold phase runs under an ephemeral :class:`EngineContext`: its
    intern table, semantic-kernel memos, and evaluator registry are all
    born empty, and the warm context's tables are never touched — terms
    interned before this check stay the canonical instances their
    structural keys resolve to.  (This replaces the old snapshot/restore
    dance around the shared global intern table.)
    """
    failures = []
    warm = Evaluator(system)
    expected = {
        (formula, run.name, k): warm.evaluate(formula, run, k)
        for formula in formulas
        for run, k in points
    }

    with context.scoped("fuzz-cold-cache"):
        cold = Evaluator(system)
        for formula in formulas:
            for run, k in points:
                value = cold.evaluate(formula, run, k)
                if value != expected[(formula, run.name, k)]:
                    failures.append(OracleFailure.at(
                        "cache_differential",
                        f"cold-context evaluation flipped to {value}",
                        run, k, formula,
                    ))

    uninterned = Evaluator(system)
    for formula in formulas:
        clone = deintern(formula)
        for run, k in points:
            value = uninterned.evaluate(clone, run, k)
            if value != expected[(formula, run.name, k)]:
                failures.append(OracleFailure.at(
                    "intern_differential",
                    f"non-interned clone evaluated to {value}",
                    run, k, formula,
                ))
    return failures


# ---------------------------------------------------------------------------
# Hide differentials
# ---------------------------------------------------------------------------


def check_hide_differential(
    system: System,
    formulas: Sequence[Formula],
    points: Sequence[tuple[Run, int]],
) -> list[OracleFailure]:
    """``pattern_hide`` must not move belief-free truth, and may only
    strengthen belief-positive formulas (refinement of
    indistinguishability).

    The monotone class is every formula whose beliefs sit in positive
    positions only (the I1 test, ``has_belief_under_negation``), nested
    beliefs included: pattern hiding shrinks each possibility set, which
    can only turn beliefs true, and by induction a positive context
    propagates that direction outward.  Formulas with beliefs under
    negation can legitimately move either way and are skipped.

    Under both variants, the evaluator's walked hidden views must group
    every principal's points (the environment's included) exactly as
    the literal views do; the first pair of points they disagree on is
    a ``hide_views`` failure.
    """
    failures = []
    collapse = Evaluator(system, pattern_hide=False)
    pattern = Evaluator(system, pattern_hide=True)
    for formula in formulas:
        belief_free = not _mentions_belief(formula)
        monotone = not belief_free and not has_belief_under_negation(formula)
        if not (belief_free or monotone):
            continue
        for run, k in points:
            a = collapse.evaluate(formula, run, k)
            b = pattern.evaluate(formula, run, k)
            if belief_free and a != b:
                oracle = "hide_differential"
                why = f"belief-free formula moved: collapse={a}, pattern={b}"
            elif monotone and a and not b:
                oracle = "hide_monotonicity"
                why = ("belief held under collapse-hide but not under the "
                       "finer pattern-hide")
            else:
                continue
            failures.append(OracleFailure.at(oracle, why, run, k, formula))
    principals = dict.fromkeys(
        principal for run in system.runs for principal in run.all_principals
    )
    for evaluator, variant in ((collapse, "collapse"), (pattern, "pattern")):
        for principal in principals:
            own_points = [
                (run, k) for run in system.runs
                if principal in run.all_principals for k in run.times
            ]
            first_literal, first_walked = {}, {}
            for index, (run, k) in enumerate(own_points):
                literal = first_literal.setdefault(hidden_local_view(
                    run, principal, k, evaluator.pattern_hide), index)
                walked = first_walked.setdefault(
                    evaluator._hidden_view(principal, run, k), index)
                if literal != walked:
                    other, other_k = own_points[min(literal, walked)]
                    failures.append(OracleFailure(
                        "hide_views",
                        f"{principal} ({variant}-hide): walked and literal "
                        f"views group {other.name}@{other_k} and "
                        f"{run.name}@{k} differently",
                        run_name=run.name, time=k,
                    ))
                    break
    return failures


def check_said_entries(system: System) -> list[OracleFailure]:
    """The evaluator's walked said entries must equal the literal ones
    (each time's sends, said under that time's keys and received set)
    for every principal of every run, the environment included."""
    evaluator = Evaluator(system)
    return [
        OracleFailure("said_entries", f"{principal}: walked said entries "
                      "differ from the per-time ones", run_name=run.name)
        for run in system.runs for principal in run.all_principals
        if evaluator._said_entries(principal, run) != tuple(
            (k, said_submsgs(run.keyset(principal, k),
                             run.received_messages(principal, k), send.message))
            for k in run.times for send in run.sends_performed_at(principal, k)
        )
    ]


# ---------------------------------------------------------------------------
# Path differentials
# ---------------------------------------------------------------------------

#: The parameter the ground-vs-substitution oracle threads through runs.
_PROBE = Parameter("FZprobe", Sort.KEY)


def check_ground_path_differential(
    rng: random.Random,
    system: System,
    formulas: Sequence[Formula],
    points: Sequence[tuple[Run, int]],
) -> list[OracleFailure]:
    """Ground fast path vs. the Section 8 substitution path.

    A ground formula mentioning a key constant K is abstracted to a
    parameterized twin (K replaced by a parameter the runs map back to
    K); both must evaluate identically at every point, the twin under
    the compiled engine too.  That engine must also refuse the twin a
    whole-system bitset: its truth is per run.
    """
    failures = []
    candidates = [
        formula
        for formula in formulas
        if is_ground(formula) and constants_of_sort(formula, Sort.KEY)
    ]
    if not candidates:
        return failures
    formula = rng.choice(candidates)
    key = sorted(constants_of_sort(formula, Sort.KEY), key=str)[0]
    assert isinstance(key, Key)
    parameterized = transform(
        formula, lambda node: _PROBE if node == key else None
    )
    runs = tuple(
        replace(
            run,
            params=tuple(
                sorted(
                    list(run.params) + [(_PROBE, key)],
                    key=lambda kv: kv[0].name,
                )
            ),
        )
        for run in system.runs
    )
    parameterized_system = System(runs, system.interpretation, system.vocabulary)
    evaluator = Evaluator(parameterized_system)
    compiled = compiled_for(parameterized_system)
    if compiled.truth_bits(parameterized) is not None:
        failures.append(OracleFailure(
            "ground_path_differential",
            f"compiled engine gave the non-ground twin whole-system bits "
            f"(probe {key})", formula=str(formula),
        ))
    by_name = {run.name: run for run in runs}
    for run, k in points:
        twin = by_name[run.name]
        ground_value = evaluator.evaluate(formula, twin, k)
        substituted_value = evaluator.evaluate(parameterized, twin, k)
        compiled_value = compiled.evaluate(parameterized, twin, k)
        if not ground_value == substituted_value == compiled_value:
            failures.append(OracleFailure.at(
                "ground_path_differential",
                f"ground path said {ground_value}, substitution path "
                f"said {substituted_value}, compiled substitution path "
                f"said {compiled_value} (probe {key})",
                run, k, formula,
            ))
    return failures


def _outcome(evaluator, formula: Formula, run: Run, k: int) -> tuple:
    """``(verdict, None)``, or ``(None, message)`` when evaluation
    raises :class:`~repro.errors.SemanticsError`."""
    try:
        return evaluator.evaluate(formula, run, k), None
    except SemanticsError as error:
        return None, str(error)


def check_compiled_differential(
    system: System,
    formulas: Sequence[Formula],
    points: Sequence[tuple[Run, int]],
    goodruns=None,
    pattern_hide: bool = False,
) -> list[OracleFailure]:
    """Compiled engine vs. the interpreter: byte-identical verdicts.

    Every (formula, point) pair is evaluated by both engines — the
    recursive :class:`Evaluator` and the bitset
    :class:`~repro.semantics.compiler.CompiledSystem` — and both the
    truth verdict *and* the error outcome must match exactly.  This is
    the safety net under the compiled hot path: the sweep, the audit,
    and the engine-replay oracle all route through compilation, so any
    divergence here is a soundness bug, not a performance one.
    """
    failures = []
    interpreter = Evaluator(system, goodruns, pattern_hide=pattern_hide)
    compiled = compiled_for(system, goodruns, pattern_hide=pattern_hide)
    for formula in formulas:
        for run, k in points:
            expected = _outcome(interpreter, formula, run, k)
            actual = _outcome(compiled, formula, run, k)
            if expected != actual:
                failures.append(OracleFailure.at(
                    "compiled_vs_interpreted",
                    f"interpreter said {expected}, compiled engine "
                    f"said {actual}",
                    run, k, formula,
                ))
    return failures


def check_cross_backend(
    system: System,
    formulas: Sequence[Formula],
    points: Sequence[tuple[Run, int]],
    goodruns=None,
    pattern_hide: bool = False,
) -> list[OracleFailure]:
    """Belief vs. epistemic backends, mapped against the containment.

    The two built-in backends share every clause except belief, and the
    guarded defensible-knowledge reading is pointwise *stronger* there
    (see :mod:`repro.semantics.epistemic`): at every point,
    epistemic-true implies belief-true for the ``Believes`` clause, and
    the implication lifts to every formula whose beliefs sit in
    positive positions only.  The oracle therefore classifies each
    divergence:

    * error outcomes must match exactly (shared machinery);
    * belief-free formulas must agree exactly (shared clauses);
    * on belief-positive formulas, *epistemic-true / belief-false* is a
      wrong-direction disagreement — a counterexample to the theorem;
    * *belief-true / epistemic-false* is the expected direction (the
      paper's vacuous beliefs that defensible knowledge refuses) and is
      left alone, as are formulas with beliefs under negation.
    """
    from repro.semantics.backend import get_backend

    failures = []
    belief = get_backend("belief").compile(
        system, goodruns, pattern_hide=pattern_hide
    )
    epistemic = get_backend("epistemic").compile(
        system, goodruns, pattern_hide=pattern_hide
    )
    for formula in formulas:
        belief_free = not _mentions_belief(formula)
        monotone = not belief_free and not has_belief_under_negation(formula)
        for run, k in points:
            b = _outcome(belief, formula, run, k)
            e = _outcome(epistemic, formula, run, k)
            if b == e:
                continue
            if b[1] is not None or e[1] is not None:
                why = f"error outcomes diverged: belief={b}, epistemic={e}"
            elif belief_free:
                why = (
                    f"belief-free formula diverged: belief={b[0]}, "
                    f"epistemic={e[0]} (all non-belief clauses are shared)"
                )
            elif monotone and e[0] and not b[0]:
                why = (
                    "wrong-direction disagreement: epistemic "
                    "(defensible knowledge) held where belief failed, "
                    "violating the containment theorem"
                )
            else:
                # belief-true/epistemic-false, and either-way movement
                # under negative belief positions, are theorem-consistent.
                continue
            failures.append(
                OracleFailure.at("cross_backend", why, run, k, formula)
            )
    return failures
