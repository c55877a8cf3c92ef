"""The iterative construction of good-run sets (Section 7, Theorem 2).

Given a system R and an assumption vector I satisfying restriction I1,
the paper defines::

    G_i^0 = R
    G_i^j = G_i^{j-1} ∩ { r : (r, 0) |= φ relative to G^{j-1},
                          for every  P_i believes φ  in I_i^j }
    G_i   = ∩_j G_i^j

where ``I_i^j`` are the (normalized) assumptions of P_i with j levels
of belief.  Since assumption depth is finite the intersection stabilizes
at the maximum depth.

Theorem 2: if I satisfies I1, the constructed vector *supports* I (all
assumptions hold at all time-0 points relative to it).
Theorem 3: if I also satisfies I2, the constructed vector is *optimum*
(the maximum of all supporting vectors).

Two engines compute the same stages under either semantics backend
(held byte-identical by ``tests/test_goodruns_construction_fuzz.py``
and the ``goodruns_construction`` fuzz family):

* ``naive`` — the literal definition: compile the system against
  ``G^{j-1}`` at every stage and re-evaluate every stratum formula at
  every surviving ``(r, 0)``.  It is the reference the worklist engine
  is checked against.
* ``worklist`` (default) — one :class:`~repro.semantics.vector_eval.
  VectorTruth` checker for the whole construction, compiled through
  the backend, reads each stratum body's whole-system bitset at
  ``G^{j-1}``; stages whose strata are empty, and every stage after
  the vector hits bottom, are skipped outright
  (``goodruns.stage_skipped``).  See DESIGN.md §12 for the invariants
  and the soundness argument.

Both read compilations at a vector, which share the top compilation's
vector-independent tables (belief-free leaves, view classes); neither
has code of its own for the sharing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import perf
from repro.errors import AssumptionError
from repro.goodruns.assumptions import InitialAssumptions
from repro.obs import journal, spans
from repro.model.system import System
from repro.semantics.backend import (
    DEFAULT_BACKEND,
    SemanticsBackend,
    get_backend,
)
from repro.semantics.goodvectors import GoodRunVector
from repro.semantics.vector_eval import VectorTruth
from repro.terms.atoms import Principal
from repro.terms.formulas import Believes, Formula

#: Engines accepted by :func:`construct_good_runs`.
ENGINES = ("worklist", "naive")


@dataclass(frozen=True)
class ConstructionResult:
    """The constructed vector together with its intermediate stages.

    ``stages[j]`` is ``G^j``; ``stages[0]`` is the all-runs vector and
    ``stages[-1]`` equals ``vector``.
    """

    vector: GoodRunVector
    stages: tuple[GoodRunVector, ...]

    @property
    def depth(self) -> int:
        return len(self.stages) - 1


def _validate_assumptions(
    system: System, assumptions: InitialAssumptions
) -> None:
    """Reject assumption vectors mentioning non-system principals.

    Shared by the construction *and* the support checks
    (:func:`supports` / :func:`unsupported_assumptions` /
    :func:`refine_once`): a vector that silently "supports" assumptions
    about principals the system has never heard of is a trap, not an
    answer.
    """
    principals = system.principals()
    for principal in assumptions.principals:
        if principal not in principals:
            raise AssumptionError(
                f"assumptions mention {principal}, not a system principal"
            )


def construct_good_runs(
    system: System,
    assumptions: InitialAssumptions,
    pattern_hide: bool = False,
    engine: str = "worklist",
    backend: str = DEFAULT_BACKEND,
) -> ConstructionResult:
    """Run the paper's iterative construction over a finite system.

    ``backend`` names a semantics backend; both engines compile through
    it, so the belief bodies are judged by that backend's clause.
    """
    _validate_assumptions(system, assumptions)
    resolved = get_backend(backend)
    if engine == "worklist":
        return _construct_worklist(system, assumptions, pattern_hide,
                                   resolved)
    if engine == "naive":
        return _construct_naive(system, assumptions, pattern_hide, resolved)
    raise AssumptionError(
        f"unknown construction engine {engine!r}; expected one of {ENGINES}"
    )


def _construct_naive(
    system: System,
    assumptions: InitialAssumptions,
    pattern_hide: bool,
    backend: SemanticsBackend,
) -> ConstructionResult:
    """The literal G^j loop: a fresh per-vector compilation per stage."""
    all_names = frozenset(run.name for run in system.runs)
    current: dict[Principal, frozenset[str]] = {
        principal: all_names for principal in system.principals()
    }
    stages = [GoodRunVector.of(current)]

    for depth in range(1, assumptions.max_depth + 1):
        previous_vector = stages[-1]
        evaluator = backend.compile(system, previous_vector,
                                    pattern_hide=pattern_hide)
        updated: dict[Principal, frozenset[str]] = {}
        with spans.span("goodruns.stage", depth=depth,
                        engine="naive") as attrs:
            for principal in system.principals():
                good = current[principal]
                for formula in assumptions.stratum(principal, depth):
                    assert isinstance(formula, Believes)
                    body = formula.body
                    good = frozenset(
                        name
                        for name in sorted(good)
                        if evaluator.evaluate(body, system.run(name), 0)
                    )
                updated[principal] = good
            attrs["survivors"] = sum(len(good) for good in updated.values())
        current = updated
        stages.append(GoodRunVector.of(current))

    return ConstructionResult(stages[-1], tuple(stages))


def _filter_good(
    checker: VectorTruth,
    vector: GoodRunVector,
    body: Formula,
    good: frozenset[str],
) -> frozenset[str]:
    """``{ r ∈ good : (r, 0) |= body rel vector }``.

    The bitset fast path serves any body the compiler answers, provided
    every candidate run has a compiled time-0 point; otherwise the
    compilation at ``vector`` evaluates per run — including its error
    behaviour (missing time 0, unassigned parameters), in the same
    ``sorted(good)`` order as the naive engine.
    """
    bits = checker.truth_bits(body, vector)
    point_index = checker.compiled.point_index
    if bits is not None and all((name, 0) in point_index for name in good):
        perf.count("goodruns.body_bitset")
        return frozenset(
            name for name in sorted(good)
            if (bits >> point_index[(name, 0)]) & 1
        )
    perf.count("goodruns.body_fallback")
    system = checker.system
    evaluator = checker.at(vector)
    return frozenset(
        name for name in sorted(good)
        if evaluator.evaluate(body, system.run(name), 0)
    )


def _construct_worklist(
    system: System,
    assumptions: InitialAssumptions,
    pattern_hide: bool,
    backend: SemanticsBackend,
) -> ConstructionResult:
    """The G^j loop over one checker, skipping stages that cannot move."""
    checker = VectorTruth(system, pattern_hide=pattern_hide, backend=backend)
    all_names = frozenset(run.name for run in system.runs)
    principals = system.principals()
    current: dict[Principal, frozenset[str]] = {
        principal: all_names for principal in principals
    }
    stages = [GoodRunVector.of(current)]
    #: Once every good set is empty no stratum can change anything:
    #: the naive loop's filters run over empty sets from here on.
    bottomed = False

    for depth in range(1, assumptions.max_depth + 1):
        strata = {
            principal: assumptions.stratum(principal, depth)
            for principal in principals
        }
        if bottomed or not any(strata.values()):
            # A gap stage (or the bottom vector): G^j = G^{j-1} with no
            # evaluation at all.  The naive engine walks its (empty or
            # no-op) filters here; both append an equal vector.
            perf.count("goodruns.stage_skipped")
            journal.record("stage_skip", depth=depth,
                           bottomed=bottomed, engine="worklist")
            spans.event("goodruns.stage", depth=depth, engine="worklist",
                        skipped=True,
                        survivors=sum(len(g) for g in current.values()))
            stages.append(stages[-1])
            continue
        previous_vector = stages[-1]
        updated: dict[Principal, frozenset[str]] = {}
        with spans.span("goodruns.stage", depth=depth,
                        engine="worklist") as attrs:
            for principal in principals:
                good = current[principal]
                for formula in strata[principal]:
                    assert isinstance(formula, Believes)
                    good = _filter_good(
                        checker, previous_vector, formula.body, good
                    )
                    perf.count("goodruns.body_evaluated")
                updated[principal] = good
            attrs["survivors"] = sum(len(good) for good in updated.values())
            attrs["evaluated"] = sum(map(len, strata.values()))
        current = updated
        stages.append(GoodRunVector.of(current))
        bottomed = not any(current.values())

    return ConstructionResult(stages[-1], tuple(stages))


def refine_once(
    system: System,
    vector: GoodRunVector,
    assumptions: InitialAssumptions,
    pattern_hide: bool = False,
    backend: str = DEFAULT_BACKEND,
) -> GoodRunVector:
    """One application of *every* stratum relative to a fixed vector.

    ``refine_once(G) == G`` exactly when G is a fixpoint of the
    construction operator.  For the constructed vector this holds for
    every I1 vector: belief-free bodies are vector-independent, and I1
    confines beliefs to monotone positions (``And``/``Believes``/
    ``Controls`` — never under negation), so a body true relative to
    some ``G^{j-1} ⊇ G`` stays true relative to G.  The
    ``goodruns_construction`` fuzz family checks this mechanically.
    """
    _validate_assumptions(system, assumptions)
    checker = VectorTruth(system, pattern_hide=pattern_hide,
                          backend=get_backend(backend))
    all_names = frozenset(run.name for run in system.runs)
    updated: dict[Principal, frozenset[str]] = {}
    for principal in system.principals():
        good = vector.good_runs(principal)
        good = all_names if good is None else good
        for formula in assumptions.normalized.get(principal, ()):
            assert isinstance(formula, Believes)
            good = _filter_good(checker, vector, formula.body, good)
        updated[principal] = good
    return GoodRunVector.of(updated)


def supports(
    system: System,
    vector: GoodRunVector,
    assumptions: InitialAssumptions,
    pattern_hide: bool = False,
    backend: str = DEFAULT_BACKEND,
) -> bool:
    """``G supports I``: every assumption holds at every time-0 point of
    the system, relative to G (Section 7)."""
    return not unsupported_assumptions(
        system, vector, assumptions, pattern_hide, backend
    )


def unsupported_assumptions(
    system: System,
    vector: GoodRunVector,
    assumptions: InitialAssumptions,
    pattern_hide: bool = False,
    backend: str = DEFAULT_BACKEND,
) -> list[tuple[Principal, object, str]]:
    """The (principal, formula, run name) triples where support fails.

    A formula's whole-system bitset answers every run with a time-0
    point; a refused formula, or a run without one, is evaluated at
    (r, 0) with the interpreter's verdict and error.
    """
    _validate_assumptions(system, assumptions)
    evaluator = get_backend(backend).compile(
        system, vector, pattern_hide=pattern_hide
    )
    failures = []
    for principal, formula in assumptions.all_formulas():
        bits = evaluator.truth_bits(formula)
        for run in system.runs:
            index = evaluator.point_index.get((run.name, 0))
            if bits is None or index is None:
                holds = evaluator.evaluate(formula, run, 0)
            else:
                holds = (bits >> index) & 1
            if not holds:
                failures.append((principal, formula, run.name))
    return failures
