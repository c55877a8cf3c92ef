"""Vector-parameterized truth bitsets: the good-runs fixpoint kernel.

The Theorem 2/3 machinery (:mod:`repro.goodruns`) keeps asking the same
question for *many* good-run vectors over one fixed system: the
``G^j`` iteration evaluates belief bodies against every intermediate
stage, and the brute-force optimality search evaluates every assumption
against every candidate vector.  Compiling a fresh
:class:`~repro.semantics.compiler.CompiledSystem` per vector redoes all
the work that does not depend on the vector at all:

* **belief-free subformulas** — their truth bitsets never mention good
  runs; one computation serves every vector;
* **hidden-view classes** — which points share a principal's view is a
  property of the system, not of the vector; only the *possibility*
  mask (``class ∩ good runs``) moves.

:class:`VectorTruth` compiles the system **once**, through the
semantics backend it is given (at the top vector, where every run is
good), and answers ``truth_bits(formula, vector)`` for arbitrary
vectors by re-masking: ``Believes(P, φ)`` is the top compilation's own
belief check, :meth:`~repro.semantics.compiler.CompiledSystem.belief_bits`,
with each view class's possibility set masked by ``good_mask(P)`` — the
union of the run masks of ``P``'s good runs under the query vector.
Under the ``belief`` backend a class holds iff
``(class_possible & good_mask(P)) ⊆ bits(φ)``; the ``epistemic``
engine's override of the same method supplies its guarded clause, so
one checker serves both backends.  Results are cached per
``(formula, dependency signature)`` where the signature records only
the good sets of principals whose beliefs actually occur in the
formula — so a stage of the fixpoint that shrank ``P``'s good set
invalidates only the formulas that mention ``P``'s beliefs.

**Fidelity.**  Like the compiled engine this is a fast path, not a
second semantics: a formula the compiled engine cannot handle
(non-uniform principals, parameters, unknown shapes) yields ``None``
and the caller falls back to the backend's compiled engine at the
actual vector.  The compiled ``Believes`` nodes call the same
``belief_bits`` with ``full_mask``, so verdicts are byte-identical by
construction; the ``goodruns_construction`` fuzz family holds the fast
and slow paths together across campaigns.
"""

from __future__ import annotations

from repro import perf
from repro.model.system import System
from repro.semantics.backend import SemanticsBackend, get_backend
from repro.semantics.compiler import CompiledSystem
from repro.semantics.goodvectors import GoodRunVector
from repro.terms.atoms import Principal
from repro.terms.formulas import (
    And,
    Believes,
    ForAll,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
)
from repro.terms.ops import is_ground, walk

#: Cache sentinel: distinguishes "cached as uncompilable" from "absent".
_MISSING = object()


class VectorTruth:
    """Truth bitsets over one system, parameterized by good-run vector.

    Obtain per ``(system, pattern_hide, backend)``; query with any
    number of vectors.  The underlying compiled system is the
    backend's context-cached top compilation, so two ``VectorTruth``
    instances in one session share the belief-free bitsets and view
    classes.
    """

    def __init__(
        self,
        system: System,
        pattern_hide: bool = False,
        backend: SemanticsBackend | None = None,
    ) -> None:
        self.system = system
        self.pattern_hide = pattern_hide
        self.backend = backend if backend is not None else get_backend()
        #: The top compilation: every run good for every principal.
        self.compiled: CompiledSystem = self.backend.compile(
            system, None, pattern_hide=pattern_hide
        )
        #: ``(formula, dep signature) -> bits | None``.
        self._bits: dict[tuple, object] = {}
        #: ``formula -> frozenset[Principal] | None`` (None: unanalyzable).
        self._deps: dict[Formula, frozenset[Principal] | None] = {}
        #: ``(principal, good set) -> mask`` — good-run masks per query.
        self._good_masks: dict[tuple, int] = {}
        self._time0: int | None | object = _MISSING

    # -- structure ------------------------------------------------------------

    def deps(self, formula: Formula) -> frozenset[Principal] | None:
        """Principals whose good sets the formula's truth can depend on.

        ``None`` means the dependency set cannot be bounded statically
        (a belief whose subject is not a plain principal, or a belief
        under a quantifier) — callers must fall back to the
        interpreter.
        """
        cached = self._deps.get(formula, _MISSING)
        if cached is not _MISSING:
            return cached  # type: ignore[return-value]
        principals: set[Principal] = set()
        value: frozenset[Principal] | None = frozenset()
        has_belief = False
        for node in walk(formula):
            if isinstance(node, Believes):
                has_belief = True
                if not isinstance(node.principal, Principal):
                    value = None
                    break
                principals.add(node.principal)
        if value is not None:
            if has_belief and any(
                isinstance(node, ForAll) for node in walk(formula)
            ):
                # Quantifier expansion could substitute belief subjects.
                value = None
            else:
                value = frozenset(principals)
        self._deps[formula] = value
        return value

    def run_mask(self, name: str) -> int:
        return self.compiled.run_mask(name)

    def time0_mask(self) -> int | None:
        """The mask of every run's time-0 point (None if a run has no
        time 0 — callers then take the interpreter's error path)."""
        if self._time0 is _MISSING:
            mask = 0
            for run in self.system.runs:
                index = self.compiled.point_index.get((run.name, 0))
                if index is None:
                    mask = None
                    break
                mask |= 1 << index
            self._time0 = mask
        return self._time0  # type: ignore[return-value]

    def good_mask(self, principal: Principal, vector: GoodRunVector) -> int:
        """The point mask of the principal's good runs under ``vector``."""
        good = vector.good_runs(principal)
        if good is None:
            return self.compiled.full_mask
        key = (principal, good)
        cached = self._good_masks.get(key)
        if cached is None:
            cached = 0
            for name in good:
                # Names outside the system contribute no points, exactly
                # as in the interpreter's possibility filter.
                cached |= self.compiled.run_mask(name)
            self._good_masks[key] = cached
        return cached

    # -- truth ----------------------------------------------------------------

    def _signature(
        self,
        formula: Formula,
        deps: frozenset[Principal],
        vector: GoodRunVector,
    ) -> tuple:
        return (
            formula,
            tuple(
                (principal, vector.good_runs(principal))
                for principal in sorted(deps, key=lambda p: p.name)
            ),
        )

    def is_cached(self, formula: Formula, vector: GoodRunVector) -> bool:
        """Whether :meth:`truth_bits` would be answered from cache
        (used by the construction's evaluated/reused accounting)."""
        if not is_ground(formula):
            return False
        deps = self.deps(formula)
        if deps is None:
            return False
        if not deps:
            return formula in self.compiled._nodes
        return self._signature(formula, deps, vector) in self._bits

    def truth_bits(
        self, formula: Formula, vector: GoodRunVector
    ) -> int | None:
        """The formula's whole-system truth bitset relative to
        ``vector``, or ``None`` when the fast path cannot answer
        faithfully (fall back to the interpreter)."""
        if not is_ground(formula):
            return None
        deps = self.deps(formula)
        if deps is None:
            return None
        if not deps:
            # Belief-free: vector-independent, shared across all queries.
            return self.compiled.truth_bits(formula)
        signature = self._signature(formula, deps, vector)
        cached = self._bits.get(signature, _MISSING)
        if cached is not _MISSING:
            perf.count("vector_truth.hit")
            return cached  # type: ignore[return-value]
        perf.count("vector_truth.miss")
        bits = self._compute(formula, vector)
        self._bits[signature] = bits
        return bits

    def _compute(self, formula: Formula, vector: GoodRunVector) -> int | None:
        full = self.compiled.full_mask
        if isinstance(formula, Believes):
            principal = formula.principal
            if not isinstance(principal, Principal):
                return None
            if not self.compiled.uniform_principal(principal):
                return None
            body_bits = self.truth_bits(formula.body, vector)
            if body_bits is None:
                return None
            return self.compiled.belief_bits(
                principal, body_bits, self.good_mask(principal, vector)
            )
        if isinstance(formula, And):
            left = self.truth_bits(formula.left, vector)
            right = self.truth_bits(formula.right, vector)
            if left is None or right is None:
                return None
            return left & right
        if isinstance(formula, Or):
            left = self.truth_bits(formula.left, vector)
            right = self.truth_bits(formula.right, vector)
            if left is None or right is None:
                return None
            return left | right
        if isinstance(formula, Not):
            body = self.truth_bits(formula.body, vector)
            if body is None:
                return None
            return full ^ body
        if isinstance(formula, Implies):
            antecedent = self.truth_bits(formula.antecedent, vector)
            consequent = self.truth_bits(formula.consequent, vector)
            if antecedent is None or consequent is None:
                return None
            return (full ^ antecedent) | consequent
        if isinstance(formula, Iff):
            left = self.truth_bits(formula.left, vector)
            right = self.truth_bits(formula.right, vector)
            if left is None or right is None:
                return None
            return full ^ (left ^ right)
        # A belief under any other connective (Controls, quantifiers):
        # leave it to the interpreter rather than guess.
        return None
