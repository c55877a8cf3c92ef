"""The ``epistemic`` backend: belief as guarded defensible knowledge.

Halpern–van der Meyden–Pucella's program ("An Epistemic Foundation for
Authentication Logics") reads BAN-style belief as a *knowledge-based*
notion over the same runs-and-systems models: instead of the paper's
primitive good-run vector clause, ``P believes φ`` is defined from the
knowledge operator ``K_P`` (truth at every hidden-view-indistinguishable
point) plus the principal's operating assumption α — here, "the current
run is one of P's good runs".  This module implements that reading as a
second :class:`~repro.semantics.backend.SemanticsBackend`, sharing the
hiding kernels, the dense-bitset compiler, and every non-belief clause
with the default ``belief`` backend, so the two differ in exactly one
clause and nothing else.

**The truth definition.**  Following the *guarded* Shoham–Moses form
already exhibited in :mod:`repro.goodruns.defensible`::

    B_P(φ, α)  =  K_P(α ⊃ φ)  ∧  (K_P ¬α ⊃ K_P φ)

with α(r) = "r ∈ G_P".  Operationally, at a point (r, k):

* let ``possible`` be every point of the system indistinguishable from
  (r, k) under P's hidden view (runs where P has local state);
* let ``good_possible = possible ∩ {points of P's good runs}`` — this
  is exactly the paper's possibility set;
* if ``good_possible`` is non-empty, require φ at each of its points —
  this is ``K_P(α ⊃ φ)``, which coincides with the paper's belief
  clause;
* if ``good_possible`` is empty, P *knows* its assumptions are violated
  (``K_P ¬α``); the guard then demands full knowledge: φ at **every**
  point of ``possible``.

**The containment theorem.**  Where the paper's belief clause is
vacuously true (empty possibility set — "an agent that knows its
assumptions are violated believes everything", the property Shoham and
Moses call rather strange), the guarded clause demands knowledge.
Everywhere else the two clauses are pointwise identical.  Hence at
every point and for every body φ::

    epistemic ⊨ (r,k) P believes φ   ⟹   belief ⊨ (r,k) P believes φ

i.e. the defensible-knowledge beliefs are *contained in* the paper's
beliefs — holding a belief under the epistemic backend is the stronger
claim.  The implication lifts from the ``Believes`` clause to every
formula in which belief occurs only positively (no ``Believes`` under
an odd number of negations — :func:`repro.terms.ops.has_belief_under_negation`
is the syntactic check), because all other clauses are shared and the
connectives are monotone in positive positions.  Belief-free formulas
agree exactly.  The ``cross_backend`` fuzz oracle
(:mod:`repro.fuzz.oracles`) holds campaigns to precisely this map:
*belief-true/epistemic-false* is an expected, theorem-consistent
disagreement; *epistemic-true/belief-false* on a belief-positive
formula is a counterexample.

**Engineering shape.**  :class:`EpistemicEvaluator` subclasses the
interpreter and overrides only ``_believes``; its knowledge set comes
from the inherited view-index builder over *all* runs.
:class:`CompiledEpistemicSystem` subclasses the bitset compiler,
overrides only :meth:`~repro.semantics.compiler.CompiledSystem.belief_bits`
and names its interpreter class.  The compiler's per-view-class
``(members, possible)`` pairs already carry both sets — ``members`` is
the knowledge set (under the compiler's uniform-principal gate
every member point is indistinguishable to P), ``possible`` is the
good-run subset — so the guarded clause is *still one subset test per
view class*.  Every caller of the belief check gets the guarded clause
with it: the sweep's whole-system ``truth_bits`` fast path, and
:class:`~repro.semantics.vector_eval.VectorTruth`, which compiles its
top system through this backend, so the good-runs worklist engine
serves it too.
"""

from __future__ import annotations

from repro.model.runs import Run
from repro.model.system import Point, System
from repro.semantics.backend import SemanticsBackend
from repro.semantics.compiler import CompiledSystem, compiled_for
from repro.semantics.evaluator import Evaluator
from repro.semantics.goodvectors import GoodRunVector
from repro.terms.atoms import Principal
from repro.terms.formulas import Formula


class EpistemicEvaluator(Evaluator):
    """The interpreter with belief read as guarded defensible knowledge.

    Everything except the ``Believes`` clause — hiding, seeing, saying,
    freshness, key goodness, quantification, memoization, tracing — is
    inherited byte-for-byte from :class:`Evaluator`.
    """

    def knowledge_points(
        self, principal: Principal, run: Run, k: int
    ) -> tuple[Point, ...]:
        """The points (r', k') with (r, k) ~_P (r', k'), all runs."""
        return self._view_class(principal, run, k, None)

    def _believes(
        self, principal: Principal, body: Formula, run: Run, k: int
    ) -> bool:
        """B_P(φ, α) = K_P(α ⊃ φ) ∧ (K_P ¬α ⊃ K_P φ), α = "run is good".

        The inherited ``possible_points`` *is* the α-satisfying subset
        of the knowledge set; when it is non-empty the guard is moot
        and the clause coincides with the paper's.  When it is empty
        the paper's clause is vacuous and the guard demands knowledge.
        """
        points = self.possible_points(principal, run, k) or (
            self.knowledge_points(principal, run, k)
        )
        for other_run, other_k in points:
            if not self._eval(body, other_run, other_k):
                return False
        return True


class CompiledEpistemicSystem(CompiledSystem):
    """The bitset compiler with the guarded belief clause.

    A :class:`CompiledSystem` subclass on purpose: the soundness
    sweep's fast path (``isinstance(engine, CompiledSystem)`` →
    ``truth_bits`` against ``full_mask``) and ``VectorTruth`` apply to
    this backend without a special case.
    """

    interpreter_class = EpistemicEvaluator

    def belief_bits(self, principal: Principal, body_bits: int,
                    mask: int) -> int:
        """The guarded clause per view class: under the compiler's
        uniform-principal gate ``members`` is the principal's knowledge
        set, and ``possible & mask`` its good-run (α) subset."""
        bits = 0
        for members, possible in self._belief_groups_for(principal):
            # Non-empty α-subset: K_P(α ⊃ φ), identical to belief.
            # Empty: the guard K_P¬α ⊃ K_Pφ bites — subset-test the
            # whole view class (the knowledge set) instead.
            target = possible & mask or members
            if target & body_bits == target:
                bits |= members
        return bits


class EpistemicBackend(SemanticsBackend):
    """The epistemic semantics, packaged for every consumer.

    Compiled engines are cached on the same context-owned
    ``ctx.compiled_systems`` memo as the belief backend's; the engine
    class is part of the cache key, so the two never alias.
    """

    name = "epistemic"
    engine = CompiledEpistemicSystem

    def compile(
        self,
        system: System,
        goodruns: GoodRunVector | None = None,
        pattern_hide: bool = False,
    ) -> CompiledSystem:
        return compiled_for(
            system, goodruns, pattern_hide=pattern_hide, engine=self.engine
        )
