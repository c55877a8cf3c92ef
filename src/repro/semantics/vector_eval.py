"""Truth bitsets over one system at any good-run vector.

The Theorem 2/3 machinery (:mod:`repro.goodruns`) keeps asking the same
question for *many* good-run vectors over one fixed system: the
``G^j`` iteration evaluates belief bodies against every intermediate
stage, and the brute-force optimality search evaluates every assumption
against every candidate vector.

:class:`VectorTruth` answers ``truth_bits(formula, vector)`` with the
backend's compilation at that vector,
:meth:`~repro.semantics.compiler.CompiledSystem.truth_bits`.  It has
no clause and no cache of its own: a compilation at a vector already
takes every table that does not read the vector (the leaves' bitsets,
the leaf indices, the view-class members) from the system's top
compilation, and computes only its connective, ``Controls``,
``ForAll`` and ``Believes`` nodes (:mod:`repro.semantics.compiler`).
The class stays as the construction's and the optimality search's
handle on one ``(system, pattern_hide, backend)``.
"""

from __future__ import annotations

from repro.model.system import System
from repro.semantics.backend import SemanticsBackend, get_backend
from repro.semantics.compiler import CompiledSystem
from repro.semantics.goodvectors import GoodRunVector
from repro.terms.formulas import Formula


class VectorTruth:
    """Truth bitsets over one system, at any good-run vector.

    Obtain per ``(system, pattern_hide, backend)``; query with any
    number of vectors.  Every compilation it answers with is the
    backend's context-cached one, so two ``VectorTruth`` instances in
    one session share them.
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

    def at(self, vector: GoodRunVector | None) -> CompiledSystem:
        """The backend's compilation at ``vector``."""
        return self.backend.compile(
            self.system, vector, pattern_hide=self.pattern_hide
        )

    def truth_bits(
        self, formula: Formula, vector: GoodRunVector | None
    ) -> int | None:
        """The formula's whole-system truth bitset relative to
        ``vector``, or ``None`` where the compiler refuses it (the
        caller evaluates point by point)."""
        return self.at(vector).truth_bits(formula)
