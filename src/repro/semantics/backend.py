"""Two semantics backends behind one seam.

The paper's belief semantics (Section 6) is one point in a family.
Halpern–van der Meyden–Pucella ("An Epistemic Foundation for
Authentication Logics") recast BAN-style belief as knowledge-based
semantics over the same runs-and-systems models, and the Shoham–Moses
*defensible knowledge* connection is already implemented in
:mod:`repro.goodruns.defensible`.  The library evaluates both readings:

* ``belief`` (:class:`BeliefBackend`, the default) — the paper's
  clause;
* ``epistemic`` (:class:`~repro.semantics.epistemic.EpistemicBackend`)
  — the guarded defensible-knowledge clause, which differs from the
  paper's in the ``Believes`` clause alone.

:class:`SemanticsBackend` is the seam every consumer — sweep, audit,
good-runs construction, tracing, fuzz oracles, serve daemon — goes
through.  A backend produces the two engine shapes the rest of the
library consumes:

* :meth:`SemanticsBackend.compile` — the context-cached, whole-system
  :class:`~repro.semantics.compiler.CompiledSystem` at no good-run
  vector or at one (the hot-loop shape, including the ``truth_bits``
  fast path the sweep and both good-runs engines use; a compilation at
  a vector shares the top compilation's tables);
* :meth:`SemanticsBackend.interpreter` — a per-point recursive
  evaluator with the :class:`~repro.semantics.evaluator.Evaluator`
  surface (the compiled engine's ``interpreter_class``), optionally
  carrying an explanation tracer.

The pair is fixed: :func:`get_backend` and :func:`backend_names`
resolve against the two built-ins directly.  An unknown name raises
:class:`~repro.errors.EngineError`, which the serve layer maps to a
clean 400.

The known theoretical relationship between the two — every formula
true under the ``epistemic`` reading is true under the paper's
``belief`` reading, for belief-positive formulas — is documented and
enforced in :mod:`repro.semantics.epistemic` and checked campaign-wide
by the ``cross_backend`` oracle in :mod:`repro.fuzz.oracles`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import EngineError
from repro.semantics.compiler import CompiledSystem, compiled_for
from repro.semantics.evaluator import Evaluator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.model.system import System
    from repro.obs.trace import Tracer
    from repro.semantics.goodvectors import GoodRunVector

#: The backend every knob defaults to: the paper's belief semantics.
DEFAULT_BACKEND = "belief"


class SemanticsBackend:
    """One truth definition, packaged for every consumer in the stack."""

    #: What CLIs and wire schemas accept.
    name: str = "abstract"
    #: The compiled engine class; its ``interpreter_class`` is the
    #: backend's per-point evaluator.
    engine: type[CompiledSystem] = CompiledSystem

    def compile(
        self,
        system: "System",
        goodruns: "GoodRunVector | None" = None,
        pattern_hide: bool = False,
    ) -> CompiledSystem:
        """The backend's compiled whole-system engine (context-cached)."""
        raise NotImplementedError

    def interpreter(
        self,
        system: "System",
        goodruns: "GoodRunVector | None" = None,
        pattern_hide: bool = False,
        tracer: "Tracer | None" = None,
    ) -> Evaluator:
        """A fresh per-point recursive evaluator for this backend."""
        return self.engine.interpreter_class(
            system, goodruns, pattern_hide=pattern_hide, tracer=tracer
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class BeliefBackend(SemanticsBackend):
    """The paper's semantics: the default, and the reference engine.

    ``compile`` is :func:`repro.semantics.compiler.compiled_for` (the
    context-cached bitset engine); ``interpreter`` is the recursive
    :class:`~repro.semantics.evaluator.Evaluator`.
    """

    name = "belief"

    def compile(
        self,
        system: "System",
        goodruns: "GoodRunVector | None" = None,
        pattern_hide: bool = False,
    ) -> CompiledSystem:
        return compiled_for(system, goodruns, pattern_hide=pattern_hide)


def _builtins() -> tuple[SemanticsBackend, ...]:
    # Local import: the epistemic module subclasses SemanticsBackend.
    from repro.semantics.epistemic import EpistemicBackend

    return BeliefBackend(), EpistemicBackend()


def get_backend(name: str = DEFAULT_BACKEND) -> SemanticsBackend:
    """The built-in backend called ``name``.

    Unknown names raise :class:`EngineError` listing the known backends
    — a :class:`~repro.errors.ReproError` subclass, so the serve layer
    maps it to a clean 400 rather than a 500.
    """
    for backend in _builtins():
        if backend.name == name:
            return backend
    raise EngineError(
        f"unknown semantics backend {name!r} "
        f"(known backends: {', '.join(backend_names())})"
    )


def backend_names() -> tuple[str, ...]:
    """The built-in backend names, sorted."""
    return tuple(sorted(backend.name for backend in _builtins()))
