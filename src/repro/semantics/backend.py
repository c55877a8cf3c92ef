"""Pluggable semantics backends: one seam, many truth definitions.

The paper's belief semantics (Section 6) is one point in a family.
Halpern–van der Meyden–Pucella ("An Epistemic Foundation for
Authentication Logics") recast BAN-style belief as knowledge-based
semantics over the same runs-and-systems models, and the Shoham–Moses
*defensible knowledge* connection is already implemented in
:mod:`repro.goodruns.defensible`.  Before this module every consumer —
interpreter, compiler, sweep, audit, good-runs construction, fuzz
oracles, serve daemon — was hard-wired to the single belief evaluator.

:class:`SemanticsBackend` is the seam.  A backend knows how to produce
the two engine shapes the rest of the library consumes:

* :meth:`SemanticsBackend.compile` — a compiled, whole-system engine
  with the ``evaluate(formula, run, k)`` / ``holds(formula, point)`` /
  ``truth_bits(formula)`` surface of
  :class:`~repro.semantics.compiler.CompiledSystem` (the hot-loop
  shape);
* :meth:`SemanticsBackend.interpreter` — a per-point recursive
  evaluator with the :class:`~repro.semantics.evaluator.Evaluator`
  surface, optionally carrying an explanation tracer.

plus capability flags so callers can keep their fast paths honest:

* ``supports_tracing`` — the backend can attach a
  :class:`repro.obs.trace.Tracer` and emit why-false trees;
* ``supports_vector_eval`` — the backend's belief clause matches the
  bitset algebra of :mod:`repro.semantics.vector_eval`, so the
  good-runs worklist engine may use :class:`VectorTruth` against it.
  Backends without this flag force the construction onto the stage-by-
  stage compiled path (still correct, just not incremental).

The registry is **context-owned** (``EngineContext.backends``, built
lazily like ``ctx.journal``): no module-level mutable registry, per the
``tools/lint_globals.py`` discipline.  Duplicate registration is a
conflict (:class:`~repro.errors.EngineError`) unless ``replace=True``
is passed explicitly — which is also the sanctioned hook for tests that
plant a buggy backend to prove the ``cross_backend`` fuzz oracle
catches it.

The known theoretical relationship between the built-ins — every
formula true under the ``epistemic`` backend's defensible-knowledge
reading is true under the paper's ``belief`` reading, for
belief-positive formulas — is documented and enforced in
:mod:`repro.semantics.epistemic` and checked campaign-wide by the
``cross_backend`` oracle in :mod:`repro.fuzz.oracles`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro import context as _context
from repro.errors import EngineError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.model.system import Point, System
    from repro.obs.trace import Tracer
    from repro.semantics.compiler import CompiledSystem
    from repro.semantics.evaluator import Evaluator
    from repro.semantics.goodvectors import GoodRunVector
    from repro.terms.formulas import Formula

#: The backend every knob defaults to: the paper's belief semantics.
DEFAULT_BACKEND = "belief"


class SemanticsBackend:
    """One truth definition, packaged for every consumer in the stack.

    Subclasses set ``name`` and the capability flags as class
    attributes and implement :meth:`compile` and :meth:`interpreter`.
    The objects they return must present the shared engine surface
    (``evaluate(formula, run, k)`` and ``holds(formula, point)``); a
    compiled engine should additionally be a
    :class:`~repro.semantics.compiler.CompiledSystem` (or subclass) if
    it wants the sweep's bitset fast path.
    """

    #: Registry key; also what CLIs/wire schemas accept.
    name: str = "abstract"
    #: Whether :meth:`interpreter` honours a ``tracer`` argument.
    supports_tracing: bool = False
    #: Whether the belief clause matches ``vector_eval``'s algebra.
    supports_vector_eval: bool = False

    def compile(
        self,
        system: "System",
        goodruns: "GoodRunVector | None" = None,
        pattern_hide: bool = False,
    ) -> "CompiledSystem":
        """The backend's compiled whole-system engine (context-cached)."""
        raise NotImplementedError

    def interpreter(
        self,
        system: "System",
        goodruns: "GoodRunVector | None" = None,
        pattern_hide: bool = False,
        tracer: "Tracer | None" = None,
    ) -> "Evaluator":
        """A fresh per-point recursive evaluator for this backend."""
        raise NotImplementedError

    def evaluate(
        self,
        system: "System",
        formula: "Formula",
        point: "Point",
        goodruns: "GoodRunVector | None" = None,
        pattern_hide: bool = False,
    ) -> bool:
        """Convenience: one verdict via the compiled engine."""
        run, k = point
        return self.compile(
            system, goodruns, pattern_hide=pattern_hide
        ).evaluate(formula, run, k)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class BeliefBackend(SemanticsBackend):
    """The paper's semantics: the default, and the reference engine.

    ``compile`` is :func:`repro.semantics.compiler.compiled_for` (the
    context-cached bitset engine); ``interpreter`` is the recursive
    :class:`~repro.semantics.evaluator.Evaluator`.  This backend is the
    only one whose belief clause the vector-eval algebra reproduces, so
    it alone advertises ``supports_vector_eval``.
    """

    name = "belief"
    supports_tracing = True
    supports_vector_eval = True

    def compile(
        self,
        system: "System",
        goodruns: "GoodRunVector | None" = None,
        pattern_hide: bool = False,
    ) -> "CompiledSystem":
        from repro.semantics.compiler import compiled_for

        return compiled_for(system, goodruns, pattern_hide=pattern_hide)

    def interpreter(
        self,
        system: "System",
        goodruns: "GoodRunVector | None" = None,
        pattern_hide: bool = False,
        tracer: "Tracer | None" = None,
    ) -> "Evaluator":
        from repro.semantics.evaluator import Evaluator

        return Evaluator(
            system, goodruns, pattern_hide=pattern_hide, tracer=tracer
        )


class BackendRegistry:
    """Name → backend table, owned by one :class:`EngineContext`.

    Obtain the current session's registry through
    ``context.current().backends`` (or the :func:`get_backend` /
    :func:`backend_names` helpers); never hold one at module level.
    """

    __slots__ = ("_backends",)

    def __init__(self) -> None:
        self._backends: dict[str, SemanticsBackend] = {}

    def register(
        self, backend: SemanticsBackend, replace: bool = False
    ) -> SemanticsBackend:
        """Add a backend under its ``name``.

        Duplicate names are a conflict (:class:`EngineError`) unless
        ``replace=True`` — the explicit opt-in for tests that shadow a
        built-in (e.g. planting a buggy ``epistemic`` in a fresh
        context to prove the cross-backend oracle catches it).
        """
        name = backend.name
        if not name or not isinstance(name, str):
            raise EngineError(
                f"semantics backend {backend!r} has no usable name"
            )
        if not replace and name in self._backends:
            raise EngineError(
                f"semantics backend {name!r} is already registered in this "
                "context (pass replace=True to shadow it deliberately)"
            )
        self._backends[name] = backend
        return backend

    def get(self, name: str) -> SemanticsBackend:
        """The backend registered under ``name``.

        Unknown names raise :class:`EngineError` listing the known
        backends — a :class:`~repro.errors.ReproError` subclass, so the
        serve layer maps it to a clean 400 rather than a 500.
        """
        backend = self._backends.get(name)
        if backend is None:
            known = ", ".join(sorted(self._backends)) or "none"
            raise EngineError(
                f"unknown semantics backend {name!r} (known backends: {known})"
            )
        return backend

    def names(self) -> tuple[str, ...]:
        """The registered backend names, sorted."""
        return tuple(sorted(self._backends))

    def __contains__(self, name: object) -> bool:
        return name in self._backends

    def __len__(self) -> int:
        return len(self._backends)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BackendRegistry {sorted(self._backends)}>"


def default_registry() -> BackendRegistry:
    """A fresh registry holding the built-in backends.

    Called (lazily, once per context) by ``EngineContext.backends``;
    the import of the epistemic backend is local so the context module
    stays at the bottom of the import stack.
    """
    from repro.semantics.epistemic import EpistemicBackend

    registry = BackendRegistry()
    registry.register(BeliefBackend())
    registry.register(EpistemicBackend())
    return registry


def get_backend(name: str = DEFAULT_BACKEND) -> SemanticsBackend:
    """Resolve a backend name against the current context's registry."""
    return _context.current().backends.get(name)


def backend_names() -> tuple[str, ...]:
    """The current context's registered backend names."""
    return _context.current().backends.names()
