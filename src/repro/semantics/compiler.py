"""Compiled evaluation: the truth definition, flattened per system.

The recursive :class:`~repro.semantics.evaluator.Evaluator` re-matches
the same formula ASTs structurally at every point — for sweep-shaped
workloads (many instances × every point of the system) more than half
the work is dispatch and memo-key hashing.  This module compiles each
formula **once** per ``(system, goodruns, pattern_hide)`` into a tree
of closures whose unit of evaluation is the *whole system*:

* Points are numbered into dense ints (``system.points()`` order), so
  a truth value over the system is a single Python-int **bitset** —
  bit ``i`` is the verdict at point ``i``.
* Connectives become direct bitwise ops on those ints (``&``, ``|``,
  ``^``) — no ``match`` re-dispatch, no per-point memo lookups.
* ``Sees``/``Said``/``Says``/``Fresh`` and the key-goodness clauses
  bind their precomputed ``_seen_set``/``_said_entries``/
  ``_past_submsgs`` tables at compile time and emit their truth
  vector in one pass over the points.
* ``Believes`` precomputes the principal's possibility index: points
  are grouped by hidden view, every view class is a bitset, and the
  belief check collapses to one subset test per class
  (``class & body == class``) — the per-(formula, viewclass) memo the
  interpreter's per-point loop could never amortize.  That check is
  one method, :meth:`CompiledSystem.belief_bits`, with the possibility
  sets masked by a good-run mask: compiled nodes pass ``full_mask``,
  :class:`~repro.semantics.vector_eval.VectorTruth` the mask of its
  query vector, and the epistemic engine overrides only this method.
* ``ForAll`` expands over the vocabulary at compile time.

Compiled nodes are cached per *interned* formula, so schema instances
sharing subformulas share both the closures and their computed bitsets.

**Fidelity.**  The compiler is a fast path, not a second semantics:
anything it cannot compile with byte-identical behaviour — a formula
mentioning a principal without local state in some run (where the
interpreter's error behaviour is point- and order-dependent), an
unknown connective, a malformed ``pk(...)`` — falls back to a private
interpreter (``interpreter_class``) sharing the same parameters.
Tracing always takes the interpreter
(:meth:`CompiledSystem.evaluate_traced`): trace fidelity is cheaper to
inherit than to re-emit.  The
``compiled_vs_interpreted`` fuzz oracle (:mod:`repro.fuzz.oracles`)
holds the two engines byte-identical across campaigns.

Compiled state is session-owned: :func:`compiled_for` caches
``CompiledSystem`` instances on the current
:class:`~repro.context.EngineContext` (``ctx.compiled_systems``), and
the ``compiled_eval`` perf layer reports compile-cache hits/misses and
registers with ``perf.clear_caches``/``cache_sizes`` like every other
memoization layer.
"""

from __future__ import annotations

from typing import Callable

from repro import context as _context
from repro import perf
from repro.errors import SemanticsError
from repro.model.runs import Run
from repro.model.system import Point, System
from repro.semantics.evaluator import Evaluator
from repro.semantics.goodvectors import GoodRunVector
from repro.terms.atoms import Principal, PublicKey
from repro.terms.base import Message
from repro.terms.formulas import (
    And,
    Believes,
    Controls,
    ForAll,
    Formula,
    Fresh,
    Has,
    Iff,
    Implies,
    Not,
    Or,
    Prim,
    PublicKeyOf,
    Said,
    Says,
    Sees,
    SharedKey,
    SharedSecret,
    Truth,
)
from repro.terms.messages import Combined, Encrypted
from repro.terms.ops import free_parameters, is_ground, substitute

#: A compiled node: a zero-argument closure returning the formula's
#: truth bitset over the system's dense point numbering (memoized).
BitsFn = Callable[[], int]


def _clear_compiled() -> None:
    _context.current().compiled_systems.clear()


def _compiled_size() -> int:
    return sum(
        len(compiled._nodes)
        for compiled in _context.current().compiled_systems.values()
    )


perf.register_cache("compiled_eval", _clear_compiled, _compiled_size)


class CompiledSystem:
    """Formulas compiled against one ``(system, goodruns, pattern_hide)``.

    Presents the same ``evaluate(formula, run, k)`` / ``holds(formula,
    point)`` surface as :class:`Evaluator`, so the hot loops (soundness
    sweep, engine-replay audit, good-runs support checks) adopt it
    without restructuring.  Obtain instances through
    :func:`compiled_for`, which caches them on the current engine
    context.
    """

    #: The recursive evaluator with this engine's truth definition: the
    #: fallback for unsupported shapes and foreign points, and the tracer.
    interpreter_class: type[Evaluator] = Evaluator

    def __init__(
        self,
        system: System,
        goodruns: GoodRunVector | None = None,
        pattern_hide: bool = False,
    ) -> None:
        self.system = system
        self.goodruns = goodruns or GoodRunVector()
        self.pattern_hide = pattern_hide
        #: Dense point numbering, in ``system.points()`` order.
        self.points: tuple[Point, ...] = tuple(system.points())
        self.point_index: dict[tuple[str, int], int] = {
            (run.name, k): i for i, (run, k) in enumerate(self.points)
        }
        #: All-points mask: the truth vector of ``Truth()``.
        self.full_mask: int = (1 << len(self.points)) - 1
        #: Per-run masks (``Fresh``/key-goodness are run-level facts).
        self._run_masks: dict[str, int] = {}
        for i, (run, _k) in enumerate(self.points):
            self._run_masks[run.name] = (
                self._run_masks.get(run.name, 0) | (1 << i)
            )
        #: Compiled nodes, keyed by (interned) ground formula.
        self._nodes: dict[Formula, BitsFn] = {}
        #: Supportedness verdicts, keyed by formula.
        self._support: dict[Formula, bool] = {}
        #: Principal uniformity (state in every run), keyed by principal.
        self._uniform: dict[Principal, bool] = {}
        #: Belief groups per principal: tuple of (members, possible) bit
        #: pairs — one entry per hidden-view class.
        self._belief_groups: dict[Principal, tuple[tuple[int, int], ...]] = {}
        self._interpreter: Evaluator | None = None

    # -- public API -----------------------------------------------------------

    @property
    def interpreter(self) -> Evaluator:
        """The fallback interpreter (also the table-building kernel).

        Sharing the interpreter's memoized ``_seen_set``/
        ``_said_entries``/``_past_submsgs``/``_hidden_view`` kernels
        keeps the compiled tables byte-identical to the interpreted
        semantics by construction.
        """
        if self._interpreter is None:
            self._interpreter = self.interpreter_class(
                self.system, self.goodruns, pattern_hide=self.pattern_hide
            )
        return self._interpreter

    def evaluate(self, formula: Formula, run: Run, k: int) -> bool:
        """``(r, k) |= φ`` — same contract as :meth:`Evaluator.evaluate`."""
        if not isinstance(formula, Formula):
            raise SemanticsError(f"cannot evaluate non-formula {formula!r}")
        if not is_ground(formula):
            parameters = free_parameters(formula)
            assignment = {
                parameter: run.param_map[parameter]
                for parameter in parameters
                if parameter in run.param_map
            }
            formula = substitute(formula, assignment)  # type: ignore[assignment]
            left_over = free_parameters(formula)
            if left_over:
                missing = ", ".join(sorted(p.name for p in left_over))
                raise SemanticsError(
                    f"run {run.name!r} assigns no value to parameter(s) {missing}"
                )
        if not run.has_time(k):
            raise SemanticsError(f"time {k} outside run {run.name!r}")
        index = self.point_index.get((run.name, k))
        if index is None:
            # A point outside the compiled system (foreign run): the
            # interpreter handles it with its per-point machinery.
            perf.count("compiled_eval.fallback")
            return self.interpreter._eval(formula, run, k)
        bits = self.truth_bits(formula)
        if bits is None:
            return self.interpreter._eval(formula, run, k)
        return bool((bits >> index) & 1)

    def holds(self, formula: Formula, point: Point) -> bool:
        run, k = point
        return self.evaluate(formula, run, k)

    def evaluate_traced(self, formula: Formula, run: Run, k: int, tracer) -> bool:
        """Evaluate with an explanation tracer attached.

        Tracing runs through a fresh interpreter sharing this compiled
        system's parameters: the trace records are identical to the
        interpreted engine's by construction (cheaper than teaching
        every compiled closure to emit them).
        """
        traced = self.interpreter_class(
            self.system, self.goodruns,
            pattern_hide=self.pattern_hide, tracer=tracer,
        )
        return traced.evaluate(formula, run, k)

    def truth_bits(self, formula: Formula) -> int | None:
        """The formula's whole-system truth bitset, or ``None`` when the
        formula cannot be compiled faithfully (caller should fall back).

        The formula must be ground (callers go through
        :meth:`evaluate`, which substitutes parameters first).
        """
        # Journal only the *first* verdict per formula shape (the
        # support memo makes "first" cheap to detect): the flight
        # recorder wants "this shape fell back", not one event per
        # point of a hot loop.
        known = formula in self._support
        if not self._supported(formula):
            perf.count("compiled_eval.fallback")
            if not known:
                from repro.obs import journal

                journal.record(
                    "fallback", engine="compiled",
                    formula=str(formula)[:160],
                )
            return None
        node = self._nodes.get(formula)
        if node is not None:
            perf.count("compiled_eval.hit")
        else:
            perf.count("compiled_eval.miss")
            node = self._build(formula)
            self._nodes[formula] = node
        return node()

    def run_mask(self, name: str) -> int:
        """The point mask of one run (0 for a name not in the system)."""
        return self._run_masks.get(name, 0)

    def uniform_principal(self, term: Message) -> bool:
        """Whether ``term`` is a principal with state in every run."""
        return self._uniform_principal(term)

    def cache_stats(self) -> dict[str, int]:
        """Sizes of this compiled system's internal tables."""
        return {
            "compiled_nodes": len(self._nodes),
            "support_entries": len(self._support),
            "belief_groups": sum(
                len(groups) for groups in self._belief_groups.values()
            ),
            "points": len(self.points),
        }

    # -- supportedness --------------------------------------------------------

    def _uniform_principal(self, term: Message) -> bool:
        """True iff ``term`` is a principal with local state in every run
        (so no point of the system can raise on a state lookup)."""
        if not isinstance(term, Principal):
            return False
        cached = self._uniform.get(term)
        if cached is None:
            cached = all(
                term == run.environment or run.is_system_principal(term)
                for run in self.system.runs
            )
            self._uniform[term] = cached
        return cached

    def _supported(self, formula: Formula) -> bool:
        """Whether the compiled path reproduces the interpreter exactly.

        Anything where the interpreter's behaviour is point-dependent in
        a way wholesale evaluation cannot honour (state-missing
        principals whose errors interact with connective
        short-circuiting, malformed ``pk``, unknown nodes) is left to
        the interpreter.
        """
        cached = self._support.get(formula)
        if cached is not None:
            return cached
        value = self._supported_uncached(formula)
        self._support[formula] = value
        return value

    def _supported_uncached(self, formula: Formula) -> bool:
        if isinstance(formula, (Truth, Prim, Fresh)):
            return True
        if isinstance(formula, Not):
            return self._supported(formula.body)
        if isinstance(formula, And):
            return self._supported(formula.left) and self._supported(formula.right)
        if isinstance(formula, Or):
            return self._supported(formula.left) and self._supported(formula.right)
        if isinstance(formula, Implies):
            return (
                self._supported(formula.antecedent)
                and self._supported(formula.consequent)
            )
        if isinstance(formula, Iff):
            return self._supported(formula.left) and self._supported(formula.right)
        if isinstance(formula, (Sees, Said, Says)):
            return self._uniform_principal(formula.principal)
        if isinstance(formula, Has):
            return self._uniform_principal(formula.principal)
        if isinstance(formula, (Controls, Believes)):
            return self._uniform_principal(formula.principal) and self._supported(
                formula.body
            )
        if isinstance(formula, (SharedKey, SharedSecret)):
            return isinstance(formula.left, Principal) and isinstance(
                formula.right, Principal
            )
        if isinstance(formula, PublicKeyOf):
            return isinstance(formula.principal, Principal) and isinstance(
                formula.key, PublicKey
            )
        if isinstance(formula, ForAll):
            constants = self.system.vocabulary.constants(
                formula.variable.value_sort
            )
            return all(
                self._supported(
                    substitute(formula.body, {formula.variable: constant})
                )
                for constant in constants
            )
        return False

    # -- compilation ----------------------------------------------------------

    def _compile(self, formula: Formula) -> BitsFn:
        node = self._nodes.get(formula)
        if node is not None:
            perf.count("compiled_eval.hit")
            return node
        perf.count("compiled_eval.miss")
        node = self._build(formula)
        self._nodes[formula] = node
        return node

    def _build(self, formula: Formula) -> BitsFn:
        """One compiled node: a memoizing closure over child closures."""
        compute = self._builder(formula)
        cell: int | None = None

        def bits() -> int:
            nonlocal cell
            if cell is None:
                cell = compute()
            return cell

        return bits

    def _builder(self, formula: Formula) -> Callable[[], int]:
        full = self.full_mask
        if isinstance(formula, Truth):
            return lambda: full
        if isinstance(formula, Prim):
            return self._build_prim(formula)
        if isinstance(formula, Not):
            body = self._compile(formula.body)
            return lambda: full ^ body()
        if isinstance(formula, And):
            left, right = self._compile(formula.left), self._compile(formula.right)
            return lambda: left() & right()
        if isinstance(formula, Or):
            left, right = self._compile(formula.left), self._compile(formula.right)
            return lambda: left() | right()
        if isinstance(formula, Implies):
            antecedent = self._compile(formula.antecedent)
            consequent = self._compile(formula.consequent)
            return lambda: (full ^ antecedent()) | consequent()
        if isinstance(formula, Iff):
            left, right = self._compile(formula.left), self._compile(formula.right)
            return lambda: full ^ (left() ^ right())
        if isinstance(formula, Sees):
            return self._build_sees(formula)
        if isinstance(formula, Said):
            return self._build_said(formula, present_only=False)
        if isinstance(formula, Says):
            return self._build_said(formula, present_only=True)
        if isinstance(formula, Controls):
            return self._build_controls(formula)
        if isinstance(formula, Fresh):
            return self._build_fresh(formula)
        if isinstance(formula, Has):
            return self._build_has(formula)
        if isinstance(formula, SharedKey):
            return self._build_goodness(
                formula.left, formula.right,
                lambda component: isinstance(component, Encrypted)
                and component.key == formula.key,
            )
        if isinstance(formula, PublicKeyOf):
            private = formula.key.partner  # type: ignore[union-attr]
            return self._build_goodness(
                formula.principal, formula.principal,
                lambda component: isinstance(component, Encrypted)
                and component.key == private,
            )
        if isinstance(formula, SharedSecret):
            return self._build_goodness(
                formula.left, formula.right,
                lambda component: isinstance(component, Combined)
                and component.secret == formula.secret,
            )
        if isinstance(formula, Believes):
            return self._build_believes(formula)
        if isinstance(formula, ForAll):
            return self._build_forall(formula)
        raise SemanticsError(f"cannot compile {formula!r}")  # pragma: no cover

    # -- leaf clauses ---------------------------------------------------------

    def _build_prim(self, formula: Prim) -> Callable[[], int]:
        holds = self.system.interpretation.holds
        atom = formula.atom
        points = self.points

        def compute() -> int:
            bits = 0
            for i, (run, k) in enumerate(points):
                if holds(atom, run, k):
                    bits |= 1 << i
            return bits

        return compute

    def _build_sees(self, formula: Sees) -> Callable[[], int]:
        principal = formula.principal
        message = formula.message
        seen_set = self.interpreter._seen_set
        points = self.points

        def compute() -> int:
            bits = 0
            for i, (run, k) in enumerate(points):
                if message in seen_set(principal, run, k):
                    bits |= 1 << i
            return bits

        return compute

    def _build_said(self, formula, present_only: bool) -> Callable[[], int]:
        principal = formula.principal
        message = formula.message
        said_entries = self.interpreter._said_entries

        def compute() -> int:
            bits = 0
            for run in self.system.runs:
                # First qualifying send time; every later point of the
                # run satisfies the clause (sends never un-happen).
                first: int | None = None
                for sent_at, components in said_entries(principal, run):
                    if present_only and sent_at <= 0:
                        continue
                    if message in components:
                        if first is None or sent_at < first:
                            first = sent_at
                if first is None:
                    continue
                for k in run.times:
                    if k >= first:
                        bits |= 1 << self.point_index[(run.name, k)]
            return bits

        return compute

    def _build_controls(self, formula: Controls) -> Callable[[], int]:
        principal = formula.principal
        body_formula = formula.body
        body = self._compile(body_formula)
        said_entries = self.interpreter._said_entries

        def compute() -> int:
            body_bits = body()
            bits = 0
            for run in self.system.runs:
                ok = True
                for k_prime in run.times:
                    if k_prime < 0:
                        continue
                    says_here = any(
                        sent_at > 0
                        and sent_at <= k_prime
                        and body_formula in components
                        for sent_at, components in said_entries(principal, run)
                    )
                    if says_here and not (
                        (body_bits >> self.point_index[(run.name, k_prime)]) & 1
                    ):
                        ok = False
                        break
                if ok:
                    bits |= self._run_masks[run.name]
            return bits

        return compute

    def _build_fresh(self, formula: Fresh) -> Callable[[], int]:
        message = formula.message
        past = self.interpreter._past_submsgs

        def compute() -> int:
            bits = 0
            for run in self.system.runs:
                if message not in past(run):
                    bits |= self._run_masks[run.name]
            return bits

        return compute

    def _build_has(self, formula: Has) -> Callable[[], int]:
        principal = formula.principal
        key = formula.key
        points = self.points

        def compute() -> int:
            bits = 0
            for i, (run, k) in enumerate(points):
                if key in run.keyset(principal, k):
                    bits |= 1 << i
            return bits

        return compute

    def _build_goodness(
        self, left: Message, right: Message, matches
    ) -> Callable[[], int]:
        """Shared shape of the F5/F6/pk clauses: a run-level quantifier
        over every *other* principal's sends — any matching component
        said by a third party must have been seen (relayed, not made)."""
        said_entries = self.interpreter._said_entries
        seen_set = self.interpreter._seen_set

        def compute() -> int:
            bits = 0
            for run in self.system.runs:
                good = True
                for principal in run.all_principals:
                    if principal == left or principal == right:
                        continue
                    for sent_at, components in said_entries(principal, run):
                        seen = None
                        for component in components:
                            if matches(component):
                                if seen is None:
                                    seen = seen_set(principal, run, sent_at)
                                if component not in seen:
                                    good = False
                                    break
                        if not good:
                            break
                    if not good:
                        break
                if good:
                    bits |= self._run_masks[run.name]
            return bits

        return compute

    # -- belief ---------------------------------------------------------------

    def _belief_groups_for(
        self, principal: Principal
    ) -> tuple[tuple[int, int], ...]:
        """(members, possible) bitset pairs, one per hidden-view class.

        ``members`` are the points of the *system* whose view under the
        principal equals the class view; ``possible`` are the matching
        points of the principal's *good runs* (the possibility set every
        member shares).  An empty possibility set is kept: belief is
        vacuously true there, exactly as in the interpreter.
        """
        cached = self._belief_groups.get(principal)
        if cached is not None:
            return cached
        view_of = self.interpreter._hidden_view
        good = self.goodruns.good_runs(principal)
        members: dict[tuple, int] = {}
        possible: dict[tuple, int] = {}
        for i, (run, k) in enumerate(self.points):
            view = view_of(principal, run, k)
            members[view] = members.get(view, 0) | (1 << i)
            if good is not None and run.name not in good:
                continue
            possible[view] = possible.get(view, 0) | (1 << i)
        groups = tuple(
            (member_bits, possible.get(view, 0))
            for view, member_bits in members.items()
        )
        self._belief_groups[principal] = groups
        return groups

    def belief_bits(self, principal: Principal, body_bits: int,
                    mask: int) -> int:
        """The points where ``principal`` believes a body true on
        ``body_bits``, each possibility set restricted to ``mask``.

        The paper's clause: per view class, the body holds on every
        point of the possibility set (vacuously when it is empty).
        """
        bits = 0
        for members, possible in self._belief_groups_for(principal):
            possible &= mask
            if possible & body_bits == possible:
                bits |= members
        return bits

    def _build_believes(self, formula: Believes) -> Callable[[], int]:
        principal = formula.principal
        assert isinstance(principal, Principal)
        body = self._compile(formula.body)
        full = self.full_mask
        return lambda: self.belief_bits(principal, body(), full)

    # -- quantification -------------------------------------------------------

    def _build_forall(self, formula: ForAll) -> Callable[[], int]:
        constants = self.system.vocabulary.constants(formula.variable.value_sort)
        expansions = tuple(
            self._compile(substitute(formula.body, {formula.variable: constant}))
            for constant in constants
        )
        full = self.full_mask

        def compute() -> int:
            bits = full
            for expansion in expansions:
                bits &= expansion()
                if not bits:
                    break
            return bits

        return compute


def compiled_for(
    system: System,
    goodruns: GoodRunVector | None = None,
    pattern_hide: bool = False,
    engine: type[CompiledSystem] = CompiledSystem,
) -> CompiledSystem:
    """The session's compiled view of a system (cached per context).

    ``engine`` is the compiled-engine class — :class:`CompiledSystem`
    for the paper's belief clause, a subclass for another backend's —
    and part of the cache key, so backends never alias.

    The cache key is the system's process-unique monotonic
    :attr:`~repro.model.system.System.serial` — **not** ``id()``.  The
    cache's wholesale-clear eviction drops its strong references, after
    which a garbage-collected system's ``id()`` can be recycled for a
    brand-new system; an id-based key would then silently alias the
    stale compilation.  Serials never recur within a process.  They
    *can* recur across processes (an unpickled system keeps its origin
    serial, and the receiving process mints its own), so a hit is
    additionally verified by identity; a collision recompiles and
    overwrites, counted under ``compiled_eval.serial_collision``.
    ``perf.clear_caches()`` / ``EngineContext.clear_session_caches()``
    empty the cache (the ``compiled_eval`` layer).
    """
    ctx = _context.current()
    key = (system.serial, goodruns, pattern_hide, engine)
    compiled = ctx.compiled_systems.get(key)
    if compiled is not None:
        if compiled.system is system:
            perf.count("compiled_eval.system_hit")
            return compiled
        perf.count("compiled_eval.serial_collision")
    perf.count("compiled_eval.system_miss")
    compiled = engine(system, goodruns, pattern_hide=pattern_hide)
    ctx.compiled_systems[key] = compiled
    from repro.obs import journal

    journal.record(
        "compile", runs=len(system.runs),
        points=len(compiled.point_index),
        goodruns=goodruns is not None, pattern_hide=pattern_hide,
    )
    return compiled
