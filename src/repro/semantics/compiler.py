"""Compiled evaluation: the truth definition, flattened per system.

The recursive :class:`~repro.semantics.evaluator.Evaluator` re-matches
the same formula ASTs structurally at every point — for sweep-shaped
workloads (many instances × every point of the system) more than half
the work is dispatch and memo-key hashing.  This module compiles each
formula **once** per ``(system, goodruns, pattern_hide)`` into its
truth value over the *whole system*:

* Points are numbered into dense ints (``system.points()`` order), so
  a truth value over the system is a single Python-int **bitset** —
  bit ``i`` is the verdict at point ``i``.  A compiled node *is* that
  int: compiling a formula computes its bitset from its children's.
* Connectives become direct bitwise ops on those ints (``&``, ``|``,
  ``^``) — no ``match`` re-dispatch, no per-point memo lookups.
* ``Sees``/``Has``/``Said``/``Says``/``Controls`` answer with one
  dict lookup: per principal, the compiler builds message -> point
  bitset indices on first use from the interpreter's memoized
  ``_seen_set``, ``run.keyset`` and ``_said_entries`` kernels (what a
  principal sees, has and said depends on the system only).
  ``Fresh`` and the key-goodness clauses read ``_past_submsgs``/
  ``_said_entries``/``_seen_set`` per run.
* ``Believes`` precomputes the principal's possibility index: points
  are grouped by hidden view, every view class is a bitset, and the
  belief check collapses to one subset test per class
  (``class & body == class``) — the per-(formula, viewclass) memo the
  interpreter's per-point loop could never amortize.  That check is
  one method, :meth:`CompiledSystem.belief_bits`, and the epistemic
  engine overrides only this method.
* ``ForAll`` expands over the vocabulary at compile time and ANDs the
  bitsets of all its expansions.

**One compiler for every good-run vector.**  Only the possibility sets
read the vector (§6: they are the view classes restricted to the
principal's good runs, and ``hide`` never reads it).  So a compilation
at a vector takes every other table from the system's *top*
compilation (``goodruns=None``, from the context cache): the point
numbering, run masks, principal uniformity, the leaf indices and the
leaves' bitsets, the ``ForAll`` expansions, and the view-class member
bitsets.  It computes only
connective, ``Controls``, ``ForAll`` and ``Believes`` nodes, through
its own ``_builders`` entries for the leaf clauses, so the top
compilation's walk carries no check for the sharing; and
:meth:`CompiledSystem._belief_groups_for` is the one place a
possibility set is restricted to the vector.

Bitsets are cached per *interned* formula, so schema instances sharing
subformulas compute them once.  The node table holds plain ints (and
``None`` for refusals): no closure captures the compiled system, so a
dropped context frees its compiled state by reference counting, with
no work left for the cycle collector.

**Fidelity.**  The compiler is a fast path, not a second semantics.
Compiling is one walk per formula: each clause's builder takes its
children's bitsets, then checks its own gate, and the node table
memoizes a refusal (``None``) like any bitset.  Children compile
first, so the compilable subformulas of a refused formula have their
bitsets computed on the way.  The gates refuse whatever the compiler
cannot reproduce byte-identically — a principal without local state in
some run (where the interpreter's error behaviour is point- and
order-dependent), a free parameter (its value is per run), a malformed
``pk(...)``, an unknown connective.  Refused ground formulas fall back
to a private interpreter (``interpreter_class``) sharing the same
parameters.  Tracing always takes the interpreter
(:func:`repro.obs.trace.trace_evaluation`): trace fidelity is cheaper
to inherit than to re-emit.  The ``compiled_vs_interpreted`` fuzz oracle
(:mod:`repro.fuzz.oracles`) holds the two engines byte-identical
across campaigns, at no vector and at a restricting one.

Compiled state is session-owned: :func:`compiled_for` caches
``CompiledSystem`` instances on the current
:class:`~repro.context.EngineContext` (``ctx.compiled_systems``), and
the ``compiled_eval`` perf layer reports compile-cache hits/misses and
its size through ``cache_sizes`` like every other memoization layer.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping

from repro import context as _context
from repro import perf
from repro.model.runs import Run
from repro.model.system import Point, System
from repro.semantics.evaluator import Evaluator, formula_at
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
from repro.terms.ops import free_parameters, substitute

#: The node table's default: ``None`` there is a verdict (refused).
_UNCOMPILED = object()


def _compiled_size() -> int:
    return sum(
        len(compiled._nodes)
        for compiled in _context.current().compiled_systems.values()
    )


perf.register_cache("compiled_eval", _compiled_size)


class CompiledSystem:
    """Formulas compiled against one ``(system, goodruns, pattern_hide)``.

    Presents the same ``evaluate(formula, run, k)`` surface as
    :class:`Evaluator`, so the hot loops (soundness sweep, engine-replay
    audit, good-runs support checks) adopt it without restructuring.
    Obtain instances through :func:`compiled_for`, which caches them on
    the current engine context.
    """

    #: The recursive evaluator with this engine's truth definition: the
    #: fallback for refused formulas and foreign points, and the tracer.
    interpreter_class: type[Evaluator] = Evaluator

    #: Formula class -> (its subformula fields, the builder of its
    #: clause).  :meth:`_compile` compiles the subformulas first; the
    #: builder gets their bitsets and returns its own, or ``None`` when
    #: its own gate fails.
    _CLAUSES: Mapping[type, tuple[tuple[str, ...], str]] = MappingProxyType({
        Truth: ((), "_build_truth"),
        Prim: ((), "_build_prim"),
        Not: (("body",), "_build_not"),
        And: (("left", "right"), "_build_and"),
        Or: (("left", "right"), "_build_or"),
        Implies: (("antecedent", "consequent"), "_build_implies"),
        Iff: (("left", "right"), "_build_iff"),
        Sees: ((), "_build_sees"),
        Said: ((), "_build_said"),
        Says: ((), "_build_said"),
        Controls: (("body",), "_build_controls"),
        Fresh: ((), "_build_fresh"),
        Has: ((), "_build_has"),
        SharedKey: ((), "_build_shared_key"),
        SharedSecret: ((), "_build_shared_secret"),
        PublicKeyOf: ((), "_build_public_key_of"),
        Believes: (("body",), "_build_believes"),
        ForAll: ((), "_build_forall"),
    })

    #: The leaf clauses: none reads the good-run vector, so a
    #: compilation at a vector takes their nodes from the top one.
    _SHARED_LEAVES = (Prim, Sees, Said, Says, Fresh, Has, SharedKey,
                      SharedSecret, PublicKeyOf)

    def __init__(
        self,
        system: System,
        goodruns: GoodRunVector | None = None,
        pattern_hide: bool = False,
    ) -> None:
        self.system = system
        self.goodruns = goodruns or GoodRunVector()
        self.pattern_hide = pattern_hide
        #: Truth bitsets keyed by (interned) formula; ``None`` records
        #: a formula the compiler refused.
        self._nodes: dict[Formula, int | None] = {}
        #: Belief groups per principal: tuple of (members, possible) bit
        #: pairs — one entry per hidden-view class.
        self._belief_groups: dict[Principal, tuple[tuple[int, int], ...]] = {}
        #: ``compiled_eval.hit``/``.miss`` of the running walk, added to
        #: the context's counters once per :meth:`truth_bits` call.
        self._hits = self._misses = 0
        self._interpreter: Evaluator | None = None
        if goodruns is not None:
            self._share_top()
            return
        #: The top compilation whose tables this one shares (``None``:
        #: this is the top, at no vector).
        self._top: CompiledSystem | None = None
        #: Formula class -> (builder, first child field, second child
        #: field), resolved from the class once per top compilation, so
        #: a builder patched on the class applies to later systems;
        #: functions, not bound methods, so no cycle holds ``self``.
        self._builders = {
            kind: (getattr(type(self), name), *(fields + (None, None))[:2])
            for kind, (fields, name) in self._CLAUSES.items()
        }
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
        #: Principal uniformity (state in every run), keyed by principal.
        self._uniform: dict[Principal, bool] = {}
        #: (kind, principal) -> message -> point bitset, kind one of
        #: ``seen``/``has``/``said``/``says`` (see :meth:`_index`).
        self._indices: dict[tuple[str, Principal], dict[Message, int]] = {}
        #: ``ForAll`` -> its expansions over the vocabulary, once all of
        #: them compiled (see :meth:`_build_forall`).
        self._expansions: dict[ForAll, tuple[Formula, ...]] = {}

    def _share_top(self) -> None:
        """Take every table that does not read the vector (the
        ``ForAll`` expansions too), and the builders, from the system's
        top compilation in the current context, and send the leaf and
        ``Controls`` clauses to it: a leaf's node is the top's, and
        ``Controls`` reads the top's ``says`` index."""
        top = compiled_for(self.system, None, self.pattern_hide, type(self))
        self._top = top
        self.points, self.point_index = top.points, top.point_index
        self.full_mask, self._run_masks = top.full_mask, top._run_masks
        self._uniform, self._expansions = top._uniform, top._expansions
        self._builders = dict(top._builders)
        cls = type(self)
        for kind in self._SHARED_LEAVES:
            self._builders[kind] = (cls._build_top_leaf, None, None)
        self._builders[Controls] = (cls._build_top_controls, "body", None)

    # -- public API -----------------------------------------------------------

    @property
    def interpreter(self) -> Evaluator:
        """The fallback interpreter at this compilation's vector.

        The top compilation's interpreter is also the table-building
        kernel: sharing its memoized ``_seen_set``/``_said_entries``/
        ``_past_submsgs``/``_hidden_views`` kernels keeps the compiled
        tables byte-identical to the interpreted semantics by
        construction.
        """
        if self._interpreter is None:
            self._interpreter = self.interpreter_class(
                self.system, self.goodruns, pattern_hide=self.pattern_hide
            )
        return self._interpreter

    def evaluate(self, formula: Formula, run: Run, k: int) -> bool:
        """``(r, k) |= φ`` — same contract as :meth:`Evaluator.evaluate`."""
        formula = formula_at(formula, run, k)
        index = self.point_index.get((run.name, k))
        if index is None or self.points[index][0] is not run:
            # A point outside the compiled system (a foreign run): a
            # fresh interpreter answers it, because the shared one's
            # memos are keyed by run name and may hold a system run
            # of the same name.
            perf.count("compiled_eval.fallback")
            return self.interpreter_class(
                self.system, self.goodruns, pattern_hide=self.pattern_hide
            )._eval(formula, run, k)
        bits = self.truth_bits(formula)
        if bits is None:
            return self.interpreter._eval(formula, run, k)
        return bool((bits >> index) & 1)

    def truth_bits(self, formula: Formula) -> int | None:
        """The formula's whole-system truth bitset, or ``None`` when the
        compiler has no faithful node for it (caller falls back).

        A non-ground formula gives ``None`` and counts nothing: its
        truth depends on each run's parameter values, so callers
        substitute first, as :meth:`evaluate` does.  A ground formula
        some clause gate refuses counts ``compiled_eval.fallback`` on
        every call.
        """
        # Journal only the *first* refusal per formula (the node memo
        # makes "first" cheap to detect): the flight recorder wants
        # "this shape fell back", not one event per point of a hot loop.
        known = formula in self._nodes
        try:
            bits = self._compile(formula)
        finally:
            if self._hits:
                perf.count("compiled_eval.hit", self._hits)
            if self._misses:
                perf.count("compiled_eval.miss", self._misses)
            self._hits = self._misses = 0
        if bits is not None:
            return bits
        if free_parameters(formula):
            return None
        perf.count("compiled_eval.fallback")
        if not known:
            from repro.obs import journal

            journal.record(
                "fallback", engine="compiled",
                formula=str(formula)[:160],
            )
        return None

    def run_mask(self, name: str) -> int:
        """The point mask of one run (0 for a name not in the system)."""
        return self._run_masks.get(name, 0)

    def uniform_principal(self, term: Message) -> bool:
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

    # -- compilation ----------------------------------------------------------

    def _compile(self, formula: Formula) -> int | None:
        """The formula's truth bitset, or ``None`` when a gate refuses
        it — the one walk that decides groundness and support while it
        computes; both verdicts are memoized.  A refused first child
        leaves the second uncompiled."""
        bits = self._nodes.get(formula, _UNCOMPILED)
        if bits is not _UNCOMPILED:
            self._hits += 1
            return bits  # type: ignore[return-value]
        self._misses += 1
        bits = None
        clause = self._builders.get(type(formula))
        if clause is not None:
            build, first, second = clause
            if first is None:
                bits = build(self, formula)
            elif (one := self._compile(getattr(formula, first))) is not None:
                if second is None:
                    bits = build(self, formula, one)
                elif (two := self._compile(getattr(formula, second))) is not None:
                    bits = build(self, formula, one, two)
        self._nodes[formula] = bits
        return bits

    def _index(self, kind: str, principal: Principal) -> dict[Message, int]:
        """Message -> the points where ``principal`` sees/has it, or
        said/says it (from its first qualifying send onward; ``says``
        skips sends at time <= 0), built once per principal and kind."""
        index = self._indices.get((kind, principal))
        if index is not None:
            return index
        if kind in ("seen", "has"):
            facts = (self.interpreter._seen_set if kind == "seen" else
                     lambda who, run, k: run.keyset(who, k))
            index = {}
            for i, (run, k) in enumerate(self.points):
                for message in facts(principal, run, k):
                    index[message] = index.get(message, 0) | (1 << i)
            self._indices[(kind, principal)] = index
            return index
        said: dict[Message, int] = {}
        says: dict[Message, int] = {}
        for run in self.system.runs:
            for sent_at, components in self.interpreter._said_entries(
                principal, run
            ):
                # Points are numbered run by run, oldest first.
                first = self.point_index[(run.name, sent_at)]
                later = self._run_masks[run.name] >> first << first
                for message in components:
                    said[message] = said.get(message, 0) | later
                    if sent_at > 0:
                        says[message] = says.get(message, 0) | later
        self._indices[("said", principal)] = said
        self._indices[("says", principal)] = says
        return self._indices[(kind, principal)]

    # -- connectives ----------------------------------------------------------

    def _build_truth(self, formula: Truth) -> int:
        return self.full_mask

    def _build_not(self, formula: Not, body: int) -> int:
        return self.full_mask ^ body

    def _build_and(self, formula: And, left: int, right: int) -> int:
        return left & right

    def _build_or(self, formula: Or, left: int, right: int) -> int:
        return left | right

    def _build_implies(self, formula: Implies, antecedent: int,
                       consequent: int) -> int:
        return (self.full_mask ^ antecedent) | consequent

    def _build_iff(self, formula: Iff, left: int, right: int) -> int:
        return self.full_mask ^ (left ^ right)

    # -- leaf clauses ---------------------------------------------------------

    def _build_prim(self, formula: Prim) -> int:
        holds = self.system.interpretation.holds
        atom = formula.atom
        bits = 0
        for i, (run, k) in enumerate(self.points):
            if holds(atom, run, k):
                bits |= 1 << i
        return bits

    def _build_sees(self, formula: Sees) -> int | None:
        principal = formula.principal
        message = formula.message
        if not self.uniform_principal(principal) or free_parameters(message):
            return None
        return self._index("seen", principal).get(message, 0)

    def _build_said(self, formula: Said | Says) -> int | None:
        principal = formula.principal
        message = formula.message
        if not self.uniform_principal(principal) or free_parameters(message):
            return None
        kind = "says" if isinstance(formula, Says) else "said"
        return self._index(kind, principal).get(message, 0)

    def _build_controls(self, formula: Controls, body: int) -> int | None:
        """Keeps a run iff the body holds wherever the principal says it
        (``says`` holds at times > 0 only)."""
        principal = formula.principal
        if not self.uniform_principal(principal):
            return None
        unmet = self._index("says", principal).get(formula.body, 0) & ~body
        bits = 0
        for run_mask in self._run_masks.values():
            if not unmet & run_mask:
                bits |= run_mask
        return bits

    def _build_fresh(self, formula: Fresh) -> int | None:
        message = formula.message
        if free_parameters(message):
            return None
        past = self.interpreter._past_submsgs
        bits = 0
        for run in self.system.runs:
            if message not in past(run):
                bits |= self._run_masks[run.name]
        return bits

    def _build_has(self, formula: Has) -> int | None:
        principal = formula.principal
        key = formula.key
        if not self.uniform_principal(principal) or free_parameters(key):
            return None
        return self._index("has", principal).get(key, 0)

    def _build_shared_key(self, formula: SharedKey) -> int | None:
        key = formula.key
        return self._build_goodness(
            formula.left, formula.right, key,
            lambda component: isinstance(component, Encrypted)
            and component.key == key,
        )

    def _build_public_key_of(self, formula: PublicKeyOf) -> int | None:
        if not isinstance(formula.key, PublicKey):
            return None
        private = formula.key.partner
        return self._build_goodness(
            formula.principal, formula.principal, formula.key,
            lambda component: isinstance(component, Encrypted)
            and component.key == private,
        )

    def _build_shared_secret(self, formula: SharedSecret) -> int | None:
        secret = formula.secret
        return self._build_goodness(
            formula.left, formula.right, secret,
            lambda component: isinstance(component, Combined)
            and component.secret == secret,
        )

    def _build_goodness(
        self, left: Message, right: Message, term: Message, matches
    ) -> int | None:
        """Shared shape of the F5/F6/pk clauses: a run-level quantifier
        over every *other* principal's sends — any matching component
        said by a third party must have been seen (relayed, not made).
        Both sides must be principals, and the key or secret ground."""
        if not (isinstance(left, Principal) and isinstance(right, Principal)
                ) or free_parameters(term):
            return None
        said_entries = self.interpreter._said_entries
        seen_set = self.interpreter._seen_set
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

    # -- at a vector: clauses on the top compilation's tables -----------------

    def _build_top_leaf(self, formula: Formula) -> int | None:
        """A leaf at a vector: the top compilation's node, built there
        once for every vector."""
        top = self._top
        bits = top._nodes.get(formula, _UNCOMPILED)
        if bits is _UNCOMPILED:
            build = top._builders[type(formula)][0]
            bits = top._nodes[formula] = build(top, formula)
        return bits  # type: ignore[return-value]

    def _build_top_controls(self, formula: Controls, body: int) -> int | None:
        """``Controls`` at a vector: the top's clause over this
        compilation's body bits."""
        return self._top._build_controls(formula, body)

    # -- belief ---------------------------------------------------------------

    def _belief_groups_for(
        self, principal: Principal
    ) -> tuple[tuple[int, int], ...]:
        """(members, possible) bitset pairs, one per hidden-view class.

        ``members`` are the points of the *system* whose view under the
        principal equals the class view, grouped once, by the top
        compilation; ``possible`` are the members in the principal's
        *good runs* at this compilation's vector (the possibility set
        every member shares; every member at the top).  This is the one
        place a possibility set is restricted to the vector.  An empty
        possibility set is kept: belief is vacuously true there, exactly
        as in the interpreter.
        """
        groups = self._belief_groups.get(principal)
        if groups is not None:
            return groups
        if self._top is None:
            views_of = self.interpreter._hidden_views
            members: dict[tuple, int] = {}
            bit = 1  # points are numbered run by run, oldest first
            for run in self.system.runs:
                for view in views_of(principal, run):
                    members[view] = members.get(view, 0) | bit
                    bit <<= 1
            groups = tuple((bits, bits) for bits in members.values())
        else:
            good = self.goodruns.good_runs(principal)
            mask = self.full_mask
            if good is not None:
                # Names outside the system add no points, exactly as in
                # the interpreter's possibility filter.
                mask = 0
                for name in good:
                    mask |= self._run_masks.get(name, 0)
            groups = tuple(
                (bits, bits & mask)
                for bits, _ in self._top._belief_groups_for(principal)
            )
        self._belief_groups[principal] = groups
        return groups

    def belief_bits(self, principal: Principal, body_bits: int) -> int:
        """The points where ``principal`` believes a body true on
        ``body_bits``.

        The paper's clause: per view class, the body holds on every
        point of the possibility set (vacuously when it is empty).
        """
        bits = 0
        for members, possible in self._belief_groups_for(principal):
            if possible & body_bits == possible:
                bits |= members
        return bits

    def _build_believes(self, formula: Believes, body: int) -> int | None:
        principal = formula.principal
        if not self.uniform_principal(principal):
            return None
        return self.belief_bits(principal, body)

    # -- quantification -------------------------------------------------------

    def _build_forall(self, formula: ForAll) -> int | None:
        """The AND of the expansions' bitsets.  The expansions do not
        read the vector, so once all of them compiled they are kept in
        the top compilation's table, which every vector shares; until
        then each is substituted just before it compiles."""
        expansions = self._expansions.get(formula)
        if expansions is None:
            variable = formula.variable
            expansions = (
                substitute(formula.body, {variable: constant})
                for constant in self.system.vocabulary.constants(
                    variable.value_sort
                )
            )
        compiled = []
        bits = self.full_mask
        for expansion in expansions:
            expansion_bits = self._compile(expansion)
            if expansion_bits is None:
                return None
            compiled.append(expansion)
            bits &= expansion_bits
        self._expansions[formula] = tuple(compiled)
        # With another parameter free, every expansion compiles only
        # over an empty domain, and the verdict is still per run.
        return None if free_parameters(formula) else bits


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

    A compilation at a vector shares its top compilation's tables, so
    the top stays cached beside it even when inserting the vector's
    evicted the cache wholesale: the next vector finds it.
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
    if compiled._top is not None:
        ctx.compiled_systems[system.serial, None, pattern_hide, engine] = (
            compiled._top
        )
    from repro.obs import journal

    journal.record(
        "compile", runs=len(system.runs),
        points=len(compiled.point_index),
        goodruns=goodruns is not None, pattern_hide=pattern_hide,
    )
    return compiled
