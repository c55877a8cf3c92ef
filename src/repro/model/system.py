"""Systems and interpretations (Sections 5-6).

A *system* is a set of runs, "typically the set of executions of a
given protocol", paired with an interpretation ``pi`` mapping each
primitive proposition to the set of points at which it is true.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping

from repro.errors import ModelError
from repro.model.runs import Run
from repro.model.wellformed import check_run
from repro.terms.atoms import Key, Nonce, Principal, PrimitiveProposition, Sort
from repro.terms.vocabulary import Vocabulary

Point = tuple[Run, int]

#: Monotonic :attr:`System.serial` source.  ``itertools.count`` is a C
#: iterator, so ``next()`` is atomic under the GIL — no lock needed even
#: when concurrent sessions construct systems.  Serials are never reused
#: within a process, which is what makes them safe cache keys where
#: ``id()`` was not: an ``id`` can be recycled by the allocator the
#: moment its object is garbage collected.
_SERIALS = itertools.count(1)

_PredicateFn = Callable[[PrimitiveProposition, Run, int], bool]

_EMPTY_POINTS: frozenset = frozenset()


@dataclass(frozen=True)
class _FalseEverywhere:
    """The default predicate: every proposition false at every point."""

    def __call__(self, prop: PrimitiveProposition, run: Run, k: int) -> bool:
        return False


@dataclass(frozen=True)
class _PointTablePredicate:
    """Truth table keyed by (run name, time) pairs."""

    table: tuple[tuple[PrimitiveProposition, frozenset[tuple[str, int]]], ...]

    def __call__(self, prop: PrimitiveProposition, run: Run, k: int) -> bool:
        for entry_prop, points in self.table:
            if entry_prop == prop:
                return (run.name, k) in points
        return False


@dataclass(frozen=True)
class _RunTablePredicate:
    """Run-level truth table keyed by run names."""

    table: tuple[tuple[PrimitiveProposition, frozenset[str]], ...]

    def __call__(self, prop: PrimitiveProposition, run: Run, k: int) -> bool:
        for entry_prop, names in self.table:
            if entry_prop == prop:
                return run.name in names
        return False


@dataclass(frozen=True)
class Interpretation:
    """The interpretation ``pi`` of primitive propositions.

    Wraps a predicate ``(proposition, run, k) -> bool``; constructors
    cover the common cases.  The default interpretation makes every
    primitive proposition false everywhere.

    The built-in constructors produce *picklable* predicates (plain
    data, no closures), so a system built from them pickles whole.
    ``from_predicate`` still accepts arbitrary callables, which need
    not pickle.
    """

    predicate: _PredicateFn = field(default_factory=_FalseEverywhere)

    def holds(self, proposition: PrimitiveProposition, run: Run, k: int) -> bool:
        return bool(self.predicate(proposition, run, k))

    @classmethod
    def empty(cls) -> "Interpretation":
        """Every primitive proposition is false at every point."""
        return cls()

    @classmethod
    def from_table(
        cls, table: Mapping[PrimitiveProposition, Iterable[tuple[str, int]]]
    ) -> "Interpretation":
        """Explicit truth table keyed by (run name, time) pairs."""
        frozen = tuple(
            (prop, frozenset(points)) for prop, points in table.items()
        )
        return cls(_PointTablePredicate(frozen))

    @classmethod
    def from_run_table(
        cls, table: Mapping[PrimitiveProposition, Iterable[str]]
    ) -> "Interpretation":
        """Run-level truth: the proposition holds at every point of the
        named runs (useful for stable facts like a coin-toss outcome)."""
        frozen = tuple(
            (prop, frozenset(names)) for prop, names in table.items()
        )
        return cls(_RunTablePredicate(frozen))

    @classmethod
    def from_predicate(cls, predicate: _PredicateFn) -> "Interpretation":
        return cls(predicate)


@dataclass(frozen=True)
class System:
    """A system: a finite set of runs with an interpretation.

    Args:
        runs: the runs, with unique names.
        interpretation: truth of primitive propositions at points.
        vocabulary: the constants in scope; used by universal
            quantification (Section 8) and the soundness harness.  When
            omitted, a vocabulary is synthesized from the runs'
            principals, key sets, and parameter values.

    Every instance additionally carries a process-unique monotonic
    :attr:`serial` (excluded from equality/repr), assigned at
    construction.  Session caches keyed per system — most importantly
    the compiled-evaluation cache on
    :class:`repro.context.EngineContext` — key by this serial rather
    than ``id()``: after an eviction drops a cache's strong references,
    a garbage-collected system's ``id()`` can be recycled for a new
    system, silently aliasing the stale compilation; a serial never
    recurs within a process.  Unpickled systems keep their origin
    serial (two processes may therefore collide), so serial-keyed
    caches must still verify identity on a hit.
    """

    runs: tuple[Run, ...]
    interpretation: Interpretation = field(default_factory=Interpretation.empty)
    vocabulary: Vocabulary = field(default_factory=Vocabulary)
    serial: int = field(default=0, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "serial", next(_SERIALS))
        if not self.runs:
            raise ModelError("a system needs at least one run")
        names = [run.name for run in self.runs]
        if len(set(names)) != len(names):
            raise ModelError(f"run names must be unique, got {names}")
        environments = {run.environment for run in self.runs}
        if len(environments) != 1:
            raise ModelError("all runs must share the same environment principal")
        if len(self.vocabulary) == 0:
            object.__setattr__(self, "vocabulary", self._synthesize_vocabulary())

    def _synthesize_vocabulary(self) -> Vocabulary:
        vocabulary = Vocabulary()
        for run in self.runs:
            for principal in run.all_principals:
                vocabulary.principal(principal.name)
            for principal in run.all_principals:
                for k in (run.end_time,):
                    for key in run.keyset(principal, k):
                        vocabulary.key(key.name)
            for _parameter, value in run.params:
                if isinstance(value, Key):
                    vocabulary.key(value.name)
                elif isinstance(value, Principal):
                    vocabulary.principal(value.name)
                elif isinstance(value, Nonce):
                    vocabulary.nonce(value.name)
        return vocabulary

    # -- accessors ----------------------------------------------------------------

    @property
    def environment(self) -> Principal:
        return self.runs[0].environment

    def run(self, name: str) -> Run:
        for run in self.runs:
            if run.name == name:
                return run
        raise ModelError(f"no run named {name!r}")

    def points(self) -> Iterator[Point]:
        """All points of all runs."""
        for run in self.runs:
            yield from run.points()

    def initial_points(self) -> Iterator[Point]:
        """The time-0 point of every run."""
        for run in self.runs:
            yield (run, 0)

    def principals(self) -> tuple[Principal, ...]:
        """System principals (shared by all runs of a protocol system)."""
        return self.runs[0].principals

    def wellformedness_report(self) -> dict[str, list]:
        """Map run name -> list of WF violations (all empty: well-formed)."""
        return {run.name: check_run(run) for run in self.runs}

    def is_wellformed(self) -> bool:
        return all(not violations for violations in
                   self.wellformedness_report().values())

    def constants(self, sort: Sort):
        return self.vocabulary.constants(sort)


def system_of(
    runs: Iterable[Run],
    interpretation: Interpretation | None = None,
    vocabulary: Vocabulary | None = None,
) -> System:
    """Convenience constructor accepting any iterable of runs."""
    return System(
        tuple(runs),
        interpretation or Interpretation.empty(),
        vocabulary or Vocabulary(),
    )
