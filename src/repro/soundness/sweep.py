"""The empirical Theorem 1: sweep every axiom over generated systems.

For each axiom schema, instantiate it over a pool drawn from a system's
actual traffic (plus synthesized structure) and evaluate every instance
at every point of the system.  Theorem 1 predicts zero violations; the
sweep reports per-schema counts, and classifies any A11 violation by
whether the ciphertext body was *transparent* to the principal — the
nesting subtlety discussed in EXPERIMENTS.md.

Principal positions are instantiated with *system* principals only: the
model restricts the environment's behaviour less than system
principals' (WF4/WF5), and formulas in protocol analyses talk about
system principals.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable

from repro import perf
from repro.logic.axioms import AXIOMS, InstancePool, Schema
from repro.obs import spans
from repro.logic.rules import transparent
from repro.model.actions import Send
from repro.model.system import System
from repro.semantics.backend import DEFAULT_BACKEND, get_backend
from repro.semantics.compiler import CompiledSystem
from repro.semantics.evaluator import Evaluator
from repro.semantics.goodvectors import GoodRunVector
from repro.terms.atoms import Principal, PrimitiveProposition, Sort
from repro.terms.base import Message
from repro.terms.formulas import (
    Believes,
    Formula,
    Fresh,
    Has,
    Implies,
    And,
    Prim,
    Said,
    Says,
    Sees,
    SharedKey,
)
from repro.terms.messages import Encrypted, combined, encrypted, forwarded, group
from repro.terms.ops import walk


def pool_from_system(system: System) -> InstancePool:
    """Build an instantiation pool from a system's traffic.

    Messages are the sub-closure of everything actually sent, topped up
    with fresh ciphertexts, combinations, forwardings, and groups over
    the vocabulary, so that schemas over shapes nobody happened to send
    still get instances.  The pool keeps the first 60 messages and the
    first 12 formulas.
    """
    principals = tuple(system.principals())
    keys = tuple(system.vocabulary.constants(Sort.KEY))
    nonces = tuple(system.vocabulary.constants(Sort.NONCE))

    seen: dict[Message, None] = {}
    for run in system.runs:
        for _who, action in run.state(run.end_time).env.history:
            if isinstance(action, Send):
                for node in walk(action.message):
                    seen.setdefault(node, None)
    messages = list(seen)

    if principals and keys:
        base: tuple[Message, ...] = tuple(nonces[:2]) or (keys[0],)
        p, q = principals[0], principals[-1]
        k = keys[0]
        for x in base:
            inner = encrypted(x, k, p)
            messages.extend(
                [
                    inner,
                    encrypted(inner, keys[-1], q),
                    combined(x, base[-1], p),
                    forwarded(x),
                    forwarded(inner),
                    group(x, inner),
                    group(x, base[-1], inner),
                ]
            )
    messages = list(dict.fromkeys(messages))[:60]

    formulas: list[Formula] = []
    props = tuple(system.vocabulary.constants(Sort.PROPOSITION))
    for prop in props[:1]:
        assert isinstance(prop, PrimitiveProposition)
        formulas.append(Prim(prop))
    if principals and keys:
        formulas.append(SharedKey(principals[0], keys[0], principals[-1]))
        formulas.append(Has(principals[0], keys[0]))
    if nonces:
        formulas.append(Fresh(nonces[0]))
        if principals:
            formulas.append(Said(principals[0], nonces[0]))
            formulas.append(Says(principals[-1], nonces[0]))
            formulas.append(Sees(principals[0], nonces[0]))
    if principals and len(formulas) >= 2:
        formulas.append(Believes(principals[0], formulas[0]))
        formulas.append(Implies(formulas[0], formulas[1]))
    if principals and keys:
        from repro.terms.atoms import Parameter
        from repro.terms.formulas import ForAll

        x = Parameter("x", Sort.KEY)
        formulas.append(ForAll(x, Has(principals[0], x)))
    formulas = list(dict.fromkeys(formulas))[:12]

    return InstancePool(
        principals=principals,
        keys=keys,
        messages=tuple(messages),
        formulas=tuple(formulas),
        secrets=tuple(nonces[:2]),
    )


@dataclass(frozen=True)
class ViolationRecord:
    schema: str
    instance: Formula
    run_name: str
    time: int
    transparent_body: bool | None = None

    def __str__(self) -> str:
        extra = ""
        if self.transparent_body is not None:
            extra = (
                " [transparent body]"
                if self.transparent_body
                else " [opaque body — the A11 nesting subtlety]"
            )
        return f"{self.schema} at ({self.run_name}, {self.time}): {self.instance}{extra}"


@dataclass
class SchemaReport:
    schema: str
    instances: int = 0
    points_checked: int = 0
    violations: list[ViolationRecord] = field(default_factory=list)

    @property
    def sound(self) -> bool:
        return not self.violations

    @property
    def essential_violations(self) -> list[ViolationRecord]:
        """Violations not explained by the documented A11 nesting caveat."""
        return [
            v for v in self.violations if v.transparent_body is not False
        ]


@dataclass
class SweepReport:
    """Aggregated outcome of one soundness sweep."""

    per_schema: dict[str, SchemaReport] = field(default_factory=dict)

    def schema_report(self, name: str) -> SchemaReport:
        return self.per_schema.setdefault(name, SchemaReport(name))

    @property
    def total_instances(self) -> int:
        return sum(r.instances for r in self.per_schema.values())

    @property
    def total_violations(self) -> int:
        return sum(len(r.violations) for r in self.per_schema.values())

    @property
    def essential_violations(self) -> list[ViolationRecord]:
        out: list[ViolationRecord] = []
        for report in self.per_schema.values():
            out.extend(report.essential_violations)
        return out

    def merge(self, other: "SweepReport") -> None:
        for name, report in other.per_schema.items():
            mine = self.schema_report(name)
            mine.instances += report.instances
            mine.points_checked += report.points_checked
            mine.violations.extend(report.violations)

    def render(self) -> str:
        header = f"{'schema':<6} {'instances':>9} {'points':>10} {'violations':>11}"
        lines = [header, "-" * len(header)]
        for name in sorted(self.per_schema):
            report = self.per_schema[name]
            lines.append(
                f"{name:<6} {report.instances:>9} {report.points_checked:>10} "
                f"{len(report.violations):>11}"
            )
        lines.append(
            f"TOTAL: {self.total_instances} instances, "
            f"{self.total_violations} violations "
            f"({len(self.essential_violations)} outside the A11 caveat)"
        )
        return "\n".join(lines)


#: One shared default for how many instances of each schema to check.
#: (``sweep_system`` and ``sweep_systems`` historically disagreed,
#: 400 vs 200; everything now goes through this constant.)
DEFAULT_MAX_INSTANCES_PER_SCHEMA = 400

#: Default cap on recorded (not counted) violations per schema.
DEFAULT_MAX_VIOLATIONS_PER_SCHEMA = 25

#: Which evaluation engine the sweep drives.  ``"compiled"`` routes
#: ground instances through :func:`repro.semantics.compiler.compiled_for`
#: (whole-system bitsets, one subset test per instance); any instance
#: the compiler declines falls back to the interpreter per point, so
#: verdicts, point counts, and violation records are identical to
#: ``"interpreted"`` — the ``compiled_vs_interpreted`` fuzz oracle holds
#: the two byte-identical.
DEFAULT_ENGINE = "compiled"

_ENGINES = ("compiled", "interpreted")


def _resolve_engine(
    system: System,
    goodruns: GoodRunVector | None,
    pattern_hide: bool,
    engine: str,
    backend: str = DEFAULT_BACKEND,
):
    """The sweep's evaluation engine: one backend lookup per sweep.

    ``backend`` names one of the built-in
    :class:`~repro.semantics.backend.SemanticsBackend` pair (unknown
    names raise
    :class:`~repro.errors.EngineError`); ``engine`` picks its compiled
    or interpreted shape.  Resolution happens once here — never on the
    per-instance hot loop.
    """
    if engine not in _ENGINES:
        raise ValueError(f"unknown sweep engine {engine!r} (use one of {_ENGINES})")
    resolved = get_backend(backend)
    if engine == "compiled":
        return resolved.compile(system, goodruns, pattern_hide=pattern_hide)
    return resolved.interpreter(system, goodruns, pattern_hide=pattern_hide)


def sweep_system(
    system: System,
    schemas: tuple[Schema, ...] | None = None,
    goodruns: GoodRunVector | None = None,
    max_instances_per_schema: int = DEFAULT_MAX_INSTANCES_PER_SCHEMA,
    pattern_hide: bool = False,
    max_violations_per_schema: int = DEFAULT_MAX_VIOLATIONS_PER_SCHEMA,
    engine: str = DEFAULT_ENGINE,
    backend: str = DEFAULT_BACKEND,
) -> SweepReport:
    """Model-check every schema instance at every point of one system."""
    if schemas is None:
        schemas = tuple(AXIOMS.values())
    evaluator = _resolve_engine(system, goodruns, pattern_hide, engine, backend)
    compiled = evaluator if isinstance(evaluator, CompiledSystem) else None
    pool = pool_from_system(system)
    report = SweepReport()
    points = tuple(system.points())
    for schema in schemas:
        schema_report = report.schema_report(schema.name)
        instances = itertools.islice(
            schema.instances(pool), max_instances_per_schema
        )
        with spans.span("sweep.schema", schema=schema.name,
                        engine=engine) as attrs:
            for instance in instances:
                schema_report.instances += 1
                bits = None if compiled is None else compiled.truth_bits(instance)
                if bits is not None:
                    # Whole-system verdict in one subset test; violation
                    # records (capped, in point order) match the
                    # point-by-point loop exactly.
                    schema_report.points_checked += len(points)
                    if bits != compiled.full_mask:
                        room = (
                            max_violations_per_schema
                            - len(schema_report.violations)
                        )
                        if room > 0:
                            for i, (run, k) in enumerate(points):
                                if (bits >> i) & 1:
                                    continue
                                schema_report.violations.append(
                                    _record(schema.name, instance, run.name,
                                            k, evaluator, run, k)
                                )
                                room -= 1
                                if room == 0:
                                    break
                    continue
                for run, k in points:
                    schema_report.points_checked += 1
                    if evaluator.evaluate(instance, run, k):
                        continue
                    if len(schema_report.violations) < max_violations_per_schema:
                        schema_report.violations.append(
                            _record(schema.name, instance, run.name, k,
                                    evaluator, run, k)
                        )
            attrs["instances"] = schema_report.instances
            attrs["points"] = schema_report.points_checked
    perf.observe_cache_peaks()
    return report


def _record(
    name: str,
    instance: Formula,
    run_name: str,
    time: int,
    evaluator: Evaluator,
    run,
    k,
) -> ViolationRecord:
    transparent_body: bool | None = None
    if name == "A11":
        # instance is (Sees(P, c) & Has(P, K)) -> Believes(P, Sees(P, c))
        assert isinstance(instance, Implies)
        antecedent = instance.antecedent
        assert isinstance(antecedent, And)
        sees = antecedent.left
        assert isinstance(sees, Sees)
        cipher = sees.message
        assert isinstance(cipher, Encrypted)
        principal = sees.principal
        assert isinstance(principal, Principal)
        keys = run.keyset(principal, k)
        transparent_body = transparent(cipher, frozenset(keys))
    return ViolationRecord(name, instance, run_name, time, transparent_body)


def sweep_systems(
    systems: Iterable[System],
    schemas: tuple[Schema, ...] | None = None,
    goodruns: GoodRunVector | None = None,
    max_instances_per_schema: int = DEFAULT_MAX_INSTANCES_PER_SCHEMA,
    pattern_hide: bool = False,
    max_violations_per_schema: int = DEFAULT_MAX_VIOLATIONS_PER_SCHEMA,
    engine: str = DEFAULT_ENGINE,
    backend: str = DEFAULT_BACKEND,
) -> SweepReport:
    """Merge sweeps over several systems (the E3 experiment driver).

    All knobs — including ``goodruns`` and ``max_violations_per_schema``
    — are forwarded to every per-system sweep, and the reports merge in
    system order.
    """
    total = SweepReport()
    for system in systems:
        total.merge(
            sweep_system(
                system, schemas, goodruns, max_instances_per_schema,
                pattern_hide, max_violations_per_schema, engine, backend,
            )
        )
    return total
