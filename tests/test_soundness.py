"""Tests for the soundness harness: generators, sweep, incompleteness, audit."""

import inspect
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.logic import paper_schemas, schema
from repro.model import RunBuilder, check_run, system_of
from repro.protocols import forwarding, kerberos
from repro.semantics import GoodRunVector
from repro.soundness import (
    DEFAULT_MAX_INSTANCES_PER_SCHEMA,
    GeneratorConfig,
    audit_protocol,
    check_incompleteness,
    generate_system,
    generate_systems,
    incompleteness_formula,
    pool_from_system,
    sweep_system,
    sweep_systems,
)
from repro.terms import (
    Key,
    Nonce,
    Principal,
    Says,
    Vocabulary,
    encrypted,
    group,
)
from tests.strategies import sweep_fingerprint


def _a11_violation_system():
    """The documented A11 nesting counterexample: B sends A a ciphertext
    A can open whose body nests one A cannot."""
    vocab = Vocabulary()
    A, B = vocab.principals("A", "B")
    K1, K2 = vocab.keys("K1", "K2")
    N1, N2, N3 = vocab.nonces("N1", "N2", "N3")

    def build(name, inner):
        builder = RunBuilder([A, B], keysets={A: [K1], B: [K1, K2]})
        builder.send(
            B, encrypted(group(N1, encrypted(inner, K2, B)), K1, B), A
        )
        builder.receive(A)
        return builder.build(name)

    return system_of([build("r1", N2), build("r2", N3)], vocabulary=vocab)


class TestGenerators:
    def test_generated_systems_are_wellformed(self):
        system = generate_system(GeneratorConfig(seed=7))
        for run in system.runs:
            assert check_run(run) == [], run.name

    def test_generation_is_deterministic(self):
        a = generate_system(GeneratorConfig(seed=3))
        b = generate_system(GeneratorConfig(seed=3))
        assert a.runs == b.runs

    def test_different_seeds_differ(self):
        a = generate_system(GeneratorConfig(seed=1))
        b = generate_system(GeneratorConfig(seed=2))
        assert a.runs != b.runs

    def test_past_epoch_present(self):
        system = generate_system(GeneratorConfig(seed=0, past_steps=3))
        assert all(run.start_time == -3 for run in system.runs)

    def test_generate_systems_count(self):
        systems = generate_systems(3, base_seed=10)
        assert len(systems) == 3

    def test_generated_systems_are_picklable(self):
        # Built-in interpretations carry data, not closures.
        system = generate_system(GeneratorConfig(seed=1))
        revived = pickle.loads(pickle.dumps(system))
        assert [run.name for run in revived.runs] == [
            run.name for run in system.runs
        ]

    def test_draws_ignore_received_set_iteration_order(self, monkeypatch):
        """A received set that iterates in another order (as term
        hashes make it in another process) yields the same system."""
        from repro.model.builder import RunBuilder

        configs = [GeneratorConfig(seed=seed, runs=6, steps_per_run=30)
                   for seed in (100003, 100005)]
        expected = [generate_system(config).runs for config in configs]
        honest = RunBuilder.received

        class ReverseSorted(frozenset):
            def __iter__(self):
                return iter(sorted(frozenset.__iter__(self), key=str,
                                   reverse=True))

        monkeypatch.setattr(
            RunBuilder, "received",
            lambda self, principal: ReverseSorted(honest(self, principal)),
        )
        assert [generate_system(config).runs for config in configs] == (
            expected
        )

    def test_same_system_and_counters_in_every_process(self):
        """Two processes with different hash seeds generate the same
        systems, and a sweep and a construction on them count the same
        work."""
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=str(Path(repro.__file__).parents[1]))
            done = subprocess.run(
                [sys.executable, "-c", _CROSS_PROCESS_PROBE], env=env,
                capture_output=True, text=True, timeout=300, check=True,
            )
            outputs.append(json.loads(done.stdout))
        assert len(outputs[0]["systems"]) == 40
        for part in ("systems", "sweep", "goodruns"):
            assert outputs[0][part] == outputs[1][part], part


#: Fingerprints of the 6x30 systems at seeds 100000-100039, and the
#: counter tables of one sweep and one construction, each in a fresh
#: context, as one JSON line.
_CROSS_PROCESS_PROBE = """
import json
from repro import context
from repro.goodruns import InitialAssumptions, construct_good_runs
from repro.soundness import GeneratorConfig, generate_system, sweep_system
from repro.terms import Believes
from repro.terms.parser import parse_formula

def fingerprint(system):
    return [
        f"{run.name} {principal}: "
        + "; ".join(map(str, run.history(principal, run.end_time)))
        for run in system.runs for principal in run.all_principals
    ]

systems = [generate_system(GeneratorConfig(seed=seed, runs=6,
                                           steps_per_run=30))
           for seed in range(100000, 100040)]
with context.scoped() as ctx:
    sweep_system(generate_system(GeneratorConfig(seed=249)))
    sweep = dict(ctx.counters)
system = systems[3]
with context.scoped() as ctx:
    # Belief chains, closed under suffixes (I2).
    assignment = {}
    for text in ("P2 believes P3 believes P1 believes P1 <-K3-> P3",
                 "P1 believes P3 believes P2 believes P1 <-K1-> P2",
                 "P3 believes P2 believes P1 believes ~p0"):
        formula = parse_formula(text, system.vocabulary)
        while isinstance(formula, Believes):
            assignment.setdefault(formula.principal, []).append(formula)
            formula = formula.body
    construct_good_runs(system, InitialAssumptions.of(
        {who: tuple(chain) for who, chain in assignment.items()}))
    goodruns = dict(ctx.counters)
print(json.dumps({"systems": [fingerprint(s) for s in systems],
                  "sweep": sweep, "goodruns": goodruns}))
"""


class TestPool:
    def test_pool_has_all_shapes(self):
        system = generate_system(GeneratorConfig(seed=5))
        pool = pool_from_system(system)
        assert pool.principals and pool.keys and pool.messages
        assert pool.encrypted and pool.groups and pool.forwarded
        assert pool.formulas

    def test_environment_excluded_from_principals(self):
        system = generate_system(GeneratorConfig(seed=5))
        pool = pool_from_system(system)
        assert all(p.name != "Env" for p in pool.principals)


class TestSweep:
    def test_theorem1_on_one_system(self):
        """The headline check: every paper axiom holds at every point."""
        system = generate_system(GeneratorConfig(seed=11))
        report = sweep_system(system, max_instances_per_schema=80)
        assert report.total_instances > 0
        assert not report.essential_violations, [
            str(v) for v in report.essential_violations
        ]

    def test_sweep_merging(self):
        reports = sweep_systems(
            generate_systems(2, base_seed=20), max_instances_per_schema=30
        )
        assert reports.total_instances > 0
        assert "TOTAL" in reports.render()

    def test_single_schema_sweep(self):
        system = generate_system(GeneratorConfig(seed=4))
        report = sweep_system(
            system, schemas=(schema("A20"),), max_instances_per_schema=50
        )
        assert set(report.per_schema) == {"A20"}
        assert report.per_schema["A20"].sound

    def test_a11_nesting_counterexample_detected(self):
        """The documented caveat: A11 with an opaque (nested-unreadable)
        body is falsifiable; the sweep classifies it as non-essential."""
        report = sweep_system(_a11_violation_system(),
                              schemas=(schema("A11"),),
                              max_instances_per_schema=200)
        a11 = report.per_schema["A11"]
        assert a11.violations, "expected the nesting counterexample"
        assert all(v.transparent_body is False for v in a11.violations)
        assert not a11.essential_violations


class TestForwardingFixes:
    def test_sweep_systems_forwards_max_violations(self):
        system = _a11_violation_system()
        schemas = (schema("A11"),)
        capped = sweep_systems([system], schemas=schemas,
                               max_instances_per_schema=100,
                               max_violations_per_schema=1)
        uncapped = sweep_systems([system], schemas=schemas,
                                 max_instances_per_schema=100)
        assert len(capped.per_schema["A11"].violations) == 1
        assert len(uncapped.per_schema["A11"].violations) > 1

    def test_sweep_systems_forwards_goodruns(self):
        # A trusting good-run vector restricts belief; forwarding it
        # must produce the same report as the per-system call.
        system = generate_system(GeneratorConfig(seed=5))
        principal = system.principals()[0]
        vector = GoodRunVector.of({principal: [system.runs[0].name]})
        via_systems = sweep_systems([system], goodruns=vector,
                                    max_instances_per_schema=10)
        direct = sweep_system(system, goodruns=vector,
                              max_instances_per_schema=10)
        assert sweep_fingerprint(via_systems) == sweep_fingerprint(direct)

    def test_unified_default_instances(self):
        for fn in (sweep_system, sweep_systems):
            default = inspect.signature(fn).parameters[
                "max_instances_per_schema"
            ].default
            assert default == DEFAULT_MAX_INSTANCES_PER_SCHEMA


class TestIncompleteness:
    def test_formula_shape(self):
        formula = incompleteness_formula(Principal("P"), Key("K"), Nonce("X"))
        assert "controls" in str(formula) and "says" in str(formula)

    def test_valid_but_underivable(self):
        system = generate_system(GeneratorConfig(seed=9))
        principal = system.principals()[0]
        key = system.vocabulary.constants(_key_sort())[0]
        payload = system.vocabulary.constants(_nonce_sort())[0]
        result = check_incompleteness(system, principal, key, payload)
        assert result.validity_counterexample is None
        assert not result.engine_derives
        assert result.reproduces_paper


class TestAudit:
    def test_kerberos_audit_consistent(self):
        protocol = kerberos.at_protocol()
        system = kerberos.build_system()
        report = audit_protocol(protocol, system, "kerberos-normal")
        assert report.consistent, [
            str(e.formula) for e in report.inconsistencies()
        ]

    def test_forwarding_audit_consistent(self):
        protocol = forwarding.at_protocol()
        system = forwarding.build_system()
        report = audit_protocol(protocol, system, "courier-honest")
        assert report.consistent, [
            str(e.formula) for e in report.inconsistencies()
        ]


def _key_sort():
    from repro.terms import Sort

    return Sort.KEY


def _nonce_sort():
    from repro.terms import Sort

    return Sort.NONCE


class TestPatternHideSweep:
    def test_theorem1_under_pattern_hide(self):
        """Theorem 1 also sweeps clean under the identity-preserving
        hide variant (the A11 caveat classification applies to both)."""
        system = generate_system(GeneratorConfig(seed=17))
        report = sweep_system(
            system, max_instances_per_schema=50, pattern_hide=True
        )
        assert report.total_instances > 0
        assert not report.essential_violations

    def test_report_rendering_and_merge(self):
        system = generate_system(GeneratorConfig(seed=18))
        first = sweep_system(system, schemas=(schema("A21"),),
                             max_instances_per_schema=20)
        second = sweep_system(system, schemas=(schema("A21"),),
                              max_instances_per_schema=20)
        first.merge(second)
        assert first.per_schema["A21"].instances == 2 * (
            second.per_schema["A21"].instances
        )
        assert "A21" in first.render()
