"""Tests for the differential fuzzing and fault-injection subsystem.

The fuzzer's own acceptance run (``python -m repro fuzz --seed 0
--iterations 200``) is the integration test; here each piece is pinned
in isolation: every mutator's injected fault is classified exactly,
``deintern`` really produces structurally-equal non-canonical clones,
the shrinker minimizes a failing run without losing the failure, and
the harness/CLI smoke-run stays green on a fixed seed.
"""

from __future__ import annotations

import json
import random

import pytest

from repro import context
from repro.__main__ import main
from repro.errors import ProofError
from repro.fuzz import (
    MUTATORS,
    PROOF_MUTATORS,
    FuzzConfig,
    ProofMutation,
    apply_random_mutator,
    apply_random_proof_mutator,
    check_clean_system,
    check_engine_replay,
    check_interpretation_agreement,
    check_mutation,
    check_proof_mutation,
    deintern,
    describe_proof,
    describe_run,
    generate_base_system,
    randomize_interpretation,
    replay_rules,
    run_fuzz,
    sample_assumptions,
    shrink_proof,
    shrink_run,
)
from repro.fuzz import harness
from repro.fuzz import mutators as mutators_module
from repro.fuzz import proof_mutators as proof_mutators_module
from repro.fuzz.generate import iteration_rng
from repro.fuzz.goodruns_oracles import ENGINE_VARIANTS
from repro.fuzz.harness import GOODRUNS_ASSUMPTIONS, REPLAY_ASSUMPTIONS
from repro.logic.engine import Inference
from repro.logic.facts import Fact
from repro.logic.proof import ProofBuilder
from repro.model.wellformed import violation_classes
from repro.semantics.evaluator import Evaluator
from repro.soundness import GeneratorConfig, generate_system
from repro.terms.atoms import Key, Principal, Sort
from repro.terms.formulas import Believes, Says, Sees, SharedKey
from repro.terms.messages import encrypted, group
from repro.terms.ops import is_ground


@pytest.fixture(scope="module")
def systems():
    return [
        generate_system(GeneratorConfig(seed=seed, runs=2, steps_per_run=10))
        for seed in (0, 1, 2)
    ]


def _first_application(name, systems, attempts=30):
    """The first (mutation, base run) the named mutator yields over a
    deterministic schedule of runs and RNG streams."""
    mutator = MUTATORS[name]
    for attempt in range(attempts):
        rng = random.Random(f"test:{name}:{attempt}")
        for system in systems:
            for run in system.runs:
                mutation = mutator(rng, run)
                if mutation is not None:
                    return mutation, run
    return None, None


class TestMutators:
    @pytest.mark.parametrize("name", sorted(MUTATORS))
    def test_injected_fault_classified_exactly(self, name, systems):
        mutation, base = _first_application(name, systems)
        assert mutation is not None, f"{name} never applied on fixed seeds"
        # The base run is clean, the mutant is flagged as tagged — and
        # as *only* what was tagged (every mutator is surgical/exact).
        assert violation_classes(base) == frozenset()
        assert violation_classes(mutation.run) == mutation.expected
        assert mutation.exact
        assert check_mutation(mutation) is None

    def test_benign_mutator_preserves_wellformedness(self, systems):
        mutation, _base = _first_application("duplicate_send", systems)
        assert mutation is not None
        assert mutation.expected == frozenset()
        assert violation_classes(mutation.run) == frozenset()

    def test_apply_random_mutator_deterministic(self, systems):
        run = systems[0].runs[0]
        first = apply_random_mutator(random.Random("fixed"), run)
        second = apply_random_mutator(random.Random("fixed"), run)
        assert first is not None and second is not None
        assert first.name == second.name
        assert first.run == second.run

    def test_generated_systems_are_clean(self, systems):
        for system in systems:
            assert check_clean_system(system) == []


class TestDeintern:
    def test_clone_is_equal_but_not_canonical(self):
        from repro.terms.atoms import Key, Nonce, Principal

        term = group(
            encrypted(Nonce("N1"), Key("K1"), Principal("A")), Nonce("N2")
        )
        clone = deintern(term)
        assert clone is not term
        assert clone == term
        assert hash(clone) == hash(term)
        # Subterms are cloned too — nothing canonical leaks through.
        assert clone.parts[0] is not term.parts[0]

    def test_clone_formula_evaluates_identically(self, systems):
        from repro.semantics.evaluator import Evaluator

        system = systems[0]
        from repro.terms.atoms import Sort

        principal = system.principals()[0]
        key = system.vocabulary.constants(Sort.KEY)[0]
        run = system.runs[0]
        formula = Believes(principal, Says(principal, key))
        clone = deintern(formula)
        assert clone == formula
        evaluator = Evaluator(system)
        for k in run.times:
            assert evaluator.evaluate(clone, run, k) == evaluator.evaluate(
                formula, run, k
            )


class TestShrink:
    def test_shrinks_injected_fault_to_minimum(self, systems):
        mutation, _base = _first_application("receive_unsent", systems)
        assert mutation is not None
        expected = mutation.expected

        def still_fails(candidate):
            return violation_classes(candidate) == expected

        minimal = shrink_run(mutation.run, still_fails)
        assert violation_classes(minimal) == expected
        assert len(minimal.states) <= len(mutation.run.states)
        # The orphan receive needs no other traffic: greedy removal
        # strips the well-formed prefix down to (almost) nothing.
        history = minimal.states[-1].env.history
        assert len(history) <= 2

    def test_shrink_keeps_run_valid(self, systems):
        mutation, _base = _first_application("shrink_keyset", systems)
        assert mutation is not None
        minimal = shrink_run(
            mutation.run,
            lambda candidate: "WF1" in violation_classes(candidate),
        )
        # Still a structurally valid run: describable, time window intact.
        lines = describe_run(minimal)
        assert lines and minimal.start_time <= 0 <= minimal.end_time

    def test_shrink_noop_on_predicate_never_failing_smaller(self, systems):
        run = systems[0].runs[0]
        result = shrink_run(run, lambda candidate: candidate is run)
        assert result is run


class TestHarness:
    def test_fixed_seed_campaign_is_green_and_reproducible(self):
        config = FuzzConfig(seed=7, iterations=6)
        first = run_fuzz(config)
        second = run_fuzz(config)
        assert first.ok, [c.to_json() for c in first.counterexamples]
        assert first.iterations == 6
        assert first.to_json()["mutations"] == second.to_json()["mutations"]
        assert first.oracle_checks == second.oracle_checks
        assert sum(s.applied for s in first.mutations.values()) > 0
        assert first.oracle_checks.get("cache_differential", 0) > 0
        assert first.oracle_checks.get("hide_differential", 0) > 0
        assert first.oracle_checks.get("hide_views", 0) > 0

    def test_span_summary_counts_every_iteration(self, monkeypatch):
        # The summary comes from the iterations' own telemetry, so a
        # caller's small span buffer cannot truncate it.
        monkeypatch.setattr("repro.obs.spans.CAPACITY", 16)
        with context.scoped("fuzz-small-buffer"):
            report = run_fuzz(FuzzConfig(seed=0, iterations=10,
                                         oracles=("interpretation",)))
        assert report.spans["fuzz.iteration"]["count"] == 10

    def test_row_span_counts_runs_not_iterations(self, monkeypatch):
        def every_other(work):
            if work.iteration % 2:
                return None  # the row did not run
            return harness.Verdict({"every_other": 1}, [])

        monkeypatch.setattr(harness, "ROWS", (
            ("interpretation", "every_other", every_other),))
        with context.scoped("fuzz-row-spans"):
            report = run_fuzz(FuzzConfig(seed=0, iterations=6,
                                         oracles=("interpretation",)))
        assert report.oracle_checks == {"every_other": 3}
        assert report.spans["fuzz.every_other"]["count"] == 3
        assert report.spans["fuzz.iteration"]["count"] == 6

    def test_generate_base_system_deterministic(self):
        config = FuzzConfig(seed=3)
        system_a, _ = generate_base_system(config, 5)
        system_b, _ = generate_base_system(config, 5)
        assert [run.name for run in system_a.runs] == [
            run.name for run in system_b.runs
        ]
        assert system_a.runs[0].states == system_b.runs[0].states
        assert iteration_rng(config, 5).random() == iteration_rng(
            config, 5
        ).random()


class TestCli:
    def test_fuzz_subcommand_smoke(self, tmp_path, capsys):
        report_path = tmp_path / "FUZZ_report.json"
        code = main(
            [
                "fuzz",
                "--seed", "0",
                "--iterations", "4",
                "--report", str(report_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "fuzz: seed=0 iterations=4" in out
        assert "OK" in out
        record = json.loads(report_path.read_text())
        assert record["ok"] is True
        assert record["iterations"] == 4
        assert record["counterexamples"] == []
        assert set(record["mutations"]) <= set(MUTATORS)

    def test_fuzz_oracles_flag_selects_families(self, tmp_path, capsys):
        report_path = tmp_path / "FUZZ_subset.json"
        code = main(
            [
                "fuzz",
                "--seed", "0",
                "--iterations", "2",
                "--report", str(report_path),
                "--oracles", "engine_replay,proof_mutation",
            ]
        )
        capsys.readouterr()
        assert code == 0
        record = json.loads(report_path.read_text())
        assert "engine_replay" in record["oracle_checks"]
        assert "wf_classification" not in record["oracle_checks"]
        assert "cache_differential" not in record["oracle_checks"]
        assert "proof_mutations" in record

    def test_fuzz_oracles_flag_rejects_unknown_family(self, capsys):
        code = main(["fuzz", "--iterations", "1", "--oracles", "bogus"])
        out = capsys.readouterr().out
        assert code == 2
        assert "unknown oracle families" in out

    @pytest.mark.parametrize("selection", [",", ""])
    def test_fuzz_oracles_flag_rejects_empty_selection(
        self, tmp_path, capsys, selection
    ):
        # A campaign that checks nothing must not pass.
        report_path = tmp_path / "FUZZ_report.json"
        code = main(["fuzz", "--iterations", "1", "--oracles", selection,
                     "--report", str(report_path)])
        out = capsys.readouterr().out
        assert code == 2
        assert "no oracle family selected" in out
        assert not report_path.exists()


class TestMutatorRegistryOrder:
    """The seeded mutation schedule is pinned to *name-sorted* registry
    iteration: re-registering mutators in any insertion order must not
    change what a fixed seed reproduces."""

    def test_seeded_sequence_invariant_under_insertion_order(
        self, systems, monkeypatch
    ):
        run = systems[0].runs[0]

        def sequence():
            rng = random.Random(7)
            names = []
            for _ in range(10):
                mutation = apply_random_mutator(rng, run)
                names.append(None if mutation is None else mutation.name)
            return names

        baseline = sequence()
        assert any(name is not None for name in baseline)
        reordered = dict(reversed(list(mutators_module.MUTATORS.items())))
        assert list(reordered) != list(mutators_module.MUTATORS)
        monkeypatch.setattr(mutators_module, "MUTATORS", reordered)
        assert sequence() == baseline

    def test_proof_mutator_sequence_invariant_under_insertion_order(
        self, monkeypatch
    ):
        proof = _sample_proof()

        def sequence():
            rng = random.Random(11)
            return [
                apply_random_proof_mutator(rng, proof).name
                for _ in range(10)
            ]

        baseline = sequence()
        reordered = dict(
            reversed(list(proof_mutators_module.PROOF_MUTATORS.items()))
        )
        assert list(reordered) != list(proof_mutators_module.PROOF_MUTATORS)
        monkeypatch.setattr(
            proof_mutators_module, "PROOF_MUTATORS", reordered
        )
        assert sequence() == baseline


def _sample_proof():
    """A small checked proof exercising every justification kind."""
    a, b = Principal("FZa"), Principal("FZb")
    key = Key("FZk")
    builder = ProofBuilder()
    axiom = builder.axiom("A21", a, key, b)
    premise = builder.premise(SharedKey(a, key, b))
    builder.mp(premise, axiom)
    builder.necessitate(axiom, a)
    return builder.build()


class _UnsoundSeesSays:
    """A deliberately unsound planted rule: P sees X ⊢ P says X."""

    name = "BAD"
    justification = "deliberately unsound test fixture"

    def apply(self, index, pool):
        for prefix in index.prefixes():
            for fact in index.with_body_type(prefix, Sees):
                yield Inference(
                    Fact(prefix, Says(fact.body.principal, fact.body.message)),
                    self.name,
                    (fact,),
                )


class TestProofMutators:
    def test_every_mutator_applies_and_checker_verdict_matches(self):
        proof = _sample_proof()
        seen = set()
        for name, mutator in PROOF_MUTATORS.items():
            for attempt in range(20):
                rng = random.Random(f"pm:{name}:{attempt}")
                mutation = mutator(rng, proof)
                if mutation is None:
                    continue
                seen.add(name)
                assert mutation.name == name
                assert check_proof_mutation(mutation, proof) is None
                if mutation.expectation == "reject":
                    with pytest.raises(ProofError):
                        mutation.proof.check()
                elif mutation.expectation == "accept":
                    mutation.proof.check()
                break
        assert seen == set(PROOF_MUTATORS)

    def test_accepted_reject_mutant_is_flagged(self):
        # Wrap the *unchanged* proof in a reject-tagged mutation: the
        # checker accepts it, so the oracle must report a failure.
        proof = _sample_proof()
        bogus = ProofMutation("fake", proof, "reject", "no-op corruption")
        failure = check_proof_mutation(bogus, proof)
        assert failure is not None
        assert "accepted" in failure.description

    def test_checker_crash_is_flagged_not_raised(self):
        # A proof whose check() raises a non-ProofError must surface as
        # a counterexample, not as an exception out of the oracle.
        proof = _sample_proof()

        class CrashingProof:
            premises = ()
            conclusion = None

            def check(self):
                raise KeyError("dangling")

        mutation = ProofMutation(
            "crash", CrashingProof(), "reject", "synthetic"
        )
        failure = check_proof_mutation(mutation, proof)
        assert failure is not None
        assert "crashed" in failure.description
        assert "KeyError" in failure.description

    def test_shrink_proof_minimizes_while_predicate_holds(self):
        proof = _sample_proof()
        minimal = shrink_proof(proof, lambda candidate: True)
        assert len(minimal.steps) == 1
        untouched = shrink_proof(proof, lambda candidate: False)
        assert untouched is proof
        assert describe_proof(minimal)[0] == "proof: 1 step(s)"


class TestEngineReplay:
    def test_replay_rules_exclude_known_a11_caveat(self):
        names = [rule.name for rule in replay_rules()]
        assert "A11" not in names
        assert "A11+" in names

    def test_sampled_assumptions_are_true_and_ground(self, systems):
        system = systems[0]
        rng = random.Random(5)
        evaluator = Evaluator(system)
        run = system.runs[0]
        k = run.end_time
        assumptions = sample_assumptions(rng, system, evaluator, run, k, 6)
        assert assumptions
        for formula in assumptions:
            assert is_ground(formula)
            assert evaluator.evaluate(formula, run, k)

    def test_clean_replay_finds_no_failures(self, systems):
        system = systems[0]
        rng = random.Random(9)
        evaluator = Evaluator(system)
        for run in system.runs:
            k = run.end_time
            assumptions = sample_assumptions(
                rng, system, evaluator, run, k, 6
            )
            failures, derivation = check_engine_replay(
                evaluator, run, k, assumptions
            )
            assert failures == []
            assert derivation is not None

    def test_planted_unsound_rule_is_caught_and_shrunk(self, tmp_path):
        # Seed re-pinned when the goodruns_construction family joined
        # the campaign (the added rng draws shifted every workload).
        config = FuzzConfig(seed=0, iterations=5)
        rules = replay_rules() + (_UnsoundSeesSays(),)
        report = run_fuzz(config, replay_rules=rules)
        assert not report.ok
        found = [
            c
            for c in report.counterexamples
            if c.failure.oracle == "engine_replay"
        ]
        assert found
        example = found[0]
        assert example.failure.formula is not None
        assumed = [
            line for line in example.script if line.startswith("assume: ")
        ]
        assert 0 < len(assumed) <= REPLAY_ASSUMPTIONS + 3
        # Every counterexample carries its iteration's flight-recorder
        # tail under the deterministic correlation ID, and the same ID
        # is stamped on the iteration's span records — one corr value
        # ties the failure, its events, and its timings together.
        assert example.corr_id == f"fuzz-0-{example.iteration}"
        assert example.journal
        assert all(e["corr"] == example.corr_id for e in example.journal)
        assert any(
            e["kind"] == "oracle_verdict" for e in example.journal
        )
        from repro.obs import spans as obs_spans

        corr_spans = [
            s for s in obs_spans.snapshot()
            if s.get("attrs", {}).get("corr") == example.corr_id
        ]
        assert corr_spans
        report_path = tmp_path / "FUZZ_report.json"
        report.write(str(report_path))
        record = json.loads(report_path.read_text())
        assert record["ok"] is False
        assert any(
            c["failure"]["oracle"] == "engine_replay" and c["script"]
            for c in record["counterexamples"]
        )
        # The journal tail survives the JSON round trip, and the report
        # is stamped with run metadata and a span summary.
        written = next(
            c for c in record["counterexamples"]
            if c["failure"]["oracle"] == "engine_replay"
        )
        assert written["corr_id"] == example.corr_id
        assert written["journal"]
        assert record["meta"]["command"] == "fuzz"
        assert record["spans"]


class TestInterpretationFuzzing:
    def test_randomized_interpretation_is_seeded_and_picklable(
        self, systems
    ):
        import pickle

        system = systems[0]
        first = randomize_interpretation(random.Random(3), system)
        second = randomize_interpretation(random.Random(3), system)
        propositions = sorted(system.constants(Sort.PROPOSITION), key=str)
        assert propositions
        points = [
            (run, k) for run in system.runs for k in run.times
        ]
        for proposition in propositions:
            for run, k in points:
                assert first.interpretation.holds(
                    proposition, run, k
                ) == second.interpretation.holds(proposition, run, k)
        thawed = pickle.loads(pickle.dumps(first.interpretation))
        for proposition in propositions:
            for run, k in points:
                assert thawed.holds(proposition, run, k) == (
                    first.interpretation.holds(proposition, run, k)
                )

    def test_randomization_actually_varies_across_seeds(self, systems):
        system = systems[0]
        propositions = sorted(system.constants(Sort.PROPOSITION), key=str)
        points = [(run, k) for run in system.runs for k in run.times]

        def fingerprint(seed):
            twin = randomize_interpretation(random.Random(seed), system)
            return tuple(
                twin.interpretation.holds(proposition, run, k)
                for proposition in propositions
                for run, k in points
            )

        assert len({fingerprint(seed) for seed in range(10)}) > 1

    def test_agreement_oracle_clean_on_randomized_system(self, systems):
        system = randomize_interpretation(random.Random(1), systems[0])
        points = [
            (run, k)
            for run in system.runs
            for k in (run.start_time, 0, run.end_time)
        ]
        assert check_interpretation_agreement(system, points) == []


class TestOracleSelection:
    def test_subset_campaign_runs_only_selected_families(self):
        config = FuzzConfig(
            seed=2,
            iterations=3,
            oracles=("engine_replay", "proof_mutation"),
        )
        report = run_fuzz(config)
        assert report.ok
        assert "engine_replay" in report.oracle_checks
        assert "wf_classification" not in report.oracle_checks
        assert "cache_differential" not in report.oracle_checks
        assert "prim_agreement" not in report.oracle_checks

    def test_unknown_family_raises(self):
        with pytest.raises(ValueError, match="unknown oracle families"):
            run_fuzz(FuzzConfig(iterations=1, oracles=("bogus",)))

    def test_empty_selection_raises(self):
        with pytest.raises(ValueError, match="no oracle family selected"):
            FuzzConfig(oracles=())


def _skip_first_stratum(system, assumptions, pattern_hide=False,
                        engine="worklist", backend="belief"):
    """A planted construction bug: the depth-1 strata never filter."""
    from repro.goodruns.construction import ConstructionResult
    from repro.semantics.compiler import compiled_for
    from repro.semantics.goodvectors import GoodRunVector

    all_names = frozenset(run.name for run in system.runs)
    current = {p: all_names for p in system.principals()}
    stages = [GoodRunVector.of(current)]
    for depth in range(1, assumptions.max_depth + 1):
        evaluator = compiled_for(system, stages[-1],
                                 pattern_hide=pattern_hide)
        updated = {}
        for principal in system.principals():
            good = current[principal]
            if depth != 1:  # the planted bug
                for formula in assumptions.stratum(principal, depth):
                    good = frozenset(
                        name for name in sorted(good)
                        if evaluator.evaluate(
                            formula.body, system.run(name), 0
                        )
                    )
            updated[principal] = good
        current = updated
        stages.append(GoodRunVector.of(current))
    return ConstructionResult(stages[-1], tuple(stages))


class TestGoodrunsFamilyInHarness:
    """The goodruns_construction family wired end to end."""

    def test_goodruns_campaign_is_green(self):
        config = FuzzConfig(
            seed=0, iterations=4,
            oracles=("goodruns_construction",),
        )
        report = run_fuzz(config)
        assert report.ok, [c.to_json() for c in report.counterexamples]
        assert report.oracle_checks.get("goodruns_construction", 0) > 0

    def test_planted_stratum_skip_is_caught_and_shrunk(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(
            "repro.fuzz.goodruns_oracles.construct_good_runs",
            _skip_first_stratum,
        )
        config = FuzzConfig(
            seed=0, iterations=4,
            oracles=("goodruns_construction",),
        )
        report = run_fuzz(config)
        assert not report.ok
        found = [
            c for c in report.counterexamples
            if c.failure.oracle == "goodruns_support"
        ]
        assert found
        example = found[0]
        # The script is the shrunk assumption vector — a handful of
        # entries, not the whole sampled workload.
        assert example.script[0].startswith("assumptions:")
        entries = len(example.script) - 1
        assert 0 < entries <= GOODRUNS_ASSUMPTIONS + 2
        report_path = tmp_path / "FUZZ_goodruns_report.json"
        report.write(str(report_path))
        record = json.loads(report_path.read_text())
        assert record["ok"] is False
        assert any(
            c["failure"]["oracle"].startswith("goodruns_")
            for c in record["counterexamples"]
        )


class TestGoodrunsEnginesUnderEveryVariant:
    """The construction row compares the two engines under every
    (backend, hide) variant, not only its own (belief, collapse)."""

    @pytest.mark.parametrize("bug_backend,bug_hide", ENGINE_VARIANTS)
    def test_worklist_bug_in_one_variant_is_caught(
        self, monkeypatch, bug_backend, bug_hide
    ):
        from repro.goodruns.construction import (
            ConstructionResult,
            construct_good_runs,
        )

        def construct(system, assumptions, pattern_hide=False,
                      engine="worklist", backend="belief"):
            result = construct_good_runs(
                system, assumptions, pattern_hide=pattern_hide,
                engine=engine, backend=backend,
            )
            if (engine, backend, pattern_hide) != (
                "worklist", bug_backend, bug_hide
            ):
                return result
            # The bug: the worklist engine repeats its last stage.
            return ConstructionResult(
                result.vector, result.stages + result.stages[-1:]
            )

        monkeypatch.setattr(
            "repro.fuzz.goodruns_oracles.construct_good_runs", construct
        )
        report = run_fuzz(FuzzConfig(
            seed=0, iterations=4, oracles=("goodruns_construction",),
        ))
        assert report.counterexamples
        for example in report.counterexamples:
            assert example.failure.oracle == "goodruns_engines"
            assert f"({bug_backend}, pattern_hide={bug_hide})" in (
                example.failure.description)
        assert report.oracle_checks["goodruns_engines"] == 4 * (
            report.oracle_checks["goodruns_construction"])


def _drop_a_run_at_depth_one(system, assumptions, pattern_hide=False,
                             engine="worklist", backend="belief"):
    """A planted construction bug: a depth-1 fixpoint loses the first
    good run of its first principal that has one."""
    from repro.goodruns.construction import (
        ConstructionResult,
        construct_good_runs,
    )
    from repro.semantics.goodvectors import GoodRunVector

    result = construct_good_runs(system, assumptions, pattern_hide=pattern_hide,
                                 engine=engine, backend=backend)
    if assumptions.max_depth != 1:
        return result
    entries = dict(result.vector.entries)
    for principal, names in result.vector.entries:
        if names:
            entries[principal] = names - {min(names)}
            break
    vector = GoodRunVector.of(entries)
    return ConstructionResult(vector, result.stages[:-1] + (vector,))


class TestOptimalityOnTheDepthOneRestriction:
    """Theorem 3's brute-force check runs on every sampled vector's
    depth-1 restriction, the assumptions where its premises hold."""

    def test_every_campaign_iteration_runs_the_check(self):
        report = run_fuzz(FuzzConfig(
            seed=0, iterations=4, oracles=("goodruns_construction",),
        ))
        assert report.ok, [c.to_json() for c in report.counterexamples]
        assert report.oracle_checks["goodruns_optimal"] == 4

    def test_restriction_keeps_the_belief_free_assumptions(self):
        from repro.fuzz.goodruns_oracles import (
            optimality_restriction,
            sample_assumption_vector,
        )
        from repro.terms.ops import walk

        system = generate_system(GeneratorConfig(seed=0, runs=3))
        assumptions = sample_assumption_vector(random.Random(0), system, 4)
        assert assumptions.max_depth == 2
        restricted = optimality_restriction(system, assumptions)
        assert restricted.max_depth == 1 and restricted.satisfies_i2()
        kept = set(restricted.all_formulas())
        assert kept == {
            (principal, formula)
            for principal, formula in assumptions.all_formulas()
            if sum(isinstance(node, Believes) for node in walk(formula)) == 1
        }

    def test_dropped_run_in_a_depth_one_fixpoint_is_caught(self, monkeypatch):
        monkeypatch.setattr(
            "repro.fuzz.goodruns_oracles.construct_good_runs",
            _drop_a_run_at_depth_one,
        )
        report = run_fuzz(FuzzConfig(
            seed=0, iterations=4, oracles=("goodruns_construction",),
        ))
        assert report.counterexamples
        for example in report.counterexamples:
            assert example.failure.oracle == "goodruns_optimal"
            assert "not the brute-force maximum" in example.failure.description


class TestCompiledAtAVector:
    """The compiled row holds a compilation at a restricting good-run
    vector to the interpreter, not only the top compilation."""

    def test_vector_blind_compilation_is_caught(self, monkeypatch):
        from repro.semantics.compiler import CompiledSystem

        honest = CompiledSystem._belief_groups_for

        def ignores_vector(self, principal):
            # The planted bug: possibility sets at a vector are the
            # top compilation's, every run good.
            return honest(self._top or self, principal)

        monkeypatch.setattr(CompiledSystem, "_belief_groups_for",
                            ignores_vector)
        report = run_fuzz(FuzzConfig(seed=0, iterations=4,
                                     oracles=("compiled",)))
        assert report.counterexamples
        for example in report.counterexamples:
            assert example.failure.oracle == "compiled_vs_interpreted"
            # Only the vector case sees it: the compilations at no
            # vector, all the row compared before, stay clean.
            assert example.script[0].startswith("vector: G(")
            assert example.trace


class TestHideMonotonicityPlantedBug:
    """The widened (nested-belief) hide oracle catches a weakened
    pattern refinement."""

    @staticmethod
    def _workload():
        from repro.goodruns import build_cointoss_example

        example = build_cointoss_example()
        nested = Believes(
            example.p2, Believes(example.p2, example.heads)
        )
        points = [(run, 0) for run in example.system.runs]
        return example.system, nested, points

    def test_real_pattern_hide_is_quiet(self):
        from repro.fuzz import check_hide_differential

        system, nested, points = self._workload()
        assert check_hide_differential(system, [nested], points) == []

    def test_weakened_pattern_hide_is_caught(self, monkeypatch):
        from repro.fuzz import check_hide_differential
        from repro.semantics.hide import hidden_run_views as real_views

        system, nested, points = self._workload()

        def weakened(run, principal, pattern, nodes):
            # The bug: pattern-hide collapses every state to one view,
            # coarsening indistinguishability instead of refining it.
            if pattern:
                return [("weakened", principal)] * len(run.times)
            return real_views(run, principal, False, nodes)

        monkeypatch.setattr(
            "repro.semantics.evaluator.hidden_run_views", weakened
        )
        failures = check_hide_differential(system, [nested], points)
        assert any(f.oracle == "hide_monotonicity" for f in failures)


class TestHideViewsPlantedBug:
    """The walked-view oracle catches a walk that never restarts when
    the key set changes."""

    @staticmethod
    def _system():
        from repro.model import RunBuilder, System
        from repro.terms.atoms import Nonce

        a, b = Principal("A"), Principal("B")
        inner, outer = Key("K2"), Key("K")

        def late_key_run(payload):
            # A reads {payload}_K2 only after a later newkey(K2).
            builder = RunBuilder([a, b], keysets={a: [outer], b: [outer, inner]})
            builder.send(b, encrypted(payload, inner, b), a)
            builder.receive(a)
            builder.newkey(a, inner)
            return builder.build(f"late-key-{payload}")

        return System((late_key_run(Nonce("N")), late_key_run(Nonce("M"))))

    @staticmethod
    def _stale_walk(run, principal, pattern, nodes):
        """The bug: an action stays hidden under the key set it was
        first hidden under, so a later key never reveals it."""
        from repro.semantics.hide import (
            _hide_action,
            hidden_run_views,
            hide_message,
        )

        if pattern or principal == run.environment:
            return hidden_run_views(run, principal, pattern, nodes)
        views, node, done = [], 0, 0
        for k in run.times:
            local = run.local(principal, k)
            for action in local.history[done:]:
                hidden = _hide_action(local.keys, action, hide_message)
                node = nodes.setdefault((node, hidden), len(nodes) + 1)
            done = len(local.history)
            views.append(("local", node, local.keys, local.data))
        return views

    def test_real_walk_is_quiet(self):
        from repro.fuzz import check_hide_differential

        assert check_hide_differential(self._system(), [], []) == []

    def test_walk_without_key_restart_is_caught(self, monkeypatch):
        from repro.fuzz import check_hide_differential

        monkeypatch.setattr(
            "repro.semantics.evaluator.hidden_run_views", self._stale_walk
        )
        failures = check_hide_differential(self._system(), [], [])
        assert [f.oracle for f in failures] == ["hide_views"]
        assert failures[0].description.startswith("A (collapse-hide)")


class TestSaidEntriesPlantedBugs:
    """The said-entry oracle catches a walk that loses sends the
    per-time definition counts."""

    @staticmethod
    def _walk_without_env_fallback(run, principal):
        """The bug: the environment always takes the new global-history
        entries, also when the history does not extend the previous one."""
        from repro.model import Send

        before = None
        for k, state in enumerate(run.states, run.start_time):
            if principal != run.environment:
                now = state.local(principal).history
                new = now if before is None else now[len(before):]
            else:
                now = state.env.history
                start = 0 if before is None else len(before)
                new = tuple(action for who, action in now[start:]
                            if who == principal)
            before = now
            sends = tuple(a for a in new if isinstance(a, Send))
            if sends:
                yield k, sends

    def test_real_walk_is_quiet(self):
        from repro.fuzz.oracles import check_said_entries
        from tests.test_semantics_evaluator import edge_system

        assert check_said_entries(edge_system()) == []

    @pytest.mark.parametrize("bug", ["env_fallback", "first_time"])
    def test_lossy_walk_is_caught(self, monkeypatch, bug):
        from repro.fuzz.oracles import check_said_entries
        from repro.model import Run
        from tests.test_semantics_evaluator import edge_system

        real = Run.sends_by_time

        def walk_from_second_time(run, principal):
            # The bug: the walk skips the window's first time.
            return ((k, sends) for k, sends in real(run, principal)
                    if k > run.start_time)

        monkeypatch.setattr(Run, "sends_by_time", {
            "env_fallback": self._walk_without_env_fallback,
            "first_time": walk_from_second_time,
        }[bug])
        failures = check_said_entries(edge_system())
        assert failures and {f.oracle for f in failures} == {"said_entries"}
        # In the edge runs the environment sends at 2, in a rewritten
        # global history, and A has already sent at the first time, -2.
        lost = {"env_fallback": {"Env"}, "first_time": {"A"}}[bug]
        assert {f.description.split(":")[0] for f in failures} == lost


def _plant_wf2_blindness(monkeypatch):
    """The WF checker the oracles call never reports WF2."""
    from repro.fuzz import oracles

    real = oracles.violation_classes
    monkeypatch.setattr(
        oracles, "violation_classes", lambda run: real(run) - {"WF2"}
    )


def _plant_always_believes(monkeypatch):
    """The epistemic backend compiles to an always-true Believes."""
    from repro.semantics.epistemic import EpistemicBackend
    from tests.test_semantics_backend import _AlwaysBelievesSystem

    monkeypatch.setattr(
        EpistemicBackend, "compile",
        lambda self, system, goodruns=None, pattern_hide=False:
            _AlwaysBelievesSystem(system, goodruns, pattern_hide=pattern_hide),
    )


def _plant_accepting_checker(monkeypatch):
    """The proof checker accepts every proof."""
    from repro.logic.proof import Proof

    monkeypatch.setattr(Proof, "check", lambda self: None)


class TestShrinkingRowsPlantedBugs:
    """A planted bug driven through ``run_fuzz`` reaches each shrinking
    row's shrinker: every counterexample carries a minimal artifact.
    The unshrunk mutated runs, sampled vectors (non-empty in iterations
    1-3) and certified proofs (at least two steps) are all larger."""

    @pytest.mark.parametrize(
        "plant, iterations, oracles, oracle, count, shrunk",
        [
            (
                _plant_wf2_blindness, 12, ("wf",), "wf_classification", 3,
                lambda script: len(script) == 1
                and script[0].startswith("run '")
                and ": times 0..0, " in script[0],
            ),
            (
                _plant_always_believes, 4, ("cross_backend",), "cross_backend",
                76, lambda script: script[0] == "vector: G()",
            ),
            (
                _plant_accepting_checker, 4,
                ("engine_replay", "proof_mutation"), "proof_mutation", 3,
                lambda script: script[0] == "proof: 1 step(s)",
            ),
        ],
        ids=["wf_classification", "cross_backend", "proof_mutation"],
    )
    def test_counterexamples_are_shrunk(
        self, monkeypatch, plant, iterations, oracles, oracle, count, shrunk
    ):
        plant(monkeypatch)
        report = run_fuzz(FuzzConfig(
            seed=0, iterations=iterations, oracles=oracles,
        ))
        assert [c.failure.oracle for c in report.counterexamples] == (
            [oracle] * count
        )
        for example in report.counterexamples:
            assert shrunk(example.script), example.script
