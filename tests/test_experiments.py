"""End-to-end assertions for every experiment in EXPERIMENTS.md (E1-E14).

Each test is the mechanical statement of one paper artifact; together
they are the reproduction's headline claims.
"""

import pytest

from repro.analysis import analyze, compare_corpus
from repro.goodruns import (
    build_cointoss_example,
    build_corrected_cointoss_example,
    construct_good_runs,
    optimality_report,
    supports,
)
from repro.model import ENVIRONMENT, system_of
from repro.protocols import forwarding, kerberos, yahalom
from repro.semantics import Evaluator, is_stable
from repro.soundness import (
    GeneratorConfig,
    audit_protocol,
    check_incompleteness,
    generate_system,
    generate_systems,
    sweep_systems,
)
from repro.terms import (
    Believes,
    ForAll,
    Parameter,
    Said,
    Says,
    Sees,
    SharedKey,
    Sort,
    parse_formula,
)


class TestE1FigureOneBAN:
    """E1: the Figure 1 Kerberos fragment analyzed in the BAN logic."""

    def test_goals(self):
        report = analyze(kerberos.ban_protocol())
        outcomes = {r.goal.label: r.achieved for r in report.goal_results}
        assert outcomes == {
            "A-key": True,
            "B-key": True,
            "A-server": True,
            "B-server": True,
        }


class TestE2FigureOneReformulated:
    """E2: the same protocol in the reformulated logic, honesty-free."""

    def test_goals(self):
        report = analyze(kerberos.at_protocol())
        assert report.all_as_expected

    def test_derivation_is_honesty_free(self):
        """The AT derivation of B's key goal never passes through a
        'B believes S believes ...' step."""
        report = analyze(kerberos.at_protocol())
        tree = report.explain_goal("B-key")
        assert "S believes" not in tree
        assert "S says" in tree


class TestE3Theorem1:
    """E3: empirical soundness of A1-A21 (plus S1/S2) over random systems."""

    def test_sweep_clean(self):
        systems = generate_systems(3, base_seed=100)
        report = sweep_systems(systems, max_instances_per_schema=60)
        assert report.total_instances > 500
        assert not report.essential_violations


class TestE4Incompleteness:
    """E4: the valid-but-underivable formula from the end of Section 6."""

    def test_reproduces(self):
        system = generate_system(GeneratorConfig(seed=42))
        principal = system.principals()[0]
        key = system.vocabulary.constants(Sort.KEY)[0]
        payload = system.vocabulary.constants(Sort.NONCE)[0]
        result = check_incompleteness(system, principal, key, payload)
        assert result.reproduces_paper


class TestE5Theorem2:
    """E5: the iterative construction supports I under restriction I1."""

    def test_mistaken_assumptions_still_supported(self):
        example = build_cointoss_example()
        result = construct_good_runs(example.system, example.assumptions)
        assert supports(example.system, result.vector, example.assumptions)

    def test_corrected_assumptions_supported(self):
        example = build_corrected_cointoss_example()
        result = construct_good_runs(example.system, example.assumptions)
        assert supports(example.system, result.vector, example.assumptions)


class TestE6CoinToss:
    """E6: no optimum exists for the mutually mistaken nested beliefs."""

    def test_no_maximum(self):
        example = build_cointoss_example()
        report = optimality_report(example.system, example.assumptions)
        assert report.supporting and not report.has_optimum


class TestE7Theorem3:
    """E7: under I1 + I2 the construction yields the optimum."""

    def test_optimum(self):
        example = build_corrected_cointoss_example()
        result = construct_good_runs(example.system, example.assumptions)
        report = optimality_report(example.system, example.assumptions)
        assert report.is_optimum(result.vector, example.system)


class TestE8Forwarding:
    """E8: forwarding removes the need for honesty (Section 3.2)."""

    def test_courier_analysis(self):
        report = analyze(forwarding.at_protocol())
        assert report.all_as_expected

    def test_courier_semantics(self):
        ctx = forwarding.terms()
        system = forwarding.build_system()
        run = system.run("courier-honest")
        ev = Evaluator(system)
        end = run.end_time
        assert ev.evaluate(Says(ctx.S, ctx.good), run, end)
        assert not ev.evaluate(Said(ctx.C, ctx.good), run, end)

    def test_misuse_accountability(self):
        ctx = forwarding.terms()
        system = forwarding.build_system()
        run = system.run("courier-misuse")
        ev = Evaluator(system)
        assert ev.evaluate(Said(ENVIRONMENT, ctx.good), run, run.end_time)


class TestE9Yahalom:
    """E9: has/forwarding make Yahalom analyzable (Section 3.1)."""

    def test_at_analysis(self):
        report = analyze(yahalom.at_protocol())
        assert report.all_as_expected

    def test_key_possession_decoupled_from_belief(self):
        """A relays a blob under Kbs without holding Kbs and without
        any belief about it — the courier step cites A10, not honesty."""
        report = analyze(yahalom.at_protocol())
        tree = report.explain_goal("B-key")
        assert "A10" in tree  # B unwraps the forwarded blob


class TestE10CorpusComparison:
    """E10: the corpus-wide BAN-vs-AT table matches the literature."""

    def test_table(self):
        table = compare_corpus()
        assert table.all_as_expected, table.render()
        assert len(table.rows) >= 70


class TestE11Extensions:
    """E11: parameters and universal quantification (Section 8)."""

    def test_quantified_trust_assumption(self):
        ctx = kerberos.terms()
        x = Parameter("x", Sort.KEY)
        quantified = Believes(
            ctx.A, ForAll(x, _controls(ctx.S, SharedKey(ctx.A, x, ctx.B)))
        )
        protocol = kerberos.at_protocol()
        adjusted = _replace_assumption(
            protocol,
            Believes(ctx.A, _controls(ctx.S, ctx.good)),
            quantified,
        )
        report = analyze(adjusted)
        outcomes = {r.goal.label: r.achieved for r in report.goal_results}
        assert outcomes["A-key"]

    def test_parameterized_run_evaluation(self):
        from repro.model import RunBuilder

        ctx = kerberos.terms()
        parameter = ctx.vocabulary.parameter("Kfresh", Sort.KEY)
        builder = RunBuilder([ctx.A, ctx.B], keysets={ctx.A: [ctx.Kab]})
        run = builder.build("param-run", params={parameter: ctx.Kab})
        system = system_of([run], vocabulary=ctx.vocabulary)
        ev = Evaluator(system)
        formula = parse_formula("A has ?Kfresh", ctx.vocabulary)
        assert ev.evaluate(formula, run, 0)


class TestE12Stability:
    """E12: stability of annotation formulas (Sections 2.3 / 4.3)."""

    def test_sees_assertions_stable_on_kerberos_system(self):
        ctx = kerberos.terms()
        system = kerberos.build_system()
        ev = Evaluator(system)
        assert is_stable(ev, Sees(ctx.A, ctx.outer))
        assert is_stable(ev, Said(ctx.S, ctx.good))
        assert is_stable(ev, Says(ctx.S, ctx.good))

    def test_goal_beliefs_stable(self):
        ctx = kerberos.terms()
        system = kerberos.build_system()
        ev = Evaluator(system)
        assert is_stable(ev, Believes(ctx.A, ctx.good))


def _controls(principal, body):
    from repro.terms import Controls

    return Controls(principal, body)


def _replace_assumption(protocol, old, new):
    from repro.protocols.base import IdealizedProtocol

    assumptions = tuple(
        new if assumption == old else assumption
        for assumption in protocol.assumptions
    )
    assert old in protocol.assumptions
    return IdealizedProtocol(
        name=protocol.name,
        logic=protocol.logic,
        description=protocol.description,
        vocabulary=protocol.vocabulary,
        principals=protocol.principals,
        steps=protocol.steps,
        assumptions=assumptions,
        goals=protocol.goals,
    )


class TestE13PublicKeys:
    """E13: the full-paper public-key treatment, exercised by the CCITT
    X.509 analysis from the BAN89 corpus."""

    def test_x509_defect_and_repair(self):
        from repro.protocols import x509

        flawed = analyze(x509.at_protocol())
        repaired = analyze(x509.at_protocol("repaired"))
        assert flawed.all_as_expected and repaired.all_as_expected
        flawed_out = {r.goal.label: r.achieved for r in flawed.goal_results}
        fixed_out = {r.goal.label: r.achieved for r in repaired.goal_results}
        assert not flawed_out["B-attributes-secret"]
        assert fixed_out["B-attributes-secret"]

    def test_signature_semantics(self):
        """pk(A, Ka) holds exactly when only A signs with Ka⁻¹."""
        from repro.model import RunBuilder, system_of
        from repro.terms import (
            Nonce,
            Principal,
            PrivateKey,
            PublicKey,
            PublicKeyOf,
            encrypted,
        )

        a, b = Principal("A"), Principal("B")
        priv, pub = PrivateKey("Ka"), PublicKey("Ka")
        builder = RunBuilder([a, b], keysets={a: [priv], b: [pub]})
        builder.send(a, encrypted(Nonce("N"), priv, a), b)
        builder.receive(b)
        run = builder.build("sign")
        evaluator = Evaluator(system_of([run]))
        assert evaluator.evaluate(PublicKeyOf(a, pub), run, 0)
        assert not evaluator.evaluate(PublicKeyOf(b, pub), run, 0)


class TestE14ConcreteAttacks:
    """E14: the published protocol weaknesses realized as model runs,
    with the semantics delivering the verdicts."""

    def test_ns_replay(self):
        from repro.protocols import needham_schroeder as ns
        from repro.terms import Fresh, Says

        ctx = ns.terms()
        system = ns.build_system()
        evaluator = Evaluator(system)
        replay = system.run("ns-normal-replay-2")
        end = replay.end_time
        assert not evaluator.evaluate(Says(ctx.S, ctx.good), replay, end)
        assert not evaluator.evaluate(Fresh(ctx.good), replay, end)

    def test_dubious_assumption_is_a_preconception(self):
        """BAN89's 'dubious assumption' corresponds exactly to excluding
        replay worlds from B's good runs — the Section 7 machinery
        explains *what the assumption means*."""
        from repro.protocols import needham_schroeder as ns
        from repro.semantics import GoodRunVector
        from repro.terms import Fresh

        ctx = ns.terms()
        system = ns.build_system()
        normal = system.run("ns-normal")
        end = normal.end_time
        belief = Believes(ctx.B, Fresh(ctx.good))
        knowledge = Evaluator(system)
        assert not knowledge.evaluate(belief, normal, end)
        trusting = Evaluator(
            system,
            GoodRunVector.of({ctx.B: ["ns-normal", "ns-normal-wiretap-2"]}),
        )
        assert trusting.evaluate(belief, normal, end)
