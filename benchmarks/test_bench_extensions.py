"""E11 bench: Section 8's extensions — parameters and quantification."""

from repro.analysis import analyze
from repro.model import RunBuilder, system_of
from repro.protocols import kerberos
from repro.protocols.base import IdealizedProtocol
from repro.semantics import Evaluator
from repro.terms import (
    Believes,
    Controls,
    ForAll,
    Parameter,
    SharedKey,
    Sort,
    parse_formula,
)


def quantified_kerberos() -> IdealizedProtocol:
    """Kerberos with A's trust stated once for *all* keys:
    ``A believes ∀K. (S controls A <-K-> B)`` (the Section 8 example)."""
    ctx = kerberos.terms()
    protocol = kerberos.at_protocol()
    x = Parameter("x", Sort.KEY)
    quantified = Believes(
        ctx.A, ForAll(x, Controls(ctx.S, SharedKey(ctx.A, x, ctx.B)))
    )
    old = Believes(ctx.A, Controls(ctx.S, ctx.good))
    assumptions = tuple(
        quantified if assumption == old else assumption
        for assumption in protocol.assumptions
    )
    return IdealizedProtocol(
        name="kerberos-forall",
        logic="at",
        description="Kerberos with quantified server trust (Section 8)",
        vocabulary=protocol.vocabulary,
        principals=protocol.principals,
        steps=protocol.steps,
        assumptions=assumptions,
        goals=protocol.goals,
    )


def test_e11_quantified_analysis(benchmark):
    """E11: the ∀-instantiation rule feeds the jurisdiction step."""
    protocol = quantified_kerberos()
    report = benchmark(lambda: analyze(protocol))
    outcomes = {r.goal.label: r.achieved for r in report.goal_results}
    assert outcomes["A-key"]


def test_e11_parameter_evaluation(benchmark):
    """E11: run-valued parameters resolve per run before evaluation."""
    ctx = kerberos.terms()
    parameter = ctx.vocabulary.parameter("Ksession", Sort.KEY)
    builder = RunBuilder([ctx.A, ctx.B], keysets={ctx.A: [ctx.Kab]})
    run = builder.build("param-run", params={parameter: ctx.Kab})
    system = system_of([run], vocabulary=ctx.vocabulary)
    formula = parse_formula("A has ?Ksession", ctx.vocabulary)

    def evaluate():
        return Evaluator(system).evaluate(formula, run, 0)

    assert benchmark(evaluate) is True


def test_e13_x509_public_keys(benchmark):
    """E13: the public-key extension — the X.509 defect and repair."""
    from repro.protocols import x509

    def run_both():
        return analyze(x509.at_protocol()), analyze(
            x509.at_protocol("repaired")
        )

    flawed, repaired = benchmark(run_both)
    assert flawed.all_as_expected and repaired.all_as_expected
