"""E8/E9/E10 benches: forwarding, Yahalom, and the corpus comparison.

E10 regenerates the paper-era findings table across the whole protocol
corpus in both logics — the closest thing the paper has to an
evaluation table.
"""

from repro.analysis import analyze, compare_corpus
from repro.model import ENVIRONMENT, system_of
from repro.protocols import forwarding, needham_schroeder, yahalom
from repro.semantics import Evaluator
from repro.terms import Said


def test_e8_forwarding_protocol(benchmark):
    """E8: the courier analysis (honesty-free forwarding, Section 3.2)."""
    protocol = forwarding.at_protocol()
    report = benchmark(lambda: analyze(protocol))
    assert report.all_as_expected


def test_e8_forwarding_semantics(benchmark):
    """E8 (semantic half): said_submsgs shields the courier; A14 holds
    the misusing environment accountable."""
    ctx = forwarding.terms()
    system = forwarding.build_system()
    honest = system.run("courier-honest")
    misuse = system.run("courier-misuse")

    def evaluate():
        evaluator = Evaluator(system)
        shielded = not evaluator.evaluate(
            Said(ctx.C, ctx.good), honest, honest.end_time
        )
        accountable = evaluator.evaluate(
            Said(ENVIRONMENT, ctx.good), misuse, misuse.end_time
        )
        return shielded, accountable

    shielded, accountable = benchmark(evaluate)
    assert shielded and accountable


def test_e9_yahalom(benchmark):
    """E9: Yahalom analyzable thanks to has + forwarding (Section 3.1)."""
    protocol = yahalom.at_protocol()
    report = benchmark(lambda: analyze(protocol))
    assert report.all_as_expected


def test_e10_corpus_comparison(benchmark):
    """E10: the full BAN-vs-AT findings table over the corpus."""
    table = benchmark(compare_corpus)
    assert table.all_as_expected
    assert len(table.rows) >= 70


def test_e10_needham_schroeder_pair(benchmark):
    """The NS flaw and its dubious-assumption repair, both logics."""

    def run_all():
        reports = []
        for variant in (None, "dubious"):
            reports.append(analyze(needham_schroeder.ban_protocol(variant)))
            reports.append(analyze(needham_schroeder.at_protocol(variant)))
        return reports

    reports = benchmark(run_all)
    assert all(report.all_as_expected for report in reports)


def test_e14_attack_system_generation(benchmark):
    """E14: building the NS attack system (normal + wiretap + replay)
    through the WF-enforcing runtime."""
    from repro.protocols import needham_schroeder as ns

    system = benchmark(ns.build_system)
    assert system.is_wellformed()
    assert len(system.runs) == 3


def test_e14_replay_verdicts(benchmark):
    """E14: the semantic verdicts on the replayed NS ticket."""
    from repro.protocols import needham_schroeder as ns
    from repro.terms import Fresh, Says

    ctx = ns.terms()
    system = ns.build_system()
    replay = system.run("ns-normal-replay-2")

    def verdicts():
        evaluator = Evaluator(system)
        end = replay.end_time
        return (
            evaluator.evaluate(Says(ctx.S, ctx.good), replay, end),
            evaluator.evaluate(Fresh(ctx.good), replay, end),
        )

    says, fresh = benchmark(verdicts)
    assert not says and not fresh
