"""E1/E2 benches: the Figure 1 Kerberos analysis in both logics.

Regenerates the paper's running example — the annotation of the
idealized protocol and the derivation of ``A believes A <-Kab-> B`` and
``B believes A <-Kab-> B`` — and times the full analysis pipeline.
"""

from repro.analysis import analyze
from repro.protocols import kerberos


def _assert_e1(report) -> None:
    outcomes = {r.goal.label: r.achieved for r in report.goal_results}
    assert outcomes["A-key"] and outcomes["B-key"]


def test_e1_kerberos_ban_analysis(benchmark):
    """E1: BAN-logic annotation of Figure 1 (Section 2.3)."""
    protocol = kerberos.ban_protocol()
    report = benchmark(lambda: analyze(protocol))
    _assert_e1(report)
    assert report.all_as_expected


def test_e2_kerberos_reformulated_analysis(benchmark):
    """E2: the reformulated, honesty-free analysis (Section 4.3)."""
    protocol = kerberos.at_protocol()
    report = benchmark(lambda: analyze(protocol))
    _assert_e1(report)
    assert report.all_as_expected
    tree = report.explain_goal("B-key")
    assert "A15" in tree and "A20" in tree


def test_e2_concrete_execution(benchmark):
    """Building the Figure 1 runs in the Section 5 model (WF-enforced)
    from the spec file."""
    system = benchmark(kerberos.build_system)
    assert system.run("kerberos-normal").end_time == 9


def test_proof_tree_rendering(benchmark):
    """Rendering the derivation trace of B's key belief."""
    report = analyze(kerberos.at_protocol())
    tree = benchmark(lambda: report.explain_goal("B-key"))
    assert "A5" in tree
