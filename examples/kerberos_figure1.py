#!/usr/bin/env python3
"""The paper's Figure 1: the Kerberos key-distribution fragment.

This example walks the full pipeline on the paper's own running
example:

1. the BAN-logic annotation (Section 2.3), step by step;
2. the reformulated analysis (Section 4.3) with ``newkey`` steps and
   forwarding syntax, honesty-free;
3. a *concrete execution* in the Section 5 model of computation;
4. a semantic audit: the good-run vector is constructed from the
   initial assumptions (Section 7) and every goal is evaluated with
   the Section 6 possible-worlds semantics.

Run:  python examples/kerberos_figure1.py
"""

from repro.analysis import analyze
from repro.goodruns import construct_good_runs
from repro.protocols import kerberos
from repro.semantics import Evaluator
from repro.soundness import assumptions_vector, audit_protocol


def main() -> None:
    print("=" * 72)
    print("Step 1: BAN-logic annotation of the idealized protocol")
    print("=" * 72)
    ban_report = analyze(kerberos.ban_protocol())
    print(ban_report.pretty())

    print()
    print("=" * 72)
    print("Step 2: reformulated analysis (honesty-free, with forwarding)")
    print("=" * 72)
    at_protocol = kerberos.at_protocol()
    at_report = analyze(at_protocol)
    for result in at_report.goal_results:
        print(f"  {result}")
    print()
    print("B's key belief, as a proof tree over axioms A5/A11/A20/A15:")
    print(at_report.explain_goal("B-key"))

    print()
    print("=" * 72)
    print("Step 3: a concrete execution in the model of computation")
    print("=" * 72)
    system = kerberos.build_system()
    run = system.run("kerberos-normal")
    print(f"built {run}; well-formed (WF0-WF5) by construction")
    for k in run.times:
        for principal in run.principals:
            for action in run.performed(principal, k):
                print(f"  t={k}: {principal} performs {action}")

    print()
    print("=" * 72)
    print("Step 4: semantic audit against the possible-worlds semantics")
    print("=" * 72)
    vector = construct_good_runs(
        system, assumptions_vector(at_protocol).restrict_to(system)
    ).vector
    print(f"constructed good-run vector: {vector.describe()}")
    audit = audit_protocol(at_protocol, system, "kerberos-normal",
                           report=at_report)
    for entry in audit.entries:
        status = "TRUE " if entry.semantically_true else "FALSE"
        derived = "derived   " if entry.derived else "underived "
        print(f"  [{derived}| semantics {status}]  {entry.formula}")
    print()
    print("audit consistent:", audit.consistent)

    ctx = kerberos.terms()
    evaluator = Evaluator(system, vector)
    lost = system.run("kerberos-lost-msg3")
    belief = ctx.good
    from repro.terms import Believes

    print(
        "in the run where message 3 is lost, B never comes to believe "
        "the key:",
        not evaluator.evaluate(Believes(ctx.B, belief), lost, lost.end_time),
    )


def _certification_appendix() -> None:
    """Appendix: compile the engine derivation into a checked proof."""
    from repro.logic import certify
    from repro.terms import Believes

    print()
    print("=" * 72)
    print("Appendix: certifying B's key belief as a Hilbert proof")
    print("=" * 72)
    at_report = analyze(kerberos.at_protocol())
    ctx = kerberos.terms()
    proof = certify(at_report.derivation, Believes(ctx.B, ctx.good))
    proof.check()
    print(f"checked proof with {len(proof.steps)} steps; premises:")
    for premise in proof.premises:
        print(f"  {premise}")
    print("last five steps:")
    for index, step in list(enumerate(proof.steps))[-5:]:
        print(f"  {index:>3}. {step.formula}")
        print(f"        [{step.justification}]")


if __name__ == "__main__":
    main()
    _certification_appendix()
