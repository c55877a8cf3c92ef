#!/usr/bin/env python3
"""Reproducing BAN89's Needham-Schroeder finding, logically and concretely.

The logical half: B's key belief is underivable because nothing ties
message 3 to the current epoch — unless one adds the "dubious
assumption" that the key is fresh.

The concrete half: we build a *replay attack* in the Section 5 model.
In a past epoch, the environment recorded the ticket ``{Kab, A}_Kbs``
and (by assumption) compromised the old session key.  In the current
epoch it replays the ticket; B accepts a stale key.  Semantically:
``B sees ticket`` holds, but ``fresh(A <-Kab-> B)`` is false and
``S says ...`` fails — exactly the missing premises of the derivation.

Run:  python examples/needham_schroeder_flaw.py
"""

from repro.analysis import analyze
from repro.model import ENVIRONMENT, RunBuilder, system_of
from repro.protocols import needham_schroeder as ns
from repro.semantics import Evaluator
from repro.terms import Fresh, Said, Says, Sees


def logical_half() -> None:
    print("=" * 72)
    print("Logical finding: B's goal fails without the dubious assumption")
    print("=" * 72)
    for variant in (None, "dubious"):
        report = analyze(ns.ban_protocol(variant))
        label = "with" if variant else "without"
        print(f"\n--- {label} 'B believes fresh(A <-Kab-> B)' ---")
        for result in report.goal_results:
            print(f"  {result}")


def replay_attack_run():
    """The environment replays an old ticket in a new epoch."""
    ctx = ns.terms()
    builder = RunBuilder(
        [ctx.A, ctx.B, ctx.S],
        keysets={ctx.A: [ctx.Kas], ctx.B: [ctx.Kbs],
                 ctx.S: [ctx.Kas, ctx.Kbs]},
    )
    # Past epoch: the original protocol ran; the environment wiretapped
    # the ticket (modeled as S also addressing a copy to the network).
    builder.newkey(ctx.S, ctx.Kab)
    builder.send(ctx.S, ctx.ticket, ENVIRONMENT)
    builder.receive(ENVIRONMENT)
    builder.mark_epoch()
    # Present epoch: the attacker replays the stale ticket to B.
    builder.send(ENVIRONMENT, ctx.ticket, ctx.B)
    builder.receive(ctx.B)
    builder.newkey(ctx.B, ctx.Kab)
    return ctx, builder.build("ns-replay")


def concrete_half() -> None:
    print()
    print("=" * 72)
    print("Concrete replay attack in the model of computation")
    print("=" * 72)
    ctx, run = replay_attack_run()
    system = system_of([run], vocabulary=ctx.vocabulary)
    evaluator = Evaluator(system)
    end = run.end_time
    checks = [
        ("B sees the ticket", Sees(ctx.B, ctx.ticket), True),
        ("S said the key was good (once)", Said(ctx.S, ctx.good), True),
        ("S says it *in this epoch*", Says(ctx.S, ctx.good), False),
        ("the certificate is fresh", Fresh(ctx.good), False),
    ]
    for label, formula, expected in checks:
        value = evaluator.evaluate(formula, run, end)
        marker = "✓" if value == expected else "✗ UNEXPECTED"
        print(f"  {label}: {value}  [{marker}]")
    print()
    print(
        "B has the ticket but no freshness evidence — the exact premises\n"
        "the nonce-verification axiom (A20) needs are the ones that fail."
    )


def main() -> None:
    logical_half()
    concrete_half()


if __name__ == "__main__":
    main()
