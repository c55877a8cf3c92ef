#!/usr/bin/env python3
"""Public keys and the CCITT X.509 defect (experiment E13).

The full paper treats public keys "as in [BAN89]"; this example runs
the extension end-to-end on BAN89's X.509 finding: signing a message
that *contains* encrypted data attributes the ciphertext to the signer,
but says nothing about the plaintext — an intruder can strip the
signature and re-sign the blob without ever learning the secret.

Run:  python examples/x509_signatures.py
"""

from repro.analysis import analyze
from repro.logic import certify
from repro.protocols import x509
from repro.terms import Believes, Says


def show(variant: str | None) -> None:
    label = "sign-then-encrypt (repaired)" if variant else \
        "signed ciphertext (the standard's defect)"
    print("=" * 72)
    print(label)
    print("=" * 72)
    print(f"  A -> B : {x509.terms(variant).message}")
    for logic in ("ban", "at"):
        protocol = (
            x509.ban_protocol(variant) if logic == "ban"
            else x509.at_protocol(variant)
        )
        report = analyze(protocol)
        print(f"  [{logic}]")
        for result in report.goal_results:
            print(f"    {result}")
    print()


def main() -> None:
    show(None)
    show("repaired")

    print("=" * 72)
    print("Certifying the repaired attribution as a Hilbert proof")
    print("=" * 72)
    ctx = x509.terms()
    report = analyze(x509.at_protocol("repaired"))
    goal = Believes(ctx.B, Says(ctx.A, ctx.yab))
    proof = certify(report.derivation, goal)
    proof.check()
    axioms = sorted(
        {
            step.justification.name
            for step in proof.steps
            if hasattr(step.justification, "name")
        }
    )
    print(f"checked proof: {len(proof.steps)} steps, axioms used: {axioms}")
    print("premises:")
    for premise in proof.premises:
        print(f"  {premise}")


if __name__ == "__main__":
    main()
