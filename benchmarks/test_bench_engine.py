"""Micro-benchmarks for the proof system and derivation engines."""

from repro.logic import (
    ProofBuilder,
    is_tautology,
    lift_one_level,
    prove_a4,
    standard_rules,
)
from repro.banlogic import ban_rules
from repro.logic.engine import Engine
from repro.protocols import kerberos, wide_mouth_frog
from repro.terms import (
    Key,
    Nonce,
    Not,
    Or,
    Prim,
    PrimitiveProposition,
    Principal,
)


def test_bench_tautology_checking(benchmark):
    """Truth-tabling a medium propositional instance."""
    atoms = [Prim(PrimitiveProposition(f"x{i}")) for i in range(10)]
    disjunction = atoms[0]
    for atom in atoms[1:]:
        disjunction = Or(disjunction, atom)
    formula = Or(disjunction, Not(atoms[0]))
    assert benchmark(lambda: is_tautology(formula))


def test_bench_checked_proof_construction(benchmark):
    """Building + checking the lifted message-meaning proof (A5+R2+A1)."""
    a, b, s = Principal("A"), Principal("B"), Principal("S")
    key, nonce = Key("K"), Nonce("N")
    builder = ProofBuilder()
    builder.axiom("A5", a, key, b, a, nonce, s)
    a5 = builder.build()

    proof = benchmark(lambda: lift_one_level(a5, a))
    assert proof.is_theorem()


def test_bench_a4_proof(benchmark):
    p = Prim(PrimitiveProposition("p"))
    q = Prim(PrimitiveProposition("q"))
    a = Principal("A")
    proof = benchmark(lambda: prove_a4(a, p, q))
    assert proof.is_theorem()


def test_bench_at_engine_fixpoint(benchmark):
    """Closing the Kerberos facts under the reformulated rules."""
    protocol = kerberos.at_protocol()
    from repro.analysis import build_pool, step_assertions

    pool = build_pool(protocol)
    formulas = list(protocol.assumptions)
    for step in protocol.steps:
        formulas.extend(step_assertions(step, "at"))

    def close():
        return Engine(standard_rules()).close(formulas, pool)

    derivation = benchmark(close)
    assert len(derivation.index) > 30


def test_bench_ban_engine_fixpoint(benchmark):
    """Closing the Wide-Mouthed-Frog facts under the BAN rules
    (exercises depth-3 nested beliefs)."""
    protocol = wide_mouth_frog.ban_protocol()
    from repro.analysis import build_pool, step_assertions

    pool = build_pool(protocol)
    formulas = list(protocol.assumptions)
    for step in protocol.steps:
        formulas.extend(step_assertions(step, "ban"))

    def close():
        return Engine(ban_rules()).close(formulas, pool)

    derivation = benchmark(close)
    assert len(derivation.index) > 15


def test_bench_certify_kerberos_goal(benchmark):
    """Compiling the engine's Kerberos B-key derivation into a checked
    Hilbert proof (modus ponens + necessitation over axiom instances)."""
    from repro.analysis import analyze
    from repro.logic import certify
    from repro.terms import Believes

    ctx = kerberos.terms()
    report = analyze(kerberos.at_protocol())
    goal = Believes(ctx.B, ctx.good)

    proof = benchmark(lambda: certify(report.derivation, goal))
    proof.check()
    assert proof.conclusion == goal


def test_bench_proof_checking(benchmark):
    """Re-checking a certified proof (the independent validator)."""
    from repro.analysis import analyze
    from repro.logic import certify
    from repro.terms import Believes

    ctx = kerberos.terms()
    report = analyze(kerberos.at_protocol())
    proof = certify(report.derivation, Believes(ctx.B, ctx.good))
    benchmark(proof.check)
