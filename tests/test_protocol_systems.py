"""Tests for the concrete protocol systems (runtime-generated runs).

Each corpus family's ``build_system()`` gets: well-formedness,
an engine-vs-semantics audit, and — where a published attack exists —
the attack's semantic verdicts.
"""

import pytest

from repro.protocols import (
    andrew_rpc,
    forwarding,
    kerberos,
    needham_schroeder,
    otway_rees,
    wide_mouth_frog,
    yahalom,
)
from repro.semantics import Evaluator
from repro.soundness import audit_protocol
from repro.terms import Believes, Fresh, Said, Says, SharedKey

SYSTEM_CASES = [
    (kerberos, kerberos.at_protocol, "kerberos-normal"),
    (needham_schroeder, needham_schroeder.at_protocol, "ns-normal"),
    (otway_rees, otway_rees.at_protocol, "otway-rees-normal"),
    (yahalom, yahalom.at_protocol, "yahalom-normal"),
    (wide_mouth_frog, wide_mouth_frog.at_protocol, "wmf-normal"),
    (forwarding, forwarding.at_protocol, "courier-honest"),
]


@pytest.mark.parametrize(
    "module, protocol_factory, run_name",
    SYSTEM_CASES,
    ids=[case[2] for case in SYSTEM_CASES],
)
class TestSystems:
    def test_wellformed(self, module, protocol_factory, run_name):
        system = module.build_system()
        assert system.is_wellformed()
        assert system.run(run_name)

    def test_audit_consistent(self, module, protocol_factory, run_name):
        """Every goal the engine derives is semantically true at the end
        of the normal run, relative to the constructed good-run vector."""
        protocol = protocol_factory()
        system = module.build_system()
        report = audit_protocol(protocol, system, run_name)
        assert report.consistent, [
            str(entry.formula) for entry in report.inconsistencies()
        ]


class TestAndrewReplayAttack:
    """The published Andrew RPC attack, concretely: a replayed message 4
    plants a stale key."""

    def test_flawed_variant(self):
        ctx = andrew_rpc.terms()
        system = andrew_rpc.build_system()
        assert system.is_wellformed()
        evaluator = Evaluator(system)
        replay = system.run("andrew-normal-replay-3")
        end = replay.end_time
        # A receives the replayed message 4 — but B never said it in
        # this epoch, and the new-key assertion is stale:
        assert evaluator.evaluate(Said(ctx.B, ctx.goodNew), replay, end)
        assert not evaluator.evaluate(Says(ctx.B, ctx.goodNew), replay, end)
        assert not evaluator.evaluate(Fresh(ctx.goodNew), replay, end)

    def test_repaired_variant_normal_run(self):
        ctx = andrew_rpc.terms("repaired")
        system = andrew_rpc.build_system("repaired")
        evaluator = Evaluator(system)
        normal = system.run("andrew-repaired-normal")
        end = normal.end_time
        assert evaluator.evaluate(Says(ctx.B, ctx.goodNew), normal, end)

    def test_audit(self):
        protocol = andrew_rpc.at_protocol()
        system = andrew_rpc.build_system()
        report = audit_protocol(protocol, system, "andrew-normal")
        assert report.consistent, [
            str(entry.formula) for entry in report.inconsistencies()
        ]


class TestWMFReplayAttack:
    """WMF's clock dependence: a replayed server message carries a
    timestamp from the previous epoch."""

    def test_replay_is_stale(self):
        ctx = wide_mouth_frog.terms()
        system = wide_mouth_frog.build_system()
        evaluator = Evaluator(system)
        replay = system.run("wmf-normal-replay-1")
        end = replay.end_time
        relayed = Believes(ctx.A, ctx.good)
        assert evaluator.evaluate(Said(ctx.S, relayed), replay, end)
        assert not evaluator.evaluate(Says(ctx.S, relayed), replay, end)
        assert not evaluator.evaluate(Fresh(ctx.Ts), replay, end)
