"""Tests for concrete runs read from spec files: scripts and attacks."""

import pytest

from repro.errors import ProtocolError
from repro.model import ENVIRONMENT, check_run
from repro.protocols import needham_schroeder as ns
from repro.protocols.loader import ProtocolFamily
from repro.semantics import Evaluator
from repro.terms import (
    Believes,
    Fresh,
    Key,
    Nonce,
    Principal,
    Said,
    Says,
    Sees,
    encrypted,
)

A = Principal("A")
B = Principal("B")
K = Key("K")
N = Nonce("N")

SPEC = """\
protocol simple
principals A B
keys K K2
nonces N
let cipher = {N}_K from A
variant again
runs simple again
A has K
B has K
run flow
A -> B : cipher
"""


def simple_system(tmp_path, extra: str = "", variant=None):
    """The one-message ``simple`` family, with ``extra`` run lines."""
    path = tmp_path / "simple.proto"
    path.write_text(SPEC + extra, encoding="utf-8")
    return ProtocolFamily(path).build_system(variant)


class TestScenario:
    def test_execute_produces_wellformed_run(self, tmp_path):
        run = simple_system(tmp_path).run("simple-flow")
        assert check_run(run) == []
        assert run.name == "simple-flow"

    def test_epoch_action(self, tmp_path):
        # A replay marks the epoch after the recorded past: four actions
        # (the wiretapped send and delivery) before time 0, two after.
        run = simple_system(tmp_path, "replay 0\n").run("simple-flow-replay-0")
        assert (run.start_time, run.end_time) == (-4, 2)

    def test_newkey_action(self, tmp_path):
        run = simple_system(tmp_path, "B : newkey(K2)\n").run("simple-flow")
        assert Key("K2") in run.keyset(B, run.end_time)

    def test_message_flow_builder(self, tmp_path):
        """A message step is a send followed by its delivery."""
        run = simple_system(tmp_path).run("simple-flow")
        assert run.received_messages(B, run.end_time) == {encrypted(N, K, A)}
        assert run.end_time == 2

    def test_renaming(self, tmp_path):
        """A variant's runs are named ``PREFIX-VARIANT-NAME``."""
        system = simple_system(tmp_path, "wiretap 0\n", variant="again")
        assert [run.name for run in system.runs] == [
            "simple-again-flow", "simple-again-flow-wiretap-0"]

    def test_send_without_delivery_and_idle(self, tmp_path):
        extra = "run undelivered\nsend A -> B : cipher\nidle\n"
        run = simple_system(tmp_path, extra).run("simple-undelivered")
        assert check_run(run) == []
        assert run.end_time == 2
        assert not run.received_messages(B, run.end_time)
        assert run.state(2) == run.state(1)


class TestAttacks:
    def test_lost_message(self, tmp_path):
        run = simple_system(tmp_path, "lost 0\n").run("simple-flow-lost-0")
        assert check_run(run) == []
        assert not run.received_messages(B, run.end_time)

    def test_lost_message_bad_index(self, tmp_path):
        with pytest.raises(ProtocolError, match="simple.proto:12: .*out of range"):
            simple_system(tmp_path, "lost 5\n")

    def test_wiretap_preserves_delivery(self, tmp_path):
        run = simple_system(tmp_path, "wiretap 0\n").run("simple-flow-wiretap-0")
        assert check_run(run) == []
        cipher = encrypted(N, K, A)
        assert cipher in run.received_messages(B, run.end_time)
        assert cipher in run.received_messages(ENVIRONMENT, run.end_time)

    def test_replay_moves_original_into_past(self, tmp_path):
        system = simple_system(tmp_path, "replay 0\n")
        run = system.run("simple-flow-replay-0")
        assert check_run(run) == []
        assert run.start_time < 0
        evaluator = Evaluator(system)
        # In the replay run the message was said, but not in this epoch:
        assert evaluator.evaluate(Said(A, N), run, run.end_time)
        assert not evaluator.evaluate(Says(A, N), run, run.end_time)
        assert not evaluator.evaluate(Fresh(N), run, run.end_time)

    def test_attack_system(self, tmp_path):
        system = simple_system(tmp_path, "lost 0\nwiretap 0\n")
        assert len(system.runs) == 3
        assert system.is_wellformed()


class TestNeedhamSchroederSystem:
    def test_system_wellformed(self):
        system = ns.build_system()
        assert system.is_wellformed()
        assert len(system.runs) == 3

    def test_replay_attack_semantics(self):
        """The published weakness, concretely: in the replay run B holds
        a stale ticket — said once, never said this epoch, not fresh."""
        ctx = ns.terms()
        system = ns.build_system()
        evaluator = Evaluator(system)
        replay = system.run("ns-normal-replay-2")
        end = replay.end_time
        assert evaluator.evaluate(Sees(ctx.B, ctx.ticket), replay, end)
        assert evaluator.evaluate(Said(ctx.S, ctx.good), replay, end)
        assert not evaluator.evaluate(Says(ctx.S, ctx.good), replay, end)
        assert not evaluator.evaluate(Fresh(ctx.good), replay, end)

    def test_normal_run_fresh(self):
        ctx = ns.terms()
        system = ns.build_system()
        evaluator = Evaluator(system)
        normal = system.run("ns-normal")
        assert evaluator.evaluate(Fresh(ctx.good), normal, 0)
        assert evaluator.evaluate(
            Says(ctx.S, ctx.good), normal, normal.end_time
        )

    def test_b_cannot_believe_freshness_after_replay(self):
        """The semantic heart of the flaw: at the end of the replay run
        the key assertion is stale, so no sound notion of belief can
        grant B `fresh(A <-Kab-> B)` there."""
        ctx = ns.terms()
        system = ns.build_system()
        evaluator = Evaluator(system)
        replay = system.run("ns-normal-replay-2")
        assert not evaluator.evaluate(
            Believes(ctx.B, Fresh(ctx.good)), replay, replay.end_time
        )
        # Even in the normal run B cannot *know* freshness: its local
        # state also occurs in the pre-epoch segment of the replay
        # world, where the key assertion is stale.
        normal = system.run("ns-normal")
        assert not evaluator.evaluate(
            Believes(ctx.B, Fresh(ctx.good)), normal, normal.end_time
        )
        # Only as a *preconception* — excluding replay worlds from B's
        # good runs — does the freshness belief arise (and that is
        # exactly the "dubious assumption" BAN89 had to add):
        from repro.semantics import GoodRunVector

        vector = GoodRunVector.of(
            {ctx.B: ["ns-normal", "ns-normal-wiretap-2"]}
        )
        trusting = Evaluator(system, vector)
        assert trusting.evaluate(
            Believes(ctx.B, Fresh(ctx.good)), normal, normal.end_time
        )
