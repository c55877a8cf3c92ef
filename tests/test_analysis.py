"""Tests for the annotation procedure (Sections 2.3 / 4.3)."""

import pytest

from repro.analysis import analyze, build_pool, step_assertions
from repro.errors import ProtocolError
from repro.protocols import kerberos
from repro.protocols.base import MessageStep, NewKeyStep
from repro.terms import Has, Key, Nonce, Principal, Sees

A = Principal("A")
B = Principal("B")
K = Key("K")
N = Nonce("N")


class TestStepAssertions:
    def test_message_step_asserts_sees(self):
        step = MessageStep(A, B, N)
        assert step_assertions(step, "at") == (Sees(B, N),)
        assert step_assertions(step, "ban") == (Sees(B, N),)

    def test_newkey_asserts_has_in_at_only(self):
        """The BAN logic has no ``has`` construct (Section 3.1)."""
        step = NewKeyStep(A, K)
        assert step_assertions(step, "at") == (Has(A, K),)
        assert step_assertions(step, "ban") == ()


class TestAnnotations:
    def test_annotations_cover_all_steps(self):
        protocol = kerberos.at_protocol()
        report = analyze(protocol)
        assert len(report.annotations) == len(protocol.steps) + 1
        assert report.annotations[0].step_text == "initial assumptions"

    def test_facts_accumulate_monotonically(self):
        """Stability: an assertion labelling one statement can label any
        later statement (Section 2.3)."""
        report = analyze(kerberos.ban_protocol())
        seen = set()
        for annotation in report.annotations:
            new = set(annotation.asserted) | set(annotation.derived)
            assert not (new & seen)  # each fact reported exactly once
            seen |= new

    def test_key_goal_appears_after_final_message(self):
        report = analyze(kerberos.ban_protocol())
        last = report.annotations[-1]
        texts = [str(fact) for fact in last.derived]
        assert any("B believes (A <-Kab-> B)" in t for t in texts)

    def test_goal_lookup_by_label(self):
        report = analyze(kerberos.at_protocol())
        assert "A15" in report.explain_goal("A-key")
        with pytest.raises(ProtocolError):
            report.explain_goal("nonexistent")

    def test_pretty_report(self):
        report = analyze(kerberos.ban_protocol())
        text = report.pretty()
        assert "original BAN logic" in text
        assert "Goals:" in text

    def test_cross_logic_analysis(self):
        """A BAN idealization can be run through the AT engine."""
        report = analyze(kerberos.ban_protocol(), logic="at")
        assert report.engine_logic == "at"


class TestPool:
    def test_pool_covers_steps_and_goals(self):
        protocol = kerberos.at_protocol()
        pool = build_pool(protocol)
        ctx = kerberos.terms()
        assert ctx.inner in pool.messages
        assert ctx.good in pool.messages
        assert ctx.Ts in pool.messages
