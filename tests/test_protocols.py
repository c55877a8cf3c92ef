"""End-to-end protocol analyses: the corpus reproduces BAN89/AT91 findings."""

import pytest

from repro.analysis import analyze, compare_corpus
from repro.protocols import (
    andrew_rpc,
    corpus,
    forwarding,
    kerberos,
    needham_schroeder,
    otway_rees,
    wide_mouth_frog,
    yahalom,
)
from repro.protocols.base import Goal, IdealizedProtocol, MessageStep, NewKeyStep
from repro.errors import ProtocolError
from repro.terms import Believes, Key, Nonce, Principal, Prim, PrimitiveProposition


class TestProtocolStructures:
    def test_corpus_size(self):
        assert len(corpus()) == 22

    def test_pretty_rendering(self):
        text = kerberos.ban_protocol().pretty()
        assert "Assumptions" in text and "Goals" in text

    def test_step_validation(self):
        A, B = Principal("A"), Principal("B")
        with pytest.raises(ProtocolError):
            IdealizedProtocol(
                name="bad",
                logic="ban",
                description="",
                vocabulary=kerberos.terms().vocabulary,
                principals=(A,),
                steps=(MessageStep(A, B, Nonce("N")),),
                assumptions=(),
                goals=(),
            )

    def test_newkey_requires_key(self):
        A = Principal("A")
        with pytest.raises(ProtocolError):
            NewKeyStep(A, Nonce("N"))

    def test_unknown_logic_rejected(self):
        ctx = kerberos.terms()
        with pytest.raises(ProtocolError):
            IdealizedProtocol(
                name="bad",
                logic="cpl",
                description="",
                vocabulary=ctx.vocabulary,
                principals=(ctx.A,),
                steps=(),
                assumptions=(),
                goals=(),
            )


@pytest.mark.parametrize("protocol", corpus(), ids=lambda p: f"{p.name}-{p.logic}")
def test_protocol_reproduces_published_findings(protocol):
    """Every goal of every protocol behaves exactly as the literature
    says it should (including expected failures)."""
    report = analyze(protocol)
    for result in report.goal_results:
        assert result.as_expected, str(result)


class TestKerberos:
    def test_figure1_goal_in_both_logics(self):
        for protocol in (kerberos.ban_protocol(), kerberos.at_protocol()):
            report = analyze(protocol)
            assert any(
                r.goal.label == "A-key" and r.achieved
                for r in report.goal_results
            )

    def test_proof_tree_cites_expected_axioms(self):
        report = analyze(kerberos.at_protocol())
        tree = report.explain_goal("B-key")
        for marker in ("A15", "A20", "A5", "A11"):
            assert marker in tree

    def test_forwarding_shields_a(self):
        report = analyze(kerberos.at_protocol())
        result = {r.goal.label: r for r in report.goal_results}
        assert not result["A-said-not-forwarded"].achieved

    def test_concrete_run_wellformed(self):
        from repro.model import check_run

        assert check_run(kerberos.build_system().run("kerberos-normal")) == []

    def test_build_system(self):
        system = kerberos.build_system()
        assert system.is_wellformed()
        assert {run.name for run in system.runs} == {
            "kerberos-normal",
            "kerberos-lost-msg3",
        }


class TestNeedhamSchroeder:
    def test_flaw_reproduced(self):
        report = analyze(needham_schroeder.ban_protocol())
        outcomes = {r.goal.label: r.achieved for r in report.goal_results}
        assert outcomes["A-key"] and not outcomes["B-key"]

    def test_dubious_assumption_repairs(self):
        report = analyze(
            needham_schroeder.ban_protocol("dubious")
        )
        outcomes = {r.goal.label: r.achieved for r in report.goal_results}
        assert outcomes["B-key"]

    def test_at_never_promotes_saying_to_believing(self):
        report = analyze(needham_schroeder.at_protocol())
        outcomes = {r.goal.label: r.achieved for r in report.goal_results}
        assert not outcomes["no-honesty"]


class TestAndrewRPC:
    def test_weakness_and_repair(self):
        flawed = analyze(andrew_rpc.ban_protocol())
        repaired = analyze(andrew_rpc.ban_protocol("repaired"))
        flawed_out = {r.goal.label: r.achieved for r in flawed.goal_results}
        fixed_out = {r.goal.label: r.achieved for r in repaired.goal_results}
        assert flawed_out["A-said"] and not flawed_out["A-new-key"]
        assert fixed_out["A-new-key"]


class TestForwardingSemantics:
    def test_honest_forwarding_run(self):
        from repro.semantics import Evaluator
        from repro.terms import Said

        ctx = forwarding.terms()
        system = forwarding.build_system()
        run = system.run("courier-honest")
        ev = Evaluator(system)
        end = run.end_time
        assert ev.evaluate(Said(ctx.S, ctx.good), run, end)
        assert not ev.evaluate(Said(ctx.C, ctx.good), run, end)

    def test_plain_relay_still_shields_courier(self):
        """Even without forwarding syntax, the courier cannot open the
        ciphertext, so said_submsgs never descends into it."""
        from repro.semantics import Evaluator
        from repro.terms import Said

        ctx = forwarding.terms()
        system = forwarding.build_system()
        run = system.run("courier-plain")
        ev = Evaluator(system)
        assert not ev.evaluate(Said(ctx.C, ctx.good), run, run.end_time)

    def test_misuse_is_accountable(self):
        """A14 in the model: 'forwarding' a never-seen statement says it."""
        from repro.model import ENVIRONMENT
        from repro.semantics import Evaluator
        from repro.terms import Said

        ctx = forwarding.terms()
        system = forwarding.build_system()
        run = system.run("courier-misuse")
        ev = Evaluator(system)
        assert ev.evaluate(Said(ENVIRONMENT, ctx.good), run, run.end_time)


class TestComparisonTable:
    def test_whole_corpus_as_expected(self):
        table = compare_corpus()
        assert table.all_as_expected, table.render()

    def test_render_mentions_protocols(self):
        table = compare_corpus((kerberos.ban_protocol(),))
        text = table.render()
        assert "kerberos" in text and "A-key" in text

    def test_mismatch_detection(self):
        ctx = kerberos.terms()
        bogus = IdealizedProtocol(
            name="bogus",
            logic="at",
            description="no steps, impossible goal",
            vocabulary=ctx.vocabulary,
            principals=(ctx.A,),
            steps=(),
            assumptions=(),
            goals=(Goal("impossible", Believes(ctx.A, ctx.good)),),
        )
        table = compare_corpus((bogus,))
        assert not table.all_as_expected
        assert len(table.mismatches()) == 1


class TestSpecLoader:
    """The loader refuses malformed spec files at the offending line."""

    BASE = [
        "protocol demo",
        "principals A B S",
        "keys Kas Kab",
        "nonces Ts",
        "let good = A <-Kab-> B",
        "assume A believes fresh(Ts)",
        "A -> S : (A, B)",
        "goal A-key: A believes good",
        "logic ban",
        "goal B-key: B believes good",
        "logic at",
    ]

    #: (case, faulty line, inserted before BASE[index], error message)
    REFUSALS = [
        ("unknown-directive", "asume A believes fresh(Ts)", 6,
         "unknown directive 'asume'"),
        ("undeclared-name", "assume A believes fresh(Tx)", 6,
         "undeclared identifier: 'Tx'"),
        ("let-shadows-constant", "let Kas = (A, B)", 5,
         "let 'Kas' shadows a declared constant"),
        ("repeated-goal-label", "goal A-key: A believes fresh(Ts)", 10,
         "goal label 'A-key' repeated"),
        ("undeclared-principal", "X -> S : (A, B)", 7,
         "'X' is not a declared principal"),
        ("undeclared-variant", None, None,
         "demo declares no variant 'bogus'"),
    ]

    def _family(self, tmp_path, lines):
        from repro.protocols import ProtocolFamily

        path = tmp_path / "demo.proto"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return ProtocolFamily(path)

    def test_base_spec_loads(self, tmp_path):
        protocol = self._family(tmp_path, self.BASE).ban_protocol()
        assert [goal.label for goal in protocol.goals] == ["A-key", "B-key"]
        assert protocol.principals == (Principal("A"), Principal("B"),
                                       Principal("S"))

    @pytest.mark.parametrize("case, line, index, message", REFUSALS,
                             ids=[case[0] for case in REFUSALS])
    def test_refusal_names_file_and_line(self, tmp_path, case, line,
                                         index, message):
        lines, variant, number = list(self.BASE), "bogus", 1
        if line is not None:
            lines.insert(index, line)
            variant, number = None, index + 1
        family = self._family(tmp_path, lines)
        with pytest.raises(ProtocolError) as caught:
            family.ban_protocol(variant)
        assert str(caught.value) == f"demo.proto:{number}: {message}"

    def test_runs_cover_only_listed_variants(self):
        from repro.protocols import x509

        with pytest.raises(ProtocolError, match="do not cover variant"):
            x509.build_system("repaired")
        with pytest.raises(ProtocolError, match="declares no variant"):
            kerberos.build_system("repaired")

    def test_names_match_the_specs(self):
        from repro.protocols import PROTOCOLS

        assert {name: family.name for name, family in PROTOCOLS.items()} == {
            name: name for name in PROTOCOLS
        }

    def test_import_reads_no_spec(self):
        """``import repro`` (CLI and daemon included) opens no spec
        file; building a protocol does."""
        import subprocess
        import sys

        code = (
            "import sys\n"
            "opened = []\n"
            "sys.addaudithook(lambda event, args: event == 'open' and "
            "str(args[0]).endswith('.proto') and opened.append(args[0]))\n"
            "import repro, repro.__main__, repro.serve\n"
            "before = len(opened)\n"
            "repro.protocols.kerberos.ban_protocol()\n"
            "print(before, len(opened))\n"
        )
        result = subprocess.run([sys.executable, "-c", code],
                                capture_output=True, text=True, check=True)
        assert result.stdout.split() == ["0", "1"]
