"""Tests for the truth definition (Section 6), clause by clause."""

import pytest

from repro.errors import ModelError, SemanticsError
from repro.model import (
    ENVIRONMENT,
    EnvState,
    GlobalState,
    Interpretation,
    LocalState,
    NewKey,
    Receive,
    Run,
    RunBuilder,
    Send,
    system_of,
)
from repro.model.submsgs import said_submsgs
from repro.semantics import Evaluator, GoodRunVector, hidden_local_view
from repro.semantics.compiler import CompiledSystem
from repro.terms import (
    And,
    Believes,
    Controls,
    ForAll,
    Fresh,
    Has,
    Iff,
    Implies,
    Key,
    Nonce,
    Not,
    Or,
    Parameter,
    Prim,
    Principal,
    Said,
    Says,
    Sees,
    SharedKey,
    SharedSecret,
    Sort,
    Truth,
    Vocabulary,
    combined,
    encrypted,
    forwarded,
    group,
)

A = Principal("A")
B = Principal("B")
K = Key("K")
K2 = Key("K2")
N = Nonce("N")
M = Nonce("M")


def fresh_vocab():
    vocab = Vocabulary()
    vocab.principal("A")
    vocab.principal("B")
    vocab.key("K")
    vocab.key("K2")
    vocab.nonce("N")
    vocab.nonce("M")
    return vocab


def one_run_system(build):
    builder = RunBuilder([A, B], keysets={A: [K], B: [K]})
    build(builder)
    run = builder.build("r")
    return system_of([run], vocabulary=fresh_vocab()), run


class TestPropositional:
    def test_truth_and_connectives(self):
        system, run = one_run_system(lambda b: None)
        prop = system.vocabulary.proposition("p")
        interp = Interpretation.from_run_table({prop: ["r"]})
        system = system_of(system.runs, interp, system.vocabulary)
        ev = Evaluator(system)
        p = Prim(prop)
        assert ev.evaluate(Truth(), run, 0)
        assert ev.evaluate(p, run, 0)
        assert not ev.evaluate(Not(p), run, 0)
        assert ev.evaluate(And(p, p), run, 0)
        assert ev.evaluate(Or(Not(p), p), run, 0)
        assert ev.evaluate(Implies(p, p), run, 0)
        assert ev.evaluate(Iff(p, p), run, 0)
        assert not ev.evaluate(Iff(p, Not(p)), run, 0)


class TestSeeing:
    def test_sees_received_message_and_components(self):
        def build(builder):
            builder.send(A, encrypted(group(N, M), K, A), B)
            builder.receive(B)

        system, run = one_run_system(build)
        ev = Evaluator(system)
        end = run.end_time
        cipher = encrypted(group(N, M), K, A)
        assert ev.evaluate(Sees(B, cipher), run, end)
        assert ev.evaluate(Sees(B, N), run, end)  # B holds K

    def test_sees_grows_with_new_keys(self):
        """'As P comes into possession of more keys, it is able to
        decrypt more of the messages it has received.'"""
        cipher = encrypted(N, K2, B)

        def build(builder):
            builder.newkey(B, K2)
            builder.send(B, cipher, A)
            builder.receive(A)
            builder.newkey(A, K2)

        system, run = one_run_system(build)
        ev = Evaluator(system)
        receive_time = 3
        assert ev.evaluate(Sees(A, cipher), run, receive_time)
        assert not ev.evaluate(Sees(A, N), run, receive_time)
        assert ev.evaluate(Sees(A, N), run, run.end_time)

    def test_not_sees_before_receive(self):
        def build(builder):
            builder.send(A, N, B)
            builder.receive(B)

        system, run = one_run_system(build)
        ev = Evaluator(system)
        assert not ev.evaluate(Sees(B, N), run, 1)
        assert ev.evaluate(Sees(B, N), run, 2)


class TestSayingAndEpoch:
    def test_said_vs_says_for_past_message(self):
        """A message sent before the epoch was said but is not says."""

        def build(builder):
            builder.send(A, N, B)
            builder.mark_epoch()
            builder.receive(B)

        system, run = one_run_system(build)
        ev = Evaluator(system)
        end = run.end_time
        assert ev.evaluate(Said(A, N), run, end)
        assert not ev.evaluate(Says(A, N), run, end)

    def test_says_in_epoch(self):
        def build(builder):
            builder.send(A, N, B)

        system, run = one_run_system(build)
        ev = Evaluator(system)
        assert ev.evaluate(Says(A, N), run, run.end_time)
        assert not ev.evaluate(Says(A, N), run, 0)

    def test_said_components_respect_send_time_keys(self):
        """'If P sends {X}_K, then P says X only if it possessed K when
        it sent it' — acquiring K later does not extend what was said."""
        cipher = encrypted(N, K2, B)

        def build(builder):
            builder.newkey(B, K2)
            builder.send(B, cipher, A)
            builder.receive(A)
            builder.send(A, cipher, B)  # relaying, no K2
            builder.newkey(A, K2)

        system, run = one_run_system(build)
        ev = Evaluator(system)
        end = run.end_time
        assert ev.evaluate(Said(A, cipher), run, end)
        assert not ev.evaluate(Said(A, N), run, end)
        assert ev.evaluate(Said(B, N), run, end)

    def test_forwarding_not_said(self):
        def build(builder):
            builder.send(B, N, A)
            builder.receive(A)
            builder.send(A, forwarded(N), B)

        system, run = one_run_system(build)
        ev = Evaluator(system)
        end = run.end_time
        assert ev.evaluate(Said(A, forwarded(N)), run, end)
        assert not ev.evaluate(Said(A, N), run, end)

    def test_misused_forwarding_is_said(self):
        def build(builder):
            builder.send(ENVIRONMENT, forwarded(N), B)

        system, run = one_run_system(build)
        ev = Evaluator(system)
        assert ev.evaluate(Said(ENVIRONMENT, N), run, run.end_time)


class TestFreshness:
    def test_everything_fresh_without_past(self):
        system, run = one_run_system(lambda b: b.send(A, N, B))
        ev = Evaluator(system)
        assert ev.evaluate(Fresh(N), run, run.end_time)

    def test_past_submessages_not_fresh(self):
        def build(builder):
            builder.send(A, group(N, M), B)
            builder.mark_epoch()
            builder.receive(B)

        system, run = one_run_system(build)
        ev = Evaluator(system)
        assert not ev.evaluate(Fresh(N), run, 0)
        assert not ev.evaluate(Fresh(group(N, M)), run, 1)
        assert ev.evaluate(Fresh(Nonce("Other")), run, 1)

    def test_freshness_constant_along_run(self):
        def build(builder):
            builder.send(A, N, B)
            builder.mark_epoch()

        system, run = one_run_system(build)
        ev = Evaluator(system)
        values = {ev.evaluate(Fresh(N), run, k) for k in run.times}
        assert values == {False}


class TestJurisdiction:
    def test_controls_holds_when_says_implies_truth(self):
        """A <-K-> B holds throughout this run, so S controls it."""
        good = SharedKey(A, K, B)

        def build(builder):
            builder.send(A, good, B)
            builder.receive(B)

        system, run = one_run_system(build)
        ev = Evaluator(system)
        assert ev.evaluate(Controls(A, good), run, 0)

    def test_controls_fails_when_said_falsehood(self):
        prop_vocab = fresh_vocab()
        prop = prop_vocab.proposition("claim")
        claim = Prim(prop)

        builder = RunBuilder([A, B], keysets={A: [K], B: [K]})
        builder.send(A, claim, B)
        run = builder.build("r")
        system = system_of([run], Interpretation.empty(), prop_vocab)
        ev = Evaluator(system)
        assert ev.evaluate(Says(A, claim), run, run.end_time)
        assert not ev.evaluate(Controls(A, claim), run, 0)

    def test_controls_time_independent_within_epoch(self):
        good = SharedKey(A, K, B)
        system, run = one_run_system(lambda b: b.send(A, good, B))
        ev = Evaluator(system)
        values = {ev.evaluate(Controls(A, good), run, k) for k in run.times}
        assert len(values) == 1


class TestSharedKeysAndSecrets:
    def test_good_key_when_only_pair_encrypts(self):
        def build(builder):
            builder.send(A, encrypted(N, K, A), B)
            builder.receive(B)

        system, run = one_run_system(build)
        ev = Evaluator(system)
        assert ev.evaluate(SharedKey(A, K, B), run, 0)

    def test_third_party_encryption_spoils_key(self):
        builder = RunBuilder([A, B], keysets={A: [K], B: [K]}, env_keys=[K])
        builder.send(ENVIRONMENT, encrypted(N, K, A), B)
        run = builder.build("r")
        system = system_of([run], vocabulary=fresh_vocab())
        ev = Evaluator(system)
        assert not ev.evaluate(SharedKey(A, K, B), run, 0)

    def test_relaying_copies_does_not_spoil(self):
        """Section 3.1: 'other principals can send copies of these
        messages without violating the soundness of the
        message-meaning rule' — and without spoiling the key."""
        cipher = encrypted(N, K, A)

        def build(builder):
            builder.send(A, cipher, B)
            builder.receive(B)
            builder.send(B, cipher, A)  # B is one of the pair anyway
            builder.receive(A)
            builder.send(A, cipher, ENVIRONMENT)

        system, run = one_run_system(build)
        ev = Evaluator(system)
        assert ev.evaluate(SharedKey(A, K, B), run, 0)

    def test_relay_by_environment_keeps_key_good(self):
        cipher = encrypted(N, K, A)
        builder = RunBuilder([A, B], keysets={A: [K], B: [K]})
        builder.send(A, cipher, ENVIRONMENT)
        builder.receive(ENVIRONMENT)
        builder.send(ENVIRONMENT, cipher, B)  # a copy, not an encryption
        builder.receive(B)
        run = builder.build("r")
        system = system_of([run], vocabulary=fresh_vocab())
        ev = Evaluator(system)
        assert ev.evaluate(SharedKey(A, K, B), run, run.end_time)

    def test_quantification_covers_the_past(self):
        """'a good key for one pair in one epoch cannot be a good key
        for another pair in another epoch' — past encryptions count."""
        builder = RunBuilder([A, B], keysets={A: [K], B: [K]}, env_keys=[K])
        builder.send(ENVIRONMENT, encrypted(M, K, B), A)
        builder.mark_epoch()
        builder.send(A, encrypted(N, K, A), B)
        run = builder.build("r")
        system = system_of([run], vocabulary=fresh_vocab())
        ev = Evaluator(system)
        assert not ev.evaluate(SharedKey(A, K, B), run, run.end_time)

    def test_shared_secret(self):
        def build(builder):
            builder.send(A, combined(N, M, A), B)
            builder.receive(B)

        system, run = one_run_system(build)
        ev = Evaluator(system)
        assert ev.evaluate(SharedSecret(A, M, B), run, 0)

    def test_shared_secret_spoiled_by_third_party(self):
        builder = RunBuilder([A, B])
        builder.send(ENVIRONMENT, combined(N, M, A), B)
        run = builder.build("r")
        system = system_of([run], vocabulary=fresh_vocab())
        ev = Evaluator(system)
        assert not ev.evaluate(SharedSecret(A, M, B), run, 0)


class TestHasAndParameters:
    def test_has(self):
        system, run = one_run_system(lambda b: b.newkey(A, K2))
        ev = Evaluator(system)
        assert not ev.evaluate(Has(A, K2), run, 0)
        assert ev.evaluate(Has(A, K2), run, run.end_time)

    def test_parameter_resolved_per_run(self):
        parameter = Parameter("Kp", Sort.KEY)
        builder = RunBuilder([A, B], keysets={A: [K], B: [K]})
        run = builder.build("r", params={parameter: K})
        system = system_of([run], vocabulary=fresh_vocab())
        ev = Evaluator(system)
        assert ev.evaluate(Has(A, parameter), run, 0)

    def test_unassigned_parameter_raises(self):
        parameter = Parameter("Kq", Sort.KEY)
        system, run = one_run_system(lambda b: None)
        ev = Evaluator(system)
        with pytest.raises(SemanticsError):
            ev.evaluate(Has(A, parameter), run, 0)

    def test_forall_over_vocabulary_keys(self):
        system, run = one_run_system(lambda b: None)
        x = Parameter("x", Sort.KEY)
        # Neither A nor B holds K2, so "A has x" fails for x := K2.
        formula = ForAll(x, Has(A, x))
        ev = Evaluator(system)
        assert not ev.evaluate(formula, run, 0)

    def test_forall_true_case(self):
        def build(builder):
            builder.newkey(A, K2)

        system, run = one_run_system(build)
        x = Parameter("x", Sort.KEY)
        ev = Evaluator(system)
        assert ev.evaluate(ForAll(x, Has(A, x)), run, run.end_time)


class TestBelief:
    def make_two_run_system(self):
        """Two runs A cannot tell apart (inner blob differs under K2)."""

        def build(name, inner):
            builder = RunBuilder([A, B], keysets={A: [K], B: [K, K2]})
            builder.send(B, encrypted(group(M, encrypted(inner, K2, B)), K, B), A)
            builder.receive(A)
            return builder.build(name)

        run1 = build("r1", N)
        run2 = build("r2", Nonce("N2"))
        return system_of([run1, run2], vocabulary=fresh_vocab()), run1, run2

    def test_belief_all_runs_good(self):
        system, run1, _run2 = self.make_two_run_system()
        ev = Evaluator(system)
        end = run1.end_time
        # True in both runs and at all indistinguishable points:
        assert ev.evaluate(Believes(A, Said(B, M)), run1, end)
        # The inner nonce differs across possible points:
        inner_fact = Said(B, N)
        assert not ev.evaluate(Believes(A, inner_fact), run1, end)

    def test_belief_restricted_by_good_runs(self):
        system, run1, _run2 = self.make_two_run_system()
        vector = GoodRunVector.of({A: ["r1"], B: ["r1", "r2"]})
        ev = Evaluator(system, vector)
        end = run1.end_time
        # With r2 excluded from A's good runs, A's preconception decides:
        assert ev.evaluate(Believes(A, Said(B, N)), run1, end)

    def test_empty_good_runs_believe_everything(self):
        system, run1, _run2 = self.make_two_run_system()
        vector = GoodRunVector.of({A: []})
        ev = Evaluator(system, vector)
        impossible = And(Said(B, N), Not(Said(B, N)))
        assert ev.evaluate(Believes(A, impossible), run1, 0)

    def test_beliefs_can_be_mistaken(self):
        """(P believes φ) ⊃ φ does NOT hold in general."""
        system, run1, run2 = self.make_two_run_system()
        vector = GoodRunVector.of({A: ["r1"]})
        ev = Evaluator(system, vector)
        end = run2.end_time
        assert ev.evaluate(Believes(A, Said(B, N)), run2, end)
        assert not ev.evaluate(Said(B, N), run2, end)

    def test_introspection_a2(self):
        system, run1, _ = self.make_two_run_system()
        ev = Evaluator(system)
        end = run1.end_time
        belief = Believes(A, Said(B, M))
        assert ev.evaluate(belief, run1, end)
        assert ev.evaluate(Believes(A, belief), run1, end)

    def test_negative_introspection_a3(self):
        system, run1, _ = self.make_two_run_system()
        ev = Evaluator(system)
        end = run1.end_time
        belief = Believes(A, Said(B, N))
        assert not ev.evaluate(belief, run1, end)
        assert ev.evaluate(Believes(A, Not(belief)), run1, end)

    def test_possible_points_requires_known_principal(self):
        system, run1, _ = self.make_two_run_system()
        ev = Evaluator(system)
        with pytest.raises(SemanticsError):
            ev.possible_points(Principal("Z"), run1, 0)


def edge_run(name, payload):
    """A run built by hand from states, at times -2..3, with the cases
    the per-run walks must keep to the per-time definitions:

    * a send already in A's history at the window's first time (-2);
    * several actions at one time: B receives and sends at -1, and A
      takes ``newkey(K2)`` and sends twice at 1 (a key acquired mid-run,
      which makes B's ``{payload}_K2`` readable to A);
    * an environment send at 0, and a global history at 2 that does not
      extend the one at 1, with a new environment send in it;
    * a stuttering step: the state at 3 is the state at 2.
    """
    sealed = encrypted(payload, K2, B)
    locals_ = {
        A: LocalState(history=(Send(N, B),), keys=frozenset({K})),
        B: LocalState(keys=frozenset({K, K2})),
    }
    env = EnvState(history=((A, Send(N, B)),), keys=frozenset({K}))
    steps = (
        (),
        ((B, Receive(N)), (B, Send(sealed, A))),
        ((A, Receive(sealed)), (ENVIRONMENT, Send(M, B))),
        ((A, NewKey(K2)), (A, Send(encrypted(M, K2, A), B)),
         (A, Send(sealed, B))),
    )
    states = []
    for step in steps:
        for who, action in step:
            env = env.record(who, action)
            if who != ENVIRONMENT:
                locals_[who] = locals_[who].after(action)
        states.append(GlobalState(env, tuple(sorted(
            locals_.items(), key=lambda item: item[0].name))))
    env = EnvState(
        history=env.history[1:] + ((ENVIRONMENT, Send(Nonce("J"), A)),),
        keys=env.keys, buffers=((B, (encrypted(M, K2, A),)),),
    )
    states.append(states[-1].with_env(env))
    states.append(states[-1])
    return Run(name, tuple(states), start_time=-2)


def edge_system():
    """Two edge runs A tells apart only once it holds K2."""
    return system_of([edge_run("edge-N", N), edge_run("edge-P", Nonce("P"))])


def literal_said_entries(run, principal):
    """``Evaluator._said_entries`` by its definition, time by time."""
    return tuple(
        (k, said_submsgs(run.keyset(principal, k),
                         run.received_messages(principal, k), send.message))
        for k in run.times
        for send in run.sends_performed_at(principal, k)
    )


def _bit_indices(bits):
    return frozenset(i for i in range(bits.bit_length()) if bits >> i & 1)


class TestWalkedKernels:
    """The one-walk-per-run kernels against their per-time definitions."""

    def test_said_entries_match_the_literal_ones(self):
        system = edge_system()
        evaluator = Evaluator(system)
        for run in system.runs:
            for principal in run.all_principals:
                assert evaluator._said_entries(principal, run) == (
                    literal_said_entries(run, principal)
                )
            sent_at = {
                principal: [k for k, _ in evaluator._said_entries(principal, run)]
                for principal in run.all_principals
            }
            assert sent_at == {A: [-2, 1, 1], B: [-1], ENVIRONMENT: [0, 2]}

    @pytest.mark.parametrize("pattern", [False, True])
    @pytest.mark.parametrize("good", [None, ["edge-N"]])
    def test_belief_groups_match_the_literal_grouping(self, pattern, good):
        system = edge_system()
        vector = None if good is None else GoodRunVector.of(
            {A: good, B: good})
        compiled = CompiledSystem(system, vector, pattern_hide=pattern)
        for principal in (A, B, ENVIRONMENT):
            classes = {}
            for i, (run, k) in enumerate(compiled.points):
                view = hidden_local_view(run, principal, k, pattern)
                classes.setdefault(view, set()).add(i)
            kept = {
                i for i, (run, _k) in enumerate(compiled.points)
                if good is None or principal == ENVIRONMENT
                or run.name in good
            }
            assert {
                (_bit_indices(members), _bit_indices(possible))
                for members, possible in compiled._belief_groups_for(principal)
            } == {
                (frozenset(points), frozenset(points & kept))
                for points in classes.values()
            }

    def test_errors_keep_their_type_and_call(self):
        system = edge_system()
        run = system.runs[0]
        evaluator = Evaluator(system)
        for k in (run.start_time - 1, run.end_time + 1):
            with pytest.raises(ModelError, match="outside run window"):
                evaluator._hidden_view(A, run, k)
        stranger = Principal("C")
        for call in (
            lambda: evaluator._hidden_view(stranger, run, 0),
            lambda: evaluator._said_entries(stranger, run),
            lambda: evaluator.evaluate(Said(stranger, N), run, 0),
            lambda: CompiledSystem(system)._belief_groups_for(stranger),
        ):
            with pytest.raises(ModelError, match="C is not a system principal"):
                call()
        with pytest.raises(SemanticsError, match="C has no local state"):
            evaluator.evaluate(Believes(stranger, Truth()), run, 0)
