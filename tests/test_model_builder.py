"""Tests for RunBuilder, Run accessors, and well-formedness WF0-WF5."""

from dataclasses import replace

import pytest

from repro.errors import ModelError, WellFormednessError
from repro.model import (
    ENVIRONMENT,
    EnvState,
    GlobalState,
    LocalState,
    Receive,
    Run,
    RunBuilder,
    Send,
    check_run,
    is_wellformed,
)
from repro.terms import Key, Nonce, Parameter, Principal, Sort, encrypted, forwarded, group

A = Principal("A")
B = Principal("B")
K = Key("K")
K2 = Key("K2")
N = Nonce("N")
M = Nonce("M")


def simple_run():
    builder = RunBuilder([A, B], keysets={A: [K], B: [K]})
    builder.send(A, encrypted(N, K, A), B)
    builder.receive(B)
    return builder.build("simple")


class TestBuilder:
    def test_builds_wellformed_run(self):
        run = simple_run()
        assert check_run(run) == []

    def test_times_default_epoch(self):
        run = simple_run()
        assert run.start_time == 0
        assert run.times == range(0, 3)

    def test_send_feeds_buffer(self):
        builder = RunBuilder([A, B])
        builder.send(A, N, B)
        assert builder.buffer(B) == (N,)

    def test_receive_consumes_buffer(self):
        builder = RunBuilder([A, B])
        builder.send(A, N, B)
        delivered = builder.receive(B)
        assert delivered == N
        assert builder.buffer(B) == ()

    def test_receive_specific_message(self):
        builder = RunBuilder([A, B])
        builder.send(A, N, B)
        builder.send(A, M, B)
        assert builder.receive(B, M) == M
        assert builder.buffer(B) == (N,)

    def test_receive_empty_buffer_raises(self):
        builder = RunBuilder([A, B])
        with pytest.raises(ModelError):
            builder.receive(B)

    def test_newkey_grows_keyset(self):
        builder = RunBuilder([A, B])
        builder.newkey(A, K)
        assert K in builder.keyset(A)

    def test_mark_epoch_shifts_times(self):
        builder = RunBuilder([A, B], keysets={A: [K]})
        builder.send(A, N, B)
        builder.mark_epoch()
        builder.receive(B)
        run = builder.build("past-send")
        assert run.start_time == -1
        assert run.end_time == 1
        assert N in run.messages_sent_by(0)

    def test_environment_can_act(self):
        builder = RunBuilder([A, B])
        builder.send(ENVIRONMENT, N, A)
        builder.receive(A)
        run = builder.build("env-send")
        assert is_wellformed(run)
        assert run.received_messages(A, run.end_time) == {N}

    def test_internal_action_updates_data(self):
        builder = RunBuilder([A, B])
        builder.internal(A, "toss", data={"coin": "heads"})
        run = builder.build("toss")
        assert run.local(A, run.end_time).datum("coin") == "heads"

    def test_params_recorded(self):
        parameter = Parameter("Kp", Sort.KEY)
        builder = RunBuilder([A, B])
        run = builder.build("with-params", params={parameter: K})
        assert run.value_of(parameter) == K


class TestSendEnforcement:
    def test_wf3_blocks_encrypting_without_key(self):
        builder = RunBuilder([A, B])
        with pytest.raises(WellFormednessError):
            builder.send(A, encrypted(N, K, A), B)

    def test_wf3_allows_relaying_seen_ciphertext(self):
        cipher = encrypted(N, K, B)
        builder = RunBuilder([A, B], keysets={B: [K]})
        builder.send(B, cipher, A)
        builder.receive(A)
        builder.send(A, cipher, B)  # A relays without holding K

    def test_wf3_binds_environment_too(self):
        builder = RunBuilder([A, B])
        with pytest.raises(WellFormednessError):
            builder.send(ENVIRONMENT, encrypted(N, K, A), B)

    def test_wf4_blocks_lying_from_field(self):
        builder = RunBuilder([A, B], keysets={A: [K]})
        with pytest.raises(WellFormednessError):
            builder.send(A, encrypted(N, K, B), B)

    def test_wf4_exempts_environment(self):
        builder = RunBuilder([A, B], env_keys=[K])
        builder.send(ENVIRONMENT, encrypted(N, K, A), B)  # env may lie

    def test_wf5_blocks_forwarding_unseen(self):
        builder = RunBuilder([A, B])
        with pytest.raises(WellFormednessError):
            builder.send(A, forwarded(N), B)

    def test_wf5_exempts_environment(self):
        builder = RunBuilder([A, B])
        builder.send(ENVIRONMENT, forwarded(N), B)  # misuse, allowed for env

    def test_unchecked_escape_hatch(self):
        builder = RunBuilder([A, B])
        builder.send(A, forwarded(N), B, unchecked=True)
        run = builder.build("bad")
        violations = check_run(run)
        assert any(v.condition == "WF5" for v in violations)


class TestWellformedChecker:
    def test_wf0_nonempty_first_history(self):
        local = LocalState(history=(Send(N, B),))
        state = GlobalState(EnvState(), ((A, local), (B, LocalState())))
        run = Run("bad", (state,))
        assert any(v.condition == "WF0" for v in check_run(run))

    def test_wf1_shrinking_keyset(self):
        first = GlobalState.initial([A, B], keysets={A: [K]})
        second = first.with_local(A, LocalState())  # keys vanish
        run = Run("bad", (first, second))
        assert any(v.condition == "WF1" for v in check_run(run))

    def test_wf2_receive_without_send(self):
        first = GlobalState.initial([A, B])
        second = first.with_local(A, LocalState().after(Receive(N)))
        run = Run("bad", (first, second))
        assert any(v.condition == "WF2" for v in check_run(run))

    def test_run_validation(self):
        with pytest.raises(ModelError):
            Run("empty", ())
        state = GlobalState.initial([A, B])
        with pytest.raises(ModelError):
            Run("future", (state,), start_time=1)


class TestRunAccessors:
    @staticmethod
    def _runs():
        """A builder run, and a run built by hand from ``LocalState``s
        that starts at -1 with a send in A's history and whose global
        history at 1 does not extend the one at 0."""
        builder = RunBuilder([A, B], keysets={A: [K], B: [K]})
        builder.send(A, encrypted(N, K, A), B)
        builder.receive(B)
        builder.send(B, M, A)
        builder.receive(A)

        def state(env_history, a_history, b_history):
            return GlobalState(EnvState(env_history), (
                (A, LocalState(a_history)), (B, LocalState(b_history))))

        by_hand = Run("by-hand", (
            state(((A, Send(N, B)),), (Send(N, B),), ()),
            state(((A, Send(N, B)), (B, Receive(N))), (Send(N, B),),
                  (Receive(N),)),
            state(((ENVIRONMENT, Send(M, A)), (B, Receive(N)),
                   (A, Receive(M))), (Send(N, B), Receive(M)), (Receive(N),)),
        ), start_time=-1)
        return builder.build("built"), by_hand

    def test_received_messages_are_the_history_receives(self):
        for run in self._runs():
            for principal in run.all_principals:
                for k in run.times:
                    assert run.received_messages(principal, k) == frozenset(
                        action.message for action in run.history(principal, k)
                        if isinstance(action, Receive)
                    )
                    if principal != run.environment:
                        # The local state's cached set, not a rebuilt one.
                        assert run.received_messages(principal, k) is (
                            run.local(principal, k).received_messages)

    def test_received_sets_are_carried_from_the_first_state(self):
        """A builder run's states hold their received sets before any
        query, one set shared along a principal's states until its next
        receive; ``with_data`` and ``with_keys`` carry the parent's."""
        builder = RunBuilder([A, B], keysets={A: [K], B: [K]})
        builder.internal(A, "coin", data={"toss": "heads"})
        builder.send(A, encrypted(N, K, A), B)
        builder.receive(B)
        run = builder.build("carried")
        for principal in (A, B):
            states = [run.local(principal, k) for k in run.times]
            assert all("received_messages" in s.__dict__ for s in states)
            for before, after in zip(states, states[1:]):
                new = after.history[len(before.history):]
                if not any(isinstance(action, Receive) for action in new):
                    assert after.received_messages is before.received_messages
        local = run.local(B, run.end_time)
        for copy in (local.with_data("x", 1), local.with_keys([K2])):
            assert copy.__dict__["received_messages"] is local.received_messages
        assert LocalState(local.history).received_messages == (
            local.received_messages)

    def test_sends_by_time_walks_the_per_time_sends(self):
        for run in self._runs():
            for principal in run.all_principals:
                assert list(run.sends_by_time(principal)) == [
                    (k, run.sends_performed_at(principal, k))
                    for k in run.times if run.sends_performed_at(principal, k)
                ]
        _built, by_hand = self._runs()
        assert [k for k, _ in by_hand.sends_by_time(A)] == [-1]
        assert [k for k, _ in by_hand.sends_by_time(ENVIRONMENT)] == [1]

    def test_performed(self):
        run = simple_run()
        assert run.performed(A, 1) == (Send(encrypted(N, K, A), B),)
        assert run.performed(A, 2) == ()
        # The environment's actions come from the global history, also
        # when it is rewritten between two times.
        builder = RunBuilder([A, B])
        builder.send(A, N, B)
        builder.send(ENVIRONMENT, M, A)
        builder.send(ENVIRONMENT, N, B)
        built = builder.build("env-sends")
        env = built.states[2].env
        rewritten = EnvState(
            ((ENVIRONMENT, Send(M, B)), (ENVIRONMENT, Send(N, A))),
            env.keys, env.buffers, env.data,
        )
        edited = replace(built, states=built.states[:2] + (
            built.states[2].with_env(rewritten), built.states[3]
        ))
        for run in (built, edited):
            for principal in run.all_principals:
                for k in run.times:
                    now = run.history(principal, k)
                    if k > run.start_time:
                        now = now[len(run.history(principal, k - 1)):]
                    assert run.performed(principal, k) == now

    def test_keyset_env(self):
        builder = RunBuilder([A, B], env_keys=[K2])
        run = builder.build("envkeys")
        assert run.keyset(ENVIRONMENT, 0) == {K2}

    def test_state_out_of_range(self):
        run = simple_run()
        with pytest.raises(ModelError):
            run.state(99)

    def test_points(self):
        run = simple_run()
        assert len(list(run.points())) == 3
        assert all(k >= 0 for _r, k in run.epoch_points())

    def test_sends_performed_at(self):
        run = simple_run()
        assert len(run.sends_performed_at(A, 1)) == 1
        assert run.sends_performed_at(B, 1) == ()
