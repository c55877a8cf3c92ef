"""Tests for the hide operation (Section 6)."""

from dataclasses import replace

import pytest
from hypothesis import given, settings

from repro import context
from repro.model import ENVIRONMENT, RunBuilder, Send, System
from repro.semantics import (
    OPAQUE,
    Evaluator,
    hidden_local_view,
    hide_message,
    hide_message_pattern,
)
from repro.semantics.hide import hidden_run_views
from repro.terms import (
    Encrypted,
    Forwarded,
    Group,
    Key,
    Nonce,
    Principal,
    walk,
)

from tests.strategies import messages
from tests.test_semantics_evaluator import edge_system

A = Principal("A")
B = Principal("B")
K = Key("K")
K2 = Key("K2")
N = Nonce("N")
M = Nonce("M")


class TestHideMessage:
    def test_readable_ciphertext_kept(self):
        cipher = Encrypted(N, K, A)
        assert hide_message(frozenset({K}), cipher) == cipher

    def test_unreadable_ciphertext_blinded(self):
        cipher = Encrypted(N, K, A)
        assert hide_message(frozenset(), cipher) == OPAQUE

    def test_paper_example(self):
        """({X}_K, {Y}_K') with only K' held becomes (⊥, {Y}_K')."""
        pair = Group((Encrypted(N, K, A), Encrypted(M, K2, B)))
        hidden = hide_message(frozenset({K2}), pair)
        assert hidden == Group((OPAQUE, Encrypted(M, K2, B)))

    def test_nested_unreadable_inside_readable(self):
        inner = Encrypted(N, K2, B)
        outer = Encrypted(Group((M, inner)), K, A)
        hidden = hide_message(frozenset({K}), outer)
        assert hidden == Encrypted(Group((M, OPAQUE)), K, A)

    def test_distinct_ciphertexts_collapse_to_one_bottom(self):
        """The extended abstract's single-⊥ reading: identity of
        unreadable blobs is not preserved."""
        pair = Group((Encrypted(N, K, A), Encrypted(M, K, A)))
        hidden = hide_message(frozenset(), pair)
        assert hidden == Group((OPAQUE, OPAQUE))

    def test_forwarding_traversed(self):
        hidden = hide_message(frozenset(), Forwarded(Encrypted(N, K, A)))
        assert hidden == Forwarded(OPAQUE)

    @given(messages())
    @settings(max_examples=60)
    def test_idempotent(self, message):
        keys = frozenset({K})
        once = hide_message(keys, message)
        assert hide_message(keys, once) == once

    @given(messages())
    @settings(max_examples=60)
    def test_all_keys_is_identity(self, message):
        keys = frozenset({Key("Kab"), Key("Kas"), Key("Kbs"), K, K2})
        assert hide_message(keys, message) == message

    @given(messages())
    @settings(max_examples=60)
    def test_no_unreadable_ciphertext_survives(self, message):
        hidden = hide_message(frozenset({K}), message)
        for node in walk(hidden):
            if isinstance(node, Encrypted):
                assert node.key == K


class TestHidePattern:
    def test_identity_of_blobs_preserved(self):
        cipher = Encrypted(N, K, A)
        other = Encrypted(M, K, A)
        numbering = {}
        hidden = hide_message_pattern(
            frozenset(), Group((cipher, cipher, other)), numbering
        )
        assert hidden.parts[0] == hidden.parts[1]
        assert hidden.parts[0] != hidden.parts[2]

    def test_numbering_shared_across_calls(self):
        cipher = Encrypted(N, K, A)
        numbering = {}
        first = hide_message_pattern(frozenset(), cipher, numbering)
        second = hide_message_pattern(frozenset(), cipher, numbering)
        assert first == second


class TestHiddenLocalView:
    def test_same_traffic_same_view(self):
        def build(inner_nonce):
            builder = RunBuilder([A, B], keysets={A: [K], B: [K, K2]})
            message = Encrypted(
                Group((M, Encrypted(inner_nonce, K2, B))), K, B
            )
            builder.send(B, message, A)
            builder.receive(A)
            return builder.build(f"run-{inner_nonce}")

        run1 = build(N)
        run2 = build(Nonce("N2"))
        view1 = hidden_local_view(run1, A, run1.end_time)
        view2 = hidden_local_view(run2, A, run2.end_time)
        assert view1 == view2  # A cannot tell the runs apart

        # B, holding K2, distinguishes them:
        assert hidden_local_view(run1, B, 1) != hidden_local_view(run2, B, 1)

    def test_view_is_hashable(self):
        builder = RunBuilder([A, B])
        run = builder.build("empty")
        assert hash(hidden_local_view(run, A, 0)) is not None

    def test_env_view(self):
        builder = RunBuilder([A, B], keysets={A: [K]})
        builder.send(A, Encrypted(N, K, A), B)
        run = builder.build("env")
        view = hidden_local_view(run, run.environment, run.end_time)
        assert view[0] == "env"


def _late_key_run(payload):
    """A reads ``{payload}_K2`` only after a mid-run ``newkey(K2)``."""
    builder = RunBuilder([A, B], keysets={A: [K], B: [K, K2]})
    builder.send(B, Group((Encrypted(payload, K2, B), Encrypted(M, K2, B))), A)
    builder.receive(A)
    builder.newkey(A, K2)
    builder.send(B, Encrypted(payload, K2, B), A)
    builder.receive(A)
    return builder.build(f"late-key-{payload}")


def _rewritten_run():
    """A run edited by hand: a ciphertext nobody sent sits in A's buffer
    at time 1, A's history at 3 does not extend its history at 2 (nor
    its history at 4 the one at 3), and the global history at 4 does
    not extend the one at 3."""
    builder = RunBuilder([A, B], keysets={A: [K], B: [K, K2]})
    builder.send(B, Encrypted(N, K2, B), A)
    builder.receive(A)
    builder.send(B, Encrypted(M, K2, B), A)
    builder.receive(A)
    run = builder.build("rewritten")
    states = list(run.states)
    env = states[1].env
    junk = env.buffer(A) + (Encrypted(Nonce("J"), K2, B),)
    states[1] = states[1].with_env(env.with_buffers({**env.buffer_map, A: junk}))
    local = states[3].local(A)
    states[3] = states[3].with_local(A, replace(local, history=(Send(N, B),)))
    env = states[4].env
    states[4] = states[4].with_env(replace(env, history=env.history[1:]))
    return replace(run, states=tuple(states))


def _expanded(view, nodes):
    """A walked view with its history node spelled out as the hidden
    history it names."""
    steps = {child: step for step, child in nodes.items()}
    history, node = [], view[1]
    while node:
        node, action = steps[node]
        history.append(action)
    return (view[0], tuple(reversed(history))) + view[2:]


class TestHiddenRunViews:
    @pytest.mark.parametrize("pattern", [False, True])
    @pytest.mark.parametrize(
        "runs",
        [(_late_key_run(N), _late_key_run(Nonce("N2"))), (_rewritten_run(),),
         edge_system().runs],
        ids=["mid-run-newkey", "history-not-extended", "hand-built-edges"],
    )
    def test_walk_matches_the_literal_views(self, runs, pattern):
        for principal in (A, B, ENVIRONMENT):
            nodes = {}
            walked, literal = [], []
            for run in runs:
                views = hidden_run_views(run, principal, pattern, nodes)
                expected = [
                    hidden_local_view(run, principal, k, pattern)
                    for k in run.times
                ]
                assert [_expanded(view, nodes) for view in views] == expected
                walked += views
                literal += expected
            # Equal walked views exactly where the literal views are equal.
            assert [[a == b for b in walked] for a in walked] == [
                [a == b for b in literal] for a in literal
            ]

    @pytest.mark.parametrize("pattern", [False, True])
    def test_evaluator_view_lists_match_the_literal_views(self, pattern):
        system = edge_system()
        evaluator = Evaluator(system, pattern_hide=pattern)
        for run in system.runs:
            for principal in run.all_principals:
                views = evaluator._hidden_views(principal, run)
                assert [_expanded(view, evaluator._nodes) for view in views] == [
                    hidden_local_view(run, principal, k, pattern)
                    for k in run.times
                ]
                assert [
                    evaluator._hidden_view(principal, run, k) for k in run.times
                ] == views

    def test_newkey_reveals_an_earlier_ciphertext(self):
        runs = (_late_key_run(N), _late_key_run(Nonce("N2")))
        nodes = {}
        first, second = (hidden_run_views(run, A, False, nodes) for run in runs)
        assert first[2] == second[2]  # before newkey(K2): both blinded
        assert first[3] != second[3]  # after it: the payloads differ

    def test_hide_work_is_linear_in_run_length(self):
        def hide_lookups(steps):
            builder = RunBuilder([A, B], keysets={A: [K], B: [K, K2]})
            for _ in range(steps // 2):
                builder.send(B, Encrypted(N, K2, B), A)
                builder.receive(A)
            system = System((builder.build(f"steps-{steps}"),))
            ctx = context.fresh("hide-cost")
            with context.use(ctx):
                Evaluator(system).possible_points(A, system.runs[0], 0)
            return ctx.counters.get("hide.hit", 0) + ctx.counters.get(
                "hide.miss", 0
            )

        assert hide_lookups(80) <= 5 * hide_lookups(20)
