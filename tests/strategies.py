"""Shared hypothesis strategies and fixtures for the test suite."""

from __future__ import annotations

from hypothesis import strategies as st

from repro.terms import (
    And,
    Believes,
    Combined,
    Controls,
    Encrypted,
    ForAll,
    Formula,
    Forwarded,
    Fresh,
    Group,
    Has,
    Iff,
    Implies,
    Key,
    Message,
    Nonce,
    Not,
    Or,
    Parameter,
    Prim,
    PrimitiveProposition,
    Principal,
    Said,
    Says,
    Sees,
    SharedKey,
    SharedSecret,
    Sort,
    Truth,
    Vocabulary,
)

#: A fixed vocabulary shared by all generated terms (parser tests resolve
#: identifiers through it).
VOCAB = Vocabulary()
PRINCIPALS = VOCAB.principals("A", "B", "S")
KEYS = VOCAB.keys("Kab", "Kas", "Kbs")
NONCES = VOCAB.nonces("Na", "Nb", "Ts")
PROPS = (VOCAB.proposition("p"), VOCAB.proposition("q"))
KEY_PARAM = VOCAB.parameter("Kp", Sort.KEY)

principals = st.sampled_from(PRINCIPALS)
keys = st.sampled_from(KEYS)
nonces = st.sampled_from(NONCES)
props = st.sampled_from(PROPS)


def messages(max_depth: int = 3) -> st.SearchStrategy[Message]:
    """Random messages over the shared vocabulary.

    Primitive propositions appear only wrapped in ``Prim`` (the
    canonical formula embedding), so printed terms parse back uniquely.
    """
    base = st.one_of(
        nonces,
        keys,
        principals,
        props.map(Prim),
    )

    def extend(children: st.SearchStrategy[Message]) -> st.SearchStrategy[Message]:
        return st.one_of(
            st.tuples(children, children).map(lambda xy: Group(tuple(xy))),
            st.tuples(children, keys, principals).map(
                lambda t: Encrypted(t[0], t[1], t[2])
            ),
            st.tuples(children, nonces, principals).map(
                lambda t: Combined(t[0], t[1], t[2])
            ),
            children.map(Forwarded),
            formulas_from(children),
        )

    return st.recursive(base, extend, max_leaves=max_depth * 3)


def formulas_from(
    children: st.SearchStrategy[Message],
) -> st.SearchStrategy[Formula]:
    atomic = st.one_of(
        props.map(Prim),
        st.just(Truth()),
        st.tuples(principals, keys, principals).map(
            lambda t: SharedKey(t[0], t[1], t[2])
        ),
        st.tuples(principals, nonces, principals).map(
            lambda t: SharedSecret(t[0], t[1], t[2])
        ),
        st.tuples(principals, keys).map(lambda t: Has(t[0], t[1])),
        children.map(Fresh),
        st.tuples(principals, children).map(lambda t: Sees(t[0], t[1])),
        st.tuples(principals, children).map(lambda t: Said(t[0], t[1])),
        st.tuples(principals, children).map(lambda t: Says(t[0], t[1])),
    )

    def extend(inner: st.SearchStrategy[Formula]) -> st.SearchStrategy[Formula]:
        return st.one_of(
            inner.map(Not),
            st.tuples(inner, inner).map(lambda t: And(t[0], t[1])),
            st.tuples(inner, inner).map(lambda t: Or(t[0], t[1])),
            st.tuples(inner, inner).map(lambda t: Implies(t[0], t[1])),
            st.tuples(inner, inner).map(lambda t: Iff(t[0], t[1])),
            st.tuples(principals, inner).map(lambda t: Believes(t[0], t[1])),
            st.tuples(principals, inner).map(lambda t: Controls(t[0], t[1])),
        )

    return st.recursive(atomic, extend, max_leaves=6)


def formulas(max_depth: int = 3) -> st.SearchStrategy[Formula]:
    return formulas_from(messages(max_depth=2))


def propositional_formulas() -> st.SearchStrategy[Formula]:
    """Pure propositional formulas over two atoms, for tautology tests."""
    atoms = st.one_of(props.map(Prim), st.just(Truth()))

    def extend(inner):
        return st.one_of(
            inner.map(Not),
            st.tuples(inner, inner).map(lambda t: And(*t)),
            st.tuples(inner, inner).map(lambda t: Or(*t)),
            st.tuples(inner, inner).map(lambda t: Implies(*t)),
            st.tuples(inner, inner).map(lambda t: Iff(*t)),
        )

    return st.recursive(atoms, extend, max_leaves=8)


def sweep_fingerprint(report) -> tuple:
    """Everything observable about a sweep report, as comparable data."""
    return (
        report.render(),
        {
            name: (
                r.instances,
                r.points_checked,
                [str(v) for v in r.violations],
            )
            for name, r in report.per_schema.items()
        },
    )
