"""Term-layer micro-benchmarks: interning, hashing, equality, memo ops.

These pin the costs the tentpole optimization targets.  With
hash-consing in place, hashing a deep term is an attribute read,
equality between equal terms is a pointer compare, and the structural
operations are O(1) after first touch — so these benches guard against
regressions that would silently re-introduce tree walks into the memo
tables' hot path.
"""

from repro.terms import (
    Believes,
    Encrypted,
    Group,
    Key,
    Nonce,
    Principal,
    free_parameters,
    parse_formula,
    submessages,
)
from repro.terms.vocabulary import Vocabulary


def _deep_formula(levels: int = 60):
    """A deep believes-chain over a structured message."""
    vocab = Vocabulary()
    a, b = vocab.principals("A", "B")
    k = vocab.key("Kab")
    n = vocab.nonce("Na")
    body = parse_formula("A believes A <-Kab-> B", vocab)
    del a, b, k, n
    chain = body
    principal = Principal("A")
    for _ in range(levels):
        chain = Believes(principal, chain)
    return chain


def _wide_message(width: int = 50):
    parts = tuple(
        Encrypted(Nonce(f"n{i}"), Key(f"k{i % 5}"), Principal("P"))
        for i in range(width)
    )
    return Group(parts)


def test_bench_hash_deep_formula(benchmark):
    """Hashing a deep term must be O(1), not a tree walk."""
    chain = _deep_formula()
    benchmark(lambda: hash(chain))


def test_bench_equality_equal_terms(benchmark):
    """Equality of equal terms is an identity check under interning."""
    left = _wide_message()
    right = _wide_message()
    assert left is right
    benchmark(lambda: left == right)


def test_bench_dict_lookup_with_term_keys(benchmark):
    """The memo-table pattern: dict hits keyed on (term, str, int)."""
    chain = _deep_formula()
    table = {(chain, "run-1", k): bool(k % 2) for k in range(8)}
    key = (chain, "run-1", 3)
    benchmark(lambda: table[key])


def test_bench_interned_reconstruction(benchmark):
    """Rebuilding an already-interned compound term (table hit path)."""
    n, k, p = Nonce("bench-n"), Key("bench-k"), Principal("bench-p")
    inner = Encrypted(n, k, p)
    keep_alive = Group((n, inner))

    def rebuild():
        return Group((n, Encrypted(n, k, p)))

    assert rebuild() is keep_alive
    benchmark(rebuild)


def test_bench_fresh_atom_construction(benchmark):
    """Cold-path cost: constructing (and interning) a fresh atom.

    Names never repeat, so every call misses (the table keeps each atom
    until its memo cap clears it); this prices the intern layer's
    overhead on never-repeated terms.
    """
    counter = iter(range(10**9))
    benchmark(lambda: Nonce(f"cold{next(counter)}"))


def test_bench_submessages_memoized(benchmark):
    """The freshness relation's closure after first touch: O(1)."""
    message = _wide_message()
    submessages(message)  # prime
    benchmark(lambda: submessages(message))


def test_bench_free_parameters_memoized(benchmark):
    """The evaluator's per-call groundness probe: O(1) after first touch."""
    chain = _deep_formula()
    free_parameters(chain)  # prime
    benchmark(lambda: free_parameters(chain))
