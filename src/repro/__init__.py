"""repro — a reproduction of Abadi & Tuttle, *A Semantics for a Logic of
Authentication* (PODC 1991).

The library contains, built from scratch:

* :mod:`repro.terms` — the two-sorted language of messages and formulas
  (Section 4.1), with parser and printer;
* :mod:`repro.banlogic` — the original BAN logic's inference rules
  (Section 2);
* :mod:`repro.logic` — the reformulated axiomatization A1-A21 with
  checked Hilbert proofs and a forward-chaining engine (Section 4);
* :mod:`repro.model` — the model of computation: principals, actions,
  runs, key sets, buffers, well-formedness WF0-WF5 (Section 5);
* :mod:`repro.semantics` — the possible-worlds semantics with ``hide``
  and good-run-relative belief (Section 6);
* :mod:`repro.goodruns` — the iterative good-run construction, support
  and optimality, the coin-toss counterexample (Section 7);
* :mod:`repro.protocols` — Kerberos (Figure 1), Needham-Schroeder,
  Otway-Rees, Yahalom, Wide-Mouthed Frog, Andrew RPC, CCITT X.509 and a
  courier protocol, each a spec file idealized for both logics, with
  concrete runs;
* :mod:`repro.analysis` — the annotation procedure and BAN-vs-AT
  comparison;
* :mod:`repro.soundness` — the empirical Theorem 1 sweep, the
  incompleteness exhibit, and the engine-vs-semantics audit.

Quickstart::

    >>> from repro.protocols import kerberos
    >>> from repro.analysis import analyze
    >>> report = analyze(kerberos.at_protocol())
    >>> [str(r) for r in report.goal_results][:1]
    ['A-key: derived (as expected)']
"""

from repro import (
    analysis,
    banlogic,
    goodruns,
    logic,
    model,
    protocols,
    semantics,
    soundness,
    terms,
)
from repro.analysis import analyze, compare_corpus
from repro.errors import ReproError

__version__ = "1.0.0"

__all__ = [
    "analysis",
    "analyze",
    "banlogic",
    "compare_corpus",
    "goodruns",
    "logic",
    "model",
    "protocols",
    "semantics",
    "soundness",
    "terms",
    "ReproError",
    "__version__",
]
