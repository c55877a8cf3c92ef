"""The possible-worlds semantics of the logic (Section 6).

``(r, k) |= φ`` is computed by :class:`Evaluator`; belief is evaluated
relative to a :class:`GoodRunVector` after blinding unreadable
ciphertexts with :func:`hide_message`.
"""

from repro.semantics.backend import (
    DEFAULT_BACKEND,
    BeliefBackend,
    SemanticsBackend,
    backend_names,
    get_backend,
)
from repro.semantics.epistemic import (
    CompiledEpistemicSystem,
    EpistemicBackend,
    EpistemicEvaluator,
)
from repro.semantics.evaluator import Evaluator
from repro.semantics.goodvectors import GoodRunVector
from repro.semantics.hide import (
    OPAQUE,
    HiddenView,
    hidden_local_view,
    hide_message,
    hide_message_pattern,
)
from repro.semantics.properties import (
    Counterexample,
    all_stable,
    find_stability_counterexample,
    find_validity_counterexample,
    holds_initially,
    is_stable,
    is_valid,
    is_valid_in_epoch,
    satisfying_points,
)

__all__ = [
    "DEFAULT_BACKEND",
    "BeliefBackend",
    "SemanticsBackend",
    "backend_names",
    "get_backend",
    "CompiledEpistemicSystem",
    "EpistemicBackend",
    "EpistemicEvaluator",
    "Evaluator",
    "GoodRunVector",
    "OPAQUE",
    "HiddenView",
    "hidden_local_view",
    "hide_message",
    "hide_message_pattern",
    "Counterexample",
    "all_stable",
    "find_stability_counterexample",
    "find_validity_counterexample",
    "holds_initially",
    "is_stable",
    "is_valid",
    "is_valid_in_epoch",
    "satisfying_points",
]
