"""Explanation traces: *why* a formula held or failed at a point.

The truth definition of Section 6 is a deep recursion — belief unfolds
through hidden views and possible-point sets, ``said`` through
per-send submessage closures, jurisdiction through every epoch time.
When the soundness sweep or the fuzzer reports a violation, the verdict
alone is uninformative; this module records the *evaluation tree* the
:class:`~repro.semantics.evaluator.Evaluator` actually walked.

A :class:`Tracer` is passed to the evaluator (``Evaluator(system,
tracer=tracer)``); tracing is **opt-in** and the disabled path costs
one attribute check per ``_eval`` call (guarded by the overhead test).
Each ``evaluate()`` call produces one root :class:`TraceNode`; nodes
record the connective taken, the sub-verdicts (children in evaluation
order — short-circuiting means a false conjunction shows exactly the
branch that killed it), whether the truth memo answered (``cached``),
and semantic annotations such as the possible-point count behind every
belief node.

Two renderings:

* :func:`render_why` — an indented proof-tree (``✓``/``✗`` per node),
  the "why-false" view printed by ``python -m repro trace`` and
  embedded in fuzz counterexample reports;
* :func:`trace_records` — a flat JSONL-ready record stream with
  ``id``/``parent`` links, the machine-readable twin.
"""

from __future__ import annotations

from typing import Any, Iterator, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.model.runs import Run
    from repro.model.system import System
    from repro.semantics.goodvectors import GoodRunVector
    from repro.terms.formulas import Formula


class TraceNode:
    """One evaluator step: a (sub)formula judged at a point."""

    __slots__ = ("formula", "kind", "run_name", "time", "verdict", "cached",
                 "attrs", "children")

    def __init__(self, formula: "Formula", run_name: str, time: int) -> None:
        self.formula = formula
        self.kind = type(formula).__name__
        self.run_name = run_name
        self.time = time
        #: True/False once judged; None if evaluation raised underneath.
        self.verdict: bool | None = None
        #: True when the truth memo answered (children then show the
        #: *first* computation, recorded earlier in the same trace).
        self.cached = False
        self.attrs: dict[str, Any] = {}
        self.children: list["TraceNode"] = []

    def size(self) -> int:
        """Node count of the subtree (iterative; trees can be deep)."""
        count, stack = 0, [self]
        while stack:
            node = stack.pop()
            count += 1
            stack.extend(node.children)
        return count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceNode({self.kind}, {self.formula}, "
            f"({self.run_name!r}, {self.time}), verdict={self.verdict})"
        )


class Tracer:
    """Collects evaluation trees; one root per top-level ``evaluate``.

    ``max_nodes`` bounds memory on pathological workloads: past the
    budget, nodes are still timed and judged but no longer attached to
    the tree, and :attr:`truncated` is set so reports can say so.
    """

    def __init__(self, max_nodes: int = 200_000) -> None:
        self.roots: list[TraceNode] = []
        self.max_nodes = max_nodes
        self.truncated = False
        self._stack: list[TraceNode] = []
        self._nodes = 0

    # -- evaluator-facing hooks ------------------------------------------------

    def enter(self, formula: "Formula", run_name: str, time: int) -> TraceNode:
        node = TraceNode(formula, run_name, time)
        self._nodes += 1
        if self._nodes > self.max_nodes:
            self.truncated = True
        elif self._stack:
            self._stack[-1].children.append(node)
        else:
            self.roots.append(node)
        self._stack.append(node)
        return node

    def exit(self, node: TraceNode, verdict: bool, cached: bool) -> None:
        assert self._stack and self._stack[-1] is node
        node.verdict = verdict
        node.cached = cached
        self._stack.pop()

    def abandon(self, node: TraceNode) -> None:
        """Unwind past ``node`` after an exception (verdict stays None)."""
        while self._stack:
            if self._stack.pop() is node:
                break

    def annotate(self, **attrs: Any) -> None:
        """Attach attributes to the node currently being evaluated."""
        if self._stack:
            self._stack[-1].attrs.update(attrs)

    # -- bookkeeping -----------------------------------------------------------

    @property
    def node_count(self) -> int:
        return self._nodes

    def reset(self) -> None:
        """Drop collected roots (e.g. between traced instances)."""
        self.roots.clear()
        self._stack.clear()
        self._nodes = 0
        self.truncated = False


# ---------------------------------------------------------------------------
# Renderings
# ---------------------------------------------------------------------------


def _format_node(node: TraceNode) -> str:
    mark = {True: "✓", False: "✗", None: "?"}[node.verdict]
    suffix = " [cached]" if node.cached else ""
    if node.attrs:
        suffix += "  " + " ".join(
            f"{key}={value}" for key, value in sorted(node.attrs.items())
        )
    return (
        f"{mark} {node.kind}: {node.formula}  "
        f"@({node.run_name}, {node.time}){suffix}"
    )


def render_why(root: TraceNode) -> str:
    """The indented proof-tree rendering ("why-false" when ✗ on top)."""
    lines: list[str] = []
    stack: list[tuple[TraceNode, int]] = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        lines.append("  " * depth + _format_node(node))
        for child in reversed(node.children):
            stack.append((child, depth + 1))
    return "\n".join(lines)


def trace_records(
    root: TraceNode, **context: Any
) -> Iterator[dict[str, Any]]:
    """Flatten a trace tree into JSONL-ready records.

    Each record carries ``id``/``parent`` (preorder numbering within
    this tree) plus any keyword ``context`` (e.g. the schema name the
    instance came from), so a whole campaign can share one file.
    """
    counter = 0
    stack: list[tuple[TraceNode, int | None]] = [(root, None)]
    while stack:
        node, parent = stack.pop()
        node_id = counter
        counter += 1
        record: dict[str, Any] = {
            "record": "trace",
            "id": node_id,
            "parent": parent,
            "kind": node.kind,
            "formula": str(node.formula),
            "run": node.run_name,
            "time": node.time,
            "verdict": node.verdict,
            "cached": node.cached,
        }
        if node.attrs:
            record["attrs"] = dict(node.attrs)
        record.update(context)
        yield record
        for child in reversed(node.children):
            stack.append((child, node_id))


# ---------------------------------------------------------------------------
# Convenience driver
# ---------------------------------------------------------------------------


def trace_evaluation(
    system: "System",
    formula: "Formula",
    run: "Run",
    k: int,
    goodruns: "GoodRunVector | None" = None,
    pattern_hide: bool = False,
    backend: str | None = None,
) -> tuple[bool, TraceNode]:
    """Evaluate once under a fresh tracer; returns (verdict, root).

    A fresh evaluator is used so the tree is complete — nothing is
    flattened into ``[cached]`` stubs by an earlier, untraced
    evaluation.  ``backend`` names a semantics backend (``None`` means
    the default, the paper's belief interpreter).
    """
    from repro.semantics.backend import DEFAULT_BACKEND, get_backend

    tracer = Tracer()
    evaluator = get_backend(backend or DEFAULT_BACKEND).interpreter(
        system, goodruns, pattern_hide=pattern_hide, tracer=tracer
    )
    verdict = evaluator.evaluate(formula, run, k)
    assert tracer.roots, "traced evaluation produced no root"
    return verdict, tracer.roots[-1]
