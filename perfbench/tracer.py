"""Spans around calls into the program's layers (traced runs only).

:func:`install` wraps the public functions listed in :data:`TARGETS`
in place.  A wrapped call pushes a frame on its thread's stack; when it
returns, the frame's duration, its *self* time (duration minus the time
its child frames cover) and the layer's *busy* time (counted once per
outermost frame of that layer) are added to the aggregates of the op
that was current on the thread.  Each frame also becomes a span record
``(id, parent, name, start, end, op)`` kept in memory, up to
:data:`RECORD_CAP` records, and written out by :meth:`Tracer.dump`.

Nothing under ``src/`` knows about this module: the wrappers replace
module attributes (in every module that imported the function by name)
and class attributes, so untraced runs execute the program unchanged.
"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
import threading
import time
from pathlib import Path
from typing import Any, Callable

#: ``(module, attribute, span name, layer)``.  ``Schema.instances``
#: returns a lazy iterator, so its span covers each ``next()`` call;
#: ``CompiledSystem._belief_groups_for`` is the one private hook: the
#: compiled ``Believes`` nodes call it directly, bypassing the public
#: ``belief_groups``.
TARGETS = (
    ("repro.terms.ops", "is_ground", "terms.is_ground", "terms"),
    ("repro.terms.parser", "parse_formula", "terms.parse", "terms"),
    ("repro.logic.axioms", "Schema.instances", "axioms.enumerate", "axioms"),
    ("repro.soundness.sweep", "sweep_system", "sweep.sweep_system", "sweep"),
    ("repro.soundness.sweep", "pool_from_system", "sweep.pool", "sweep"),
    ("repro.semantics.backend", "BeliefBackend.compile",
     "compiler.compile", "compiler"),
    ("repro.semantics.epistemic", "EpistemicBackend.compile",
     "compiler.compile", "compiler"),
    ("repro.semantics.compiler", "CompiledSystem.truth_bits",
     "compiler.truth_bits", "compiler"),
    ("repro.semantics.compiler", "CompiledSystem._belief_groups_for",
     "compiler.belief_groups", "compiler"),
    ("repro.semantics.hide", "hidden_local_view", "hide.view", "hide"),
    ("repro.goodruns.construction", "construct_good_runs",
     "goodruns.construct", "goodruns"),
    ("repro.semantics.vector_eval", "VectorTruth.truth_bits",
     "vector_eval.truth_bits", "goodruns"),
    ("repro.semantics.evaluator", "Evaluator.evaluate",
     "evaluator.evaluate", "evaluator"),
    ("repro.obs.trace", "trace_evaluation", "evaluator.trace", "evaluator"),
    ("repro.logic.certify", "certify", "certify.certify", "certify"),
    ("repro.logic.proof", "Proof.check", "certify.check", "certify"),
    ("repro.analysis.annotate", "analyze", "analysis.analyze", "certify"),
    ("repro.serve.requests", "execute", "serve.execute", "serve"),
)

#: The full collection that ends each in-process op (the harness makes
#: that call, so it is not in :data:`TARGETS`).
COLLECT = ("runtime.collect", "runtime")

#: Span name -> layer.
SPAN_LAYERS = {name: layer for _m, _a, name, layer in TARGETS}
SPAN_LAYERS[COLLECT[0]] = COLLECT[1]

#: Layers in report order (``op`` is the harness's own root frame).
LAYERS = ("terms", "axioms", "sweep", "compiler", "hide", "goodruns",
          "evaluator", "certify", "serve", "runtime")

#: Span records kept in memory; later frames are aggregated only.
RECORD_CAP = 250_000


class _Frame:
    __slots__ = ("name", "layer", "start", "child", "span_id", "parent",
                 "outermost")

    def __init__(self, name, layer, start, span_id, parent, outermost):
        self.name = name
        self.layer = layer
        self.start = start
        self.child = 0.0
        self.span_id = span_id
        self.parent = parent
        self.outermost = outermost


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: list[_Frame] = []
        self.layer_depth: dict[str, int] = {}
        self.op: Any = None


class Tracer:
    """Per-op span aggregates plus a capped list of span records."""

    def __init__(self) -> None:
        self._state = _ThreadState()
        self._ids = iter(range(1, 1 << 62))
        # Span records live in arrays, which the garbage collector never
        # scans, so tracing does not make collections slower.
        self._names: dict[str, int] = {}
        self._ops: dict[Any, int] = {}
        self._ints = array("q")     # id, parent, name index, op index
        self._times = array("d")    # start, end
        self.dropped = 0
        #: op -> span name -> [calls, self seconds, duration seconds]
        self.per_op: dict[Any, dict[str, list]] = {}
        #: op -> layer -> busy seconds
        self.busy: dict[Any, dict[str, float]] = {}
        #: op -> counts added by :data:`RESULT_COUNTS` hooks
        self.extra: dict[Any, dict[str, float]] = {}
        self._patches: list[tuple[Any, str, Any]] = []

    # -- frames ----------------------------------------------------------------

    def set_op(self, op: Any) -> Any:
        """Make ``op`` current on this thread; returns the previous op."""
        state = self._state
        previous, state.op = state.op, op
        return previous

    def enter(self, name: str, layer: str) -> _Frame:
        state = self._state
        stack = state.stack
        depth = state.layer_depth.get(layer, 0)
        state.layer_depth[layer] = depth + 1
        frame = _Frame(name, layer, 0.0, next(self._ids),
                       stack[-1].span_id if stack else 0, depth == 0)
        stack.append(frame)
        frame.start = time.perf_counter()
        return frame

    def exit(self, frame: _Frame) -> None:
        end = time.perf_counter()
        state = self._state
        state.stack.pop()
        state.layer_depth[frame.layer] -= 1
        duration = end - frame.start
        if state.stack:
            state.stack[-1].child += duration
        op = state.op
        names = self.per_op.get(op)
        if names is None:
            names = self.per_op[op] = {}
            self.busy[op] = {}
        row = names.get(frame.name)
        if row is None:
            row = names[frame.name] = [0, 0.0, 0.0]
        row[0] += 1
        row[1] += duration - frame.child
        row[2] += duration
        if frame.outermost:
            busy = self.busy[op]
            busy[frame.layer] = busy.get(frame.layer, 0.0) + duration
        if len(self._times) < 2 * RECORD_CAP:
            name_index = self._names.setdefault(frame.name, len(self._names))
            op_index = self._ops.setdefault(op, len(self._ops))
            self._ints.extend((frame.span_id, frame.parent, name_index,
                               op_index))
            self._times.extend((frame.start, end))
        else:
            self.dropped += 1

    def note(self, key: str, amount: float) -> None:
        """Add to a per-op count reported by a result hook."""
        extra = self.extra.setdefault(self._state.op, {})
        extra[key] = extra.get(key, 0.0) + amount

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, original: Callable, name: str, layer: str,
              on_result: Callable | None = None,
              op_from: Callable | None = None) -> Callable:
        enter, exit_ = self.enter, self.exit

        def wrapper(*args, **kwargs):
            previous = None
            if op_from is not None:
                previous = self.set_op(op_from())
            frame = enter(name, layer)
            try:
                result = original(*args, **kwargs)
            finally:
                exit_(frame)
                if op_from is not None:
                    self.set_op(previous)
            if on_result is not None:
                on_result(self, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _wrap_iterator(self, original: Callable, name: str,
                       layer: str) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            return _TimedIterator(tracer, original(*args, **kwargs),
                                  name, layer)

        wrapper.__wrapped__ = original
        return wrapper

    def install(self) -> None:
        """Wrap every target; :meth:`uninstall` restores the originals."""
        for module_name, attribute, name, layer in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, member = attribute.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                self._patch(owner, member,
                            self._wrapper(owner.__dict__[member], name, layer))
                continue
            original = getattr(module, member)
            wrapper = self._wrapper(original, name, layer)
            # Every module that imported the function by name holds its
            # own reference to it.
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._patch(loaded, key, wrapper)

    def _wrapper(self, original: Callable, name: str, layer: str) -> Callable:
        if name == "axioms.enumerate":
            return self._wrap_iterator(original, name, layer)
        return self._wrap(
            original, name, layer, on_result=RESULT_COUNTS.get(name),
            op_from=_correlation_id if name == "serve.execute" else None,
        )

    def _patch(self, owner: Any, key: str, value: Any) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    # -- output ----------------------------------------------------------------

    @property
    def recorded(self) -> int:
        """Span records kept (the rest were aggregated only)."""
        return len(self._times) // 2

    def dump(self, path: Path, extra: dict | None = None) -> None:
        """Write the span records (JSON lines) and the per-op aggregates."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = list(self._names)
        ops = list(self._ops)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({
                "aggregates": {str(op): rows for op, rows in self.per_op.items()},
                "busy": {str(op): rows for op, rows in self.busy.items()},
                "extra": {str(op): rows for op, rows in self.extra.items()},
                "records": self.recorded,
                "dropped": self.dropped,
                **(extra or {}),
            }) + "\n")
            ints, times = self._ints, self._times
            for record in range(self.recorded):
                span_id, parent, name, op = ints[4 * record:4 * record + 4]
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "name": names[name],
                    "start": times[2 * record], "end": times[2 * record + 1],
                    "op": ops[op],
                }) + "\n")


class _TimedIterator:
    """Times each ``next()`` of a lazy enumerator as one frame."""

    __slots__ = ("tracer", "inner", "name", "layer")

    def __init__(self, tracer: Tracer, inner, name: str, layer: str) -> None:
        self.tracer = tracer
        self.inner = iter(inner)
        self.name = name
        self.layer = layer

    def __iter__(self) -> "_TimedIterator":
        return self

    def __next__(self):
        frame = self.tracer.enter(self.name, self.layer)
        try:
            return next(self.inner)
        finally:
            self.tracer.exit(frame)


def _count_stages(tracer: Tracer, result) -> None:
    tracer.note("goodruns.stages", result.depth)


def _count_sweep(tracer: Tracer, report) -> None:
    tracer.note("axioms.instances", report.total_instances)
    tracer.note("sweep.points_checked",
                sum(r.points_checked for r in report.per_schema.values()))


#: Span name -> hook that adds the call result's counts to the op.
RESULT_COUNTS = {
    "goodruns.construct": _count_stages,
    "sweep.sweep_system": _count_sweep,
}


def _correlation_id():
    from repro.obs.journal import correlation_id

    return correlation_id()


def load_dump(path: Path) -> dict:
    """The aggregates header of a :meth:`Tracer.dump` file."""
    with open(path, encoding="utf-8") as handle:
        return json.loads(handle.readline())
