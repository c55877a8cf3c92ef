"""The in-process workloads: ``sweep`` and ``goodruns``.

One op is one call into the program, made inside a fresh
``EngineContext`` so that its cost never depends on which ops ran
before it.  Inputs are built during set-up (in the process-default
context), and every op's output is checked against its pinned answer.
"""

from __future__ import annotations

import gc
import time

import common
import inputs


class SweepWorkload:
    """Theorem-1 sweep of one system (compiled engine, belief): a seeded
    E3 system, or for a fixed share of ops a nesting system whose pinned
    answer holds A11 violations."""

    name = "sweep"

    def __init__(self, seed: int) -> None:
        pins = common.load_pins("sweep")
        self.schemas = pins["schemas"]
        self.ops = []
        for index in inputs.sweep_list(seed):
            pin = pins["ops"][index]
            system = inputs.system_for_sweep(pin["family"], pin["seed"])
            self.ops.append((system, pin))

    def execute(self, op):
        from repro.soundness.sweep import sweep_system

        system, _pin = op
        return sweep_system(
            system, max_instances_per_schema=inputs.SWEEP_INSTANCES,
            engine="compiled", backend="belief",
        )

    def check(self, op, report) -> str | None:
        """None when the report matches the pin, else what differs."""
        _system, pin = op
        points = pin["points"]
        for name, instances in zip(self.schemas, pin["instances"]):
            got = report.per_schema.get(name)
            if got is None:
                return f"schema {name} missing"
            if got.instances != instances:
                return f"{name}: {got.instances} instances, pinned {instances}"
            if got.points_checked != instances * points:
                return f"{name}: {got.points_checked} points checked"
            want = pin["violations"].get(name, [])
            if inputs.violation_points(got) != want:
                return (f"{name}: violations at {inputs.violation_points(got)}"
                        f", pinned {want}")
        if len(report.essential_violations) != pin["essential"]:
            return f"{len(report.essential_violations)} essential violations"
        return None


class GoodrunsWorkload:
    """The §7 construction (shipped default engine) on a 6x30 system."""

    name = "goodruns"

    def __init__(self, seed: int) -> None:
        from repro.soundness.generators import GeneratorConfig, generate_system
        from repro.terms.parser import parse_formula

        pins = common.load_pins("goodruns")
        self.ops = []
        for index in inputs.goodruns_list(seed):
            pin = pins["ops"][index]
            system = generate_system(GeneratorConfig(
                seed=pin["seed"], runs=pins["runs"],
                steps_per_run=pins["steps"],
            ))
            assumptions = inputs.close_chains([
                parse_formula(text, system.vocabulary)
                for text in pin["chains"]
            ])
            self.ops.append((system, assumptions, pin))

    def execute(self, op):
        from repro.goodruns import construct_good_runs

        system, assumptions, _pin = op
        return construct_good_runs(system, assumptions)

    def check(self, op, result) -> str | None:
        _system, _assumptions, pin = op
        got = {principal.name: sorted(names)
               for principal, names in result.vector.entries}
        if got != pin["vector"]:
            return f"vector {got}, pinned {pin['vector']}"
        return None


WORKLOADS = {"sweep": SweepWorkload, "goodruns": GoodrunsWorkload}


class Window:
    """Outcome of one timed window over a workload's op list."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        #: Per latency, the index of the last calibration pass before it.
        self.marks: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.correct = 0
        #: Seconds of window, calibration passes left out.
        self.seconds = 0.0
        self.counters: dict[str, int] = {}
        self.errors: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


def run_window(workload, seconds: float, tracer=None,
               speed: common.HostSpeed | None = None) -> Window:
    """Replay the op list from its start until ``seconds`` have passed.

    An op is one call into the program in a fresh context, followed by
    a full collection once that context is dropped, timed together: the
    op pays for collecting exactly its own garbage (the compiled
    closures are cyclic), and the next op starts with none left over.
    Without it, collections triggered by earlier ops' garbage land on
    later ops in bursts and make the latency distribution bimodal.

    With ``speed``, a calibration pass runs between two ops every
    :data:`common.CALIBRATION_EVERY_S` and once after the last op; pass
    time is left out of ``Window.seconds``.
    """
    from repro import context

    window = Window()
    ops = workload.ops
    calibrated = speed.seconds if speed is not None else 0.0
    started = time.perf_counter()
    deadline = started + seconds
    next_pass = started
    index = 0
    while time.perf_counter() < deadline:
        if speed is not None and time.perf_counter() >= next_pass:
            speed.run_pass()
            next_pass = time.perf_counter() + common.CALIBRATION_EVERY_S
        op = ops[index % len(ops)]
        index += 1
        window.attempted += 1
        ctx = context.fresh(f"bench-{workload.name}-{index}")
        frame = None
        if tracer is not None:
            tracer.set_op(index)
            frame = tracer.enter("op", "op")
        try:
            op_started = time.perf_counter()
            with context.use(ctx):
                result = workload.execute(op)
            counters = ctx.counters
            del ctx
            _collect(tracer)
            elapsed = time.perf_counter() - op_started
        except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
            window.fail(f"op {index}: {type(exc).__name__}: {exc}")
            continue
        finally:
            if frame is not None:
                tracer.exit(frame)
        window.latencies.append(elapsed)
        if speed is not None:
            window.marks.append(len(speed.passes) - 1)
        problem = workload.check(op, result)
        if problem is None:
            window.correct += 1
        else:
            window.fail(f"op {index}: {problem}")
        for event, count in counters.items():
            window.counters[event] = window.counters.get(event, 0) + count
    if speed is not None:
        speed.run_pass()
    window.seconds = time.perf_counter() - started
    if speed is not None:
        window.seconds -= speed.seconds - calibrated
    return window


def _collect(tracer) -> None:
    if tracer is None:
        gc.collect()
        return
    import tracer as tracer_mod

    frame = tracer.enter(*tracer_mod.COLLECT)
    try:
        gc.collect()
    finally:
        tracer.exit(frame)
