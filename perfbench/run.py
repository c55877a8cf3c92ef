#!/usr/bin/env python3
"""Benchmark entry point: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 10 --trace 0

Run from the root of a checkout.  The three workloads are ``sweep``
(the Theorem-1 sweep of one E3 system per op), ``goodruns`` (the §7
construction per op) and ``serve`` (``repro serve`` in its own process,
driven closed-loop over two keep-alive connections).  See README.md.

With ``--trace 0`` the run prints every end-to-end metric: the timed
window runs in a child process, after five set-up-only child processes
whose set-up times join the median ``setup_s``.  Times are scaled to a
reference host speed by calibration passes taken in the same process
(``common.HostSpeed``); the unscaled figures are printed beside them.
With ``--trace 1`` it prints the per-layer metrics of a traced run
instead.  Every op is checked against the answers pinned in ``pins/``;
the last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import signal
import subprocess
import sys
import time

import common
import report

WORKLOADS = ("sweep", "goodruns", "serve")
#: Set-up-only processes per ``--trace 0`` run (the measured process's
#: own set-up is one more sample of ``setup_s``).
SETUP_REPEATS = 5
#: Seconds within which every child of one run must have ended, so that
#: a hung child fails the run inside the 180 s a run may take.
RUN_DEADLINE_S = 170


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "measure", "trace"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not common.sources_present():
        print(f"perfbench: no program sources at {common.SRC}; run from the "
              "root of a full checkout", file=sys.stderr)
        return 2
    if args.role is not None:
        return _child(args)
    args.deadline = time.monotonic() + RUN_DEADLINE_S
    if args.trace:
        result = _spawn(args, "trace")
        if result is None:
            return 1
        metrics = result["metrics"]
        units = report.PER_LAYER
    else:
        setups = []
        for _ in range(SETUP_REPEATS):
            setup = _spawn(args, "setup")
            if setup is None:
                return 1
            setups.append(setup["setup_s"])
        result = _spawn(args, "measure")
        if result is None:
            return 1
        metrics = result["metrics"]
        setups.append(metrics["setup_s"])
        metrics["setup_s"] = common.median(setups)
        common.emit("setup_s samples: " + ", ".join(f"{s:.4f}" for s in setups))
        units = report.END_TO_END
    for name, unit in units.items():
        common.emit(f"{args.workload}/{name} = {metrics[name]:.6g} {unit}")
    correct = result["failed"] == 0
    print(json.dumps(report.result_line(
        correct, result["attempted"], result["failed"], metrics, units)))
    return 0


def _spawn(args: argparse.Namespace, role: str) -> dict | None:
    """Run one child process; returns its JSON result, or None."""
    command = [
        sys.executable, str(common.BENCH / "run.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--role", role,
    ]
    command += ["--spawned-at", repr(time.monotonic())]
    # Its own process group, so a timeout also ends the daemon it started.
    child = subprocess.Popen(command, cwd=common.ROOT, stdout=subprocess.PIPE,
                             text=True, start_new_session=True)
    try:
        stdout, _ = child.communicate(
            timeout=max(1.0, args.deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        print(f"perfbench: {role} process timed out", file=sys.stderr)
        return None
    lines = stdout.splitlines()
    for line in lines[:-1]:
        common.emit(line)
    if child.returncode != 0 or not lines:
        print(f"perfbench: {role} process exited {child.returncode}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def _child(args: argparse.Namespace) -> int:
    # Set-up and measured processes scale set-up time to the reference
    # host speed; these are the calibration passes just before set-up.
    setup_speed = common.HostSpeed()
    if args.role != "trace":
        setup_speed.burst(common.SETUP_PASSES)
    if args.workload == "serve":
        import serve_load

        result = serve_load.run(args.role, args.seed, args.seconds,
                                args.spawned_at, setup_speed)
    else:
        result = _in_process(args.workload, args.role, args.seed,
                             args.seconds, args.spawned_at, setup_speed)
    print(json.dumps(result))
    return 0


def _in_process(name: str, role: str, seed: int, seconds: float,
                spawned_at: float, setup_speed: common.HostSpeed) -> dict:
    """One set-up, measured or traced process of ``sweep`` or ``goodruns``.

    Each op's time is scaled by the calibration passes just before and
    just after it (see common.HostSpeed).
    """
    import workloads

    workload = workloads.WORKLOADS[name](seed)
    if role != "trace":
        setup_s = common.scaled_setup(name, spawned_at, setup_speed)
        if role == "setup":
            return {"setup_s": setup_s}
    # The inputs live for the whole run; freezing them keeps every
    # collection from re-scanning the op list (a user's process holds
    # one system, not a hundred), so GC pauses reflect each op's own
    # garbage.
    gc.collect()
    gc.freeze()
    if role == "trace":
        return _traced(workload, seconds)
    speed = common.HostSpeed()
    window = workloads.run_window(workload, seconds, speed=speed)
    _report_errors(window)
    metrics, note = common.latency_metrics(
        window.latencies, speed.op_factors(window.marks), window.correct,
        window.seconds)
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = common.self_peak_rss_mb()
    common.emit(f"{name}: {window.attempted} ops in {window.seconds:.3f}s, "
                f"{speed.note()}; {note}")
    return {"attempted": window.attempted, "failed": window.failed,
            "metrics": metrics}


def _traced(workload, seconds: float) -> dict:
    """Untraced half-window, then a traced half-window: per-layer metrics."""
    import tracer as tracer_mod
    import workloads

    plain = workloads.run_window(workload, seconds / 2)
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        with common.GcClock() as gc_clock:
            traced = workloads.run_window(workload, seconds / 2, tracer)
    finally:
        tracer.uninstall()
    for window in (plain, traced):
        _report_errors(window)
    totals = report.TraceTotals(n=len(traced.latencies),
                                counters=traced.counters)
    for op, rows in tracer.per_op.items():
        root = rows.get("op")
        if op is None or root is None:
            continue
        totals.add_op({k: v for k, v in rows.items() if k != "op"},
                      tracer.busy[op], tracer.extra.get(op, {}))
        totals.wall_s += root[2]
        totals.unattributed_s += root[1]
    plain_rate = plain.correct / plain.seconds
    traced_rate = traced.correct / traced.seconds
    overhead = 1.0 - traced_rate / plain_rate if plain_rate else 0.0
    path = common.OUT / f"trace-{workload.name}.jsonl"
    tracer.dump(path)
    common.emit(f"{workload.name}: traced {traced.attempted} ops "
                f"({traced_rate:.2f}/s) vs untraced {plain.attempted} ops "
                f"({plain_rate:.2f}/s); spans in {path.relative_to(common.ROOT)}"
                f" ({tracer.recorded} kept, {tracer.dropped} aggregated only)")
    for line in report.layer_table(totals):
        common.emit(line)
    metrics = report.layer_metrics(totals, gc_clock.collections,
                                   gc_clock.seconds, overhead)
    return {"attempted": plain.attempted + traced.attempted,
            "failed": plain.failed + traced.failed, "metrics": metrics}


def _report_errors(window) -> None:
    for error in window.errors:
        print(f"perfbench: failed {error}", file=sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())
