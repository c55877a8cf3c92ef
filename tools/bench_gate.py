#!/usr/bin/env python3
"""Bench-regression gate: run the benchmark on every workload, fail on regressions.

Everything the gate runs and checks comes from ``BENCHMARK.json`` at
the repository root: the benchmark ``command``, its ``workloads``, the
``run_seconds`` of one run, and each ``end_to_end`` metric's ``bound``
and ``better`` direction.  For each workload the gate runs the command
once with ``--workload W --seconds <run_seconds>``, echoes its stdout,
and reads the JSON result line it ends with.  Exit status 1 when a run
fails, when a result line is not ``correct: true`` with ``failed: 0``,
or when a metric is worse than its baseline by more than its bound;
0 otherwise.

The baseline of each (workload, metric) pair is the best value, in the
metric's ``better`` direction, over the last :data:`WINDOW` comparable
entries of the history file.  Comparable means the same environment
label, workload and run length, so the history of one kind of machine
never gates another (CI runners pass ``--environment github-actions``;
local runs default to ``local``).  With no comparable history the gate
passes and the new entry becomes the baseline.  A lower-is-better
metric regresses above ``baseline * (1 + bound)``, a higher-is-better
one below ``baseline * (1 - bound)``.

Each correct result appends one history line: git SHA, timestamp,
environment, workload, seconds and the end-to-end metric values.  A
result with wrong answers is never recorded, so it cannot become a
baseline.

Usage::

    python tools/bench_gate.py --history bench-history.jsonl --environment local
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.obs.runmeta import run_metadata  # noqa: E402

#: How many recent comparable entries form a baseline.
WINDOW = 50

#: Fields two history entries must share to be comparable.
COMPARABLE_KEYS = ("environment", "workload", "seconds")


def load_spec() -> dict:
    """The repository's ``BENCHMARK.json``."""
    with (ROOT / "BENCHMARK.json").open(encoding="utf-8") as handle:
        return json.load(handle)


def run_workload(spec: dict, workload: str) -> dict | None:
    """One benchmark run from the repository root; its result line, or
    None when the run failed or printed no result line."""
    command = [*spec["command"], "--workload", workload,
               "--seconds", str(spec["run_seconds"])]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, check=False)
    sys.stdout.write(done.stdout)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def history_entry(spec: dict, workload: str, result: dict,
                  environment: str, meta: dict) -> dict:
    """One compact history line for a workload's result line."""
    return {
        "git_sha": meta.get("git_sha"),
        "timestamp": meta.get("timestamp"),
        "environment": environment,
        "workload": workload,
        "seconds": spec["run_seconds"],
        "metrics": {
            metric["name"]: result["metrics"][metric["name"]]["value"]
            for metric in spec["end_to_end"]
        },
    }


def read_history(path: Path) -> list[dict]:
    if not path.exists():
        return []
    with path.open(encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def append_history(path: Path, entry: dict) -> None:
    with path.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")


def comparable(entry: dict, current: dict) -> bool:
    return all(entry.get(key) == current[key] for key in COMPARABLE_KEYS)


def compare(spec: dict, current: dict,
            history: list[dict]) -> tuple[list[str], list[str]]:
    """(regressions, notes) for one entry against its comparable history."""
    candidates = [e for e in history if comparable(e, current)][-WINDOW:]
    if not candidates:
        return [], ["no comparable history; this entry seeds the baseline"]
    regressions: list[str] = []
    notes = [f"baseline from {len(candidates)} comparable entr"
             f"{'y' if len(candidates) == 1 else 'ies'}"]
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        lower = metric["better"] == "lower"
        prior = [e["metrics"][name] for e in candidates
                 if name in e["metrics"]]
        if not prior:
            notes.append(f"{name}: no prior value")
            continue
        baseline = min(prior) if lower else max(prior)
        value = current["metrics"][name]
        limit = baseline * (1 + bound) if lower else baseline * (1 - bound)
        line = (f"{name}: {value:.6g} vs best {baseline:.6g} {metric['unit']} "
                f"({value / baseline - 1:+.1%}, bound {bound:.0%}, "
                f"{metric['better']} is better)")
        if (value > limit) if lower else (value < limit):
            regressions.append(line)
        else:
            notes.append(line + " ok")
    return regressions, notes


def gate(spec: dict, workload: str, result: dict | None, history_path: Path,
         environment: str, meta: dict) -> bool:
    """Check one workload's result line against the history, print the
    verdict, and record a correct result.  True when it passes."""
    title = (f"bench-gate: {workload} [{environment}, "
             f"{spec['run_seconds']} s]")
    if result is None:
        print(f"{title}: the run failed or printed no result line")
        return False
    if result.get("correct") is not True or result.get("failed") != 0:
        print(f"{title}: wrong answers (correct={result.get('correct')}, "
              f"failed={result.get('failed')} of {result.get('attempted')})")
        return False
    current = history_entry(spec, workload, result, environment, meta)
    regressions, notes = compare(spec, current, read_history(history_path))
    append_history(history_path, current)
    print(f"{title}: {'REGRESSION' if regressions else 'ok'}")
    for line in regressions:
        print(f"  REGRESSION {line}")
    for line in notes:
        print(f"  {line}")
    return not regressions


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--history", default="bench-history.jsonl",
        help="append-only history of past results (default: %(default)s)",
    )
    parser.add_argument(
        "--environment", default="local",
        help="label of the machine type; only entries with the same "
             "label are compared (default: %(default)s)",
    )
    args = parser.parse_args(argv)
    spec = load_spec()
    meta = run_metadata()
    passed = [
        gate(spec, workload["name"], run_workload(spec, workload["name"]),
             Path(args.history), args.environment, meta)
        for workload in spec["workloads"]
    ]
    return 0 if all(passed) else 1


if __name__ == "__main__":
    raise SystemExit(main())
