#!/usr/bin/env python3
"""Bench-regression gate: append a perf record to history, fail on slowdowns.

Reads the ``BENCH_sweep.json`` written by ``python -m repro perf``,
appends one compact entry to ``BENCH_history.jsonl`` (keyed by git SHA
and timestamp), then compares the current record's headline timings
against the best *comparable* prior entry.  Exit status 1 on any
regression beyond the noise threshold; 0 otherwise.

Comparability is strict on purpose: an entry is a baseline candidate
only if its sweep *parameters* (systems/instances/seed/workers/engine/
backend) and its *environment* label match the current record's.  CI
runners set ``--environment github-actions``; local runs default to
``local``.  Without this split the committed history of a fast dev
machine would permanently fail the gate on slower shared runners (and
vice versa).

The baseline is the **minimum** over comparable prior entries within
``--window`` (best-known performance, so slow-then-slow does not ratchet
the bar downward), and the gate passes vacuously when no comparable
history exists — a fresh runner's first record seeds its own baseline.

Usage::

    python tools/bench_gate.py                       # gate BENCH_sweep.json
    python tools/bench_gate.py --threshold 0.30      # looser noise bound
    python tools/bench_gate.py --no-append --bench X # dry-run a record
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Headline measurements gated by default: the adopted-engine cold E3
#: sweep.
DEFAULT_KEYS = ("sweep_cold_compiled_s",)

#: Parameters that must match for two entries to be comparable.
PARAMETER_KEYS = ("systems", "instances", "seed", "workers", "engine",
                  "backend")


def load_bench(path: Path) -> dict:
    with path.open(encoding="utf-8") as handle:
        return json.load(handle)


def history_entry(bench: dict, environment: str) -> dict:
    """One compact history line from a full BENCH record."""
    meta = bench.get("meta", {})
    parameters = bench.get("parameters", {})
    measurements = bench.get("measurements", {})
    return {
        "git_sha": meta.get("git_sha"),
        "timestamp": meta.get("timestamp"),
        "environment": environment,
        "parameters": {
            key: parameters.get(key) for key in PARAMETER_KEYS
        },
        "measurements": {
            key: value
            for key, value in sorted(measurements.items())
            if isinstance(value, (int, float))
        },
    }


def read_history(path: Path) -> list[dict]:
    if not path.exists():
        return []
    entries = []
    with path.open(encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                entry = json.loads(line)
                # Entries from before the backend knob are belief runs.
                entry["parameters"].setdefault("backend", "belief")
                entries.append(entry)
    return entries


def append_history(path: Path, entry: dict) -> None:
    with path.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")


def comparable(entry: dict, current: dict) -> bool:
    """Same parameters, same environment — a legitimate baseline."""
    return (
        entry.get("environment") == current.get("environment")
        and entry.get("parameters") == current.get("parameters")
    )


def check_regressions(
    current: dict,
    history: list[dict],
    keys: tuple[str, ...],
    threshold: float,
    window: int,
) -> tuple[list[str], list[str]]:
    """(regressions, notes) for the current entry against history.

    The baseline per key is the minimum over the last ``window``
    comparable entries; a key regresses when the current value exceeds
    ``baseline * (1 + threshold)``.
    """
    candidates = [e for e in history if comparable(e, current)]
    if window > 0:
        candidates = candidates[-window:]
    regressions: list[str] = []
    notes: list[str] = []
    if not candidates:
        notes.append(
            "no comparable history (environment/parameters unseen); "
            "current record seeds the baseline"
        )
        return regressions, notes
    notes.append(f"baseline from {len(candidates)} comparable entr"
                 f"{'y' if len(candidates) == 1 else 'ies'}")
    for key in keys:
        value = current["measurements"].get(key)
        if value is None:
            notes.append(f"{key}: absent from current record, skipped")
            continue
        prior = [
            e["measurements"][key]
            for e in candidates
            if key in e.get("measurements", {})
        ]
        if not prior:
            notes.append(f"{key}: no prior samples, skipped")
            continue
        baseline = min(prior)
        limit = baseline * (1.0 + threshold)
        ratio = value / baseline if baseline > 0 else float("inf")
        line = (f"{key}: {value:.6f}s vs baseline {baseline:.6f}s "
                f"({ratio:.2f}x, limit {limit:.6f}s)")
        if value > limit:
            regressions.append(line)
        else:
            notes.append(line + " — ok")
    return regressions, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--bench", default="BENCH_sweep.json",
        help="benchmark record to gate (from `python -m repro perf`)",
    )
    parser.add_argument(
        "--history", default="BENCH_history.jsonl",
        help="append-only history file keyed by git SHA",
    )
    parser.add_argument(
        "--threshold", type=float, default=0.20,
        help="fractional slowdown tolerated over the baseline "
             "(default 0.20 = 20%%)",
    )
    parser.add_argument(
        "--window", type=int, default=50,
        help="how many recent comparable entries form the baseline "
             "(0 = all)",
    )
    parser.add_argument(
        "--keys", default=",".join(DEFAULT_KEYS),
        help="comma-separated measurement keys to gate",
    )
    parser.add_argument(
        "--environment", default="local",
        help="environment label for comparability (CI sets its own)",
    )
    parser.add_argument(
        "--no-append", action="store_true",
        help="gate without recording the current entry in history",
    )
    args = parser.parse_args(argv)

    bench_path = Path(args.bench)
    if not bench_path.exists():
        print(f"bench-gate: no benchmark record at {bench_path}",
              file=sys.stderr)
        return 2
    keys = tuple(k.strip() for k in args.keys.split(",") if k.strip())
    current = history_entry(load_bench(bench_path), args.environment)
    history = read_history(Path(args.history))
    regressions, notes = check_regressions(
        current, history, keys, args.threshold, args.window
    )
    if not args.no_append:
        append_history(Path(args.history), current)

    sha = (current.get("git_sha") or "unknown")[:12]
    print(f"bench-gate: {sha} [{args.environment}] "
          f"threshold {args.threshold:.0%}")
    for note in notes:
        print(f"  {note}")
    if regressions:
        print("bench-gate: REGRESSION", file=sys.stderr)
        for line in regressions:
            print(f"  {line}", file=sys.stderr)
        return 1
    print("bench-gate: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
