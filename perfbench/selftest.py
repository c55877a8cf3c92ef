#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/selftest.py

1. Re-derives a sample of the pinned answers from their references
   (interpreted sweep, naive construction, in-process ``execute``) and
   requires them to equal the stored pins.
2. Corrupts one pin per workload and requires the op to be counted as
   failed.
3. Runs a short window of every workload on the default seed and on the
   held-out seed and requires zero failed ops.

Exits 0 when every check holds.
"""

from __future__ import annotations

import gc
import random
import sys

import common
import pin
import serve_load
import workloads

DEFAULT_SEED = 0
#: Never used while the benchmark was tuned.
HELD_OUT_SEED = 2027
#: Pins re-derived per workload (for sweep: per system family; for
#: serve: per request category).
SAMPLE = {"sweep": 3, "goodruns": 8, "serve": 4}


def check(condition: bool, message: str, failures: list[str]) -> None:
    print(("ok    " if condition else "FAIL  ") + message, flush=True)
    if not condition:
        failures.append(message)


def rederive(failures: list[str]) -> None:
    rng = random.Random("selftest")
    stored = common.load_pins("sweep")["ops"]
    families: dict[str, list[int]] = {}
    for index, op in enumerate(stored):
        families.setdefault(op["family"], []).append(index)
    for family in sorted(families):
        for index in rng.sample(families[family], SAMPLE["sweep"]):
            op = stored[index]
            check(pin.sweep_answer(op["family"], op["seed"]) == op,
                  f"sweep pin {index} ({family}) re-derived from the "
                  "interpreted engine", failures)
    stored = common.load_pins("goodruns")["ops"]
    for index in rng.sample(range(len(stored)), SAMPLE["goodruns"]):
        check(pin.goodruns_answer(index) == stored[index],
              f"goodruns pin {index} re-derived from the naive engine",
              failures)
    stored = common.load_pins("serve")["ops"]
    models = pin.ReferenceModels()
    categories: dict[str, list[int]] = {}
    for index, op in enumerate(stored):
        categories.setdefault(op["category"], []).append(index)
    for category in sorted(categories):
        for index in rng.sample(categories[category], SAMPLE["serve"]):
            op = stored[index]
            document = pin.serve_reference(op["payload"], models)
            check(common.expected_fields(document) == op["expect"],
                  f"serve pin {index} ({category}) re-derived in process",
                  failures)


def corrupted(failures: list[str]) -> None:
    sweep = workloads.SweepWorkload(DEFAULT_SEED)
    system, answer = next(op for op in sweep.ops if op[1]["violations"])
    violations = {name: points[:-1]
                  for name, points in answer["violations"].items()}
    sweep.ops = [(system, dict(answer, violations=violations))]
    window = workloads.run_window(sweep, 0.01)
    check(window.failed == window.attempted >= 1,
          "a sweep pin missing one violation counts the op as failed",
          failures)

    goodruns = workloads.GoodrunsWorkload(DEFAULT_SEED)
    system, assumptions, answer = goodruns.ops[0]
    vector = dict(answer["vector"])
    first = sorted(vector)[0]
    vector[first] = vector[first][1:]
    goodruns.ops = [(system, assumptions, dict(answer, vector=vector))]
    window = workloads.run_window(goodruns, 0.01)
    check(window.failed == window.attempted >= 1,
          "a corrupted goodruns pin counts the op as failed", failures)

    load = serve_load.Load(DEFAULT_SEED)
    index = load.lists[0][0]
    op = load.ops[index]
    expect = dict(op["expect"])
    expect["backend" if "backend" in expect else "verdict"] = "corrupted"
    load.ops = list(load.ops)
    load.ops[index] = dict(op, expect=expect)
    load.lists = [[index], [index]]
    load.warmups = []
    session = serve_load.Session(load)
    try:
        connections = session.window(0.2)
    finally:
        code = session.close()
    attempted = sum(c.attempted for c in connections)
    failed = sum(c.failed for c in connections)
    check(failed == attempted >= 1 and code == 0,
          "a corrupted serve pin counts the request as failed", failures)


def seeds_pass(failures: list[str]) -> None:
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        for name, cls in workloads.WORKLOADS.items():
            workload = cls(seed)
            gc.collect()
            gc.freeze()  # as run.py does after set-up
            window = workloads.run_window(workload, 2.0)
            gc.unfreeze()
            check(window.failed == 0 and window.attempted > 0,
                  f"{name} seed {seed}: {window.attempted} ops, "
                  f"{window.failed} failed", failures)
        load = serve_load.Load(seed)
        session = serve_load.Session(load)
        try:
            connections = session.window(2.0)
        finally:
            code = session.close()
        attempted = sum(c.attempted for c in connections)
        failed = (sum(c.failed for c in connections) + session.warm_failed
                  + (code != 0))
        check(failed == 0 and attempted > 0,
              f"serve seed {seed}: {attempted} requests, {failed} failed",
              failures)


def main() -> int:
    if not common.sources_present():
        print("selftest: run from the root of a full checkout",
              file=sys.stderr)
        return 2
    failures: list[str] = []
    rederive(failures)
    corrupted(failures)
    seeds_pass(failures)
    print(f"selftest: {len(failures)} failed check(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
