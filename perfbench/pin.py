#!/usr/bin/env python3
"""Write the pinned answers in ``pins/`` from the reference engines.

Each workload's answers come from an engine other than the one its
timed op runs:

* ``sweep`` — the *interpreted* engine (the independent reference for
  the compiled engine under test): per-schema instance counts, the
  point count, the points of each recorded violation, and the number
  of essential violations.
* ``goodruns`` — the *naive* engine (the paper's literal ``G^j`` loop),
  with the vector confirmed by ``goodruns.supports`` (Theorem 2).  An
  assumption draw is kept only if every principal's good set stays
  non-empty through all six stages, so every stage does work.
* ``serve`` — an in-process replay through ``serve.requests.execute``
  (no HTTP, no daemon, no batching), one fresh engine context per
  request.

Run from the repository root (the sweep pins take a few minutes)::

    python3 perfbench/pin.py --workload sweep
    python3 perfbench/pin.py --workload goodruns
    python3 perfbench/pin.py --workload serve
"""

from __future__ import annotations

import argparse
import sys

import common
import inputs


def sweep_answer(family: str, seed: int) -> dict:
    """The interpreted engine's sweep of one system of the sweep universe."""
    from repro import context
    from repro.logic.axioms import AXIOMS
    from repro.soundness.sweep import sweep_system

    system = inputs.system_for_sweep(family, seed)
    with context.scoped(f"pin-sweep-{family}-{seed}"):
        report = sweep_system(
            system, max_instances_per_schema=inputs.SWEEP_INSTANCES,
            engine="interpreted", backend="belief",
        )
    return {
        "family": family,
        "seed": seed,
        "points": len(tuple(system.points())),
        "instances": [report.per_schema[name].instances for name in AXIOMS],
        "violations": {
            name: inputs.violation_points(r)
            for name, r in sorted(report.per_schema.items()) if r.violations
        },
        "essential": len(report.essential_violations),
    }


def pin_sweep() -> dict:
    from repro.logic.axioms import AXIOMS

    return {"schemas": list(AXIOMS),
            "ops": [sweep_answer(family, seed)
                    for family, seed in inputs.sweep_universe()]}


def goodruns_answer(index: int) -> dict:
    """The naive engine's vector for goodruns system ``index``."""
    from repro import context
    from repro.goodruns import construct_good_runs, supports
    from repro.soundness.generators import GeneratorConfig, generate_system
    from repro.terms.parser import parse_formula

    seed = inputs.GOODRUNS_SEED_BASE + index
    system = generate_system(GeneratorConfig(
        seed=seed, runs=inputs.GOODRUNS_RUNS,
        steps_per_run=inputs.GOODRUNS_STEPS,
    ))
    for attempt in range(100):
        chains = inputs.goodruns_chains(index, attempt)
        assumptions = inputs.close_chains(
            [parse_formula(text, system.vocabulary) for text in chains])
        with context.scoped(f"pin-goodruns-{index}"):
            result = construct_good_runs(system, assumptions, engine="naive")
            if result.depth != inputs.GOODRUNS_DEPTH or not all(
                stage.good_runs(principal)
                for stage in result.stages
                for principal in system.principals()
            ):
                continue
            if not supports(system, result.vector, assumptions):
                raise SystemExit(
                    f"goodruns {index}: the naive vector does not support "
                    "its assumptions (Theorem 2)")
        return {
            "seed": seed,
            "chains": chains,
            "vector": {
                principal.name: sorted(names)
                for principal, names in result.vector.entries
            },
        }
    raise SystemExit(f"goodruns {index}: no assumption draw kept its good "
                     "sets non-empty")


def pin_goodruns() -> dict:
    return {
        "runs": inputs.GOODRUNS_RUNS,
        "steps": inputs.GOODRUNS_STEPS,
        "ops": [goodruns_answer(index)
                for index in range(inputs.GOODRUNS_UNIVERSE)],
    }


class ReferenceModels:
    """In-process model providers for ``serve.requests.execute``.

    They build what the daemon builds for a request — the generated
    system of its spec, the analysis report of its protocol — without
    the daemon's caches.
    """

    def __init__(self) -> None:
        self.systems: dict = {}
        self.reports: dict = {}

    def system_for(self, request):
        from repro.soundness.generators import GeneratorConfig, generate_system

        key = request.system_key
        if key not in self.systems:
            self.systems[key] = generate_system(GeneratorConfig(
                seed=request.seed, runs=request.runs,
                steps_per_run=request.steps, principals=request.principals,
            ))
        return self.systems[key]

    def report_for(self, name: str, logic: str):
        from repro import protocols
        from repro.analysis import analyze

        key = (name, logic)
        if key not in self.reports:
            module = getattr(protocols, _PROTOCOL_MODULES[name])
            protocol = (module.ban_protocol() if logic == "ban"
                        else module.at_protocol())
            self.reports[key] = analyze(protocol)
        return self.reports[key]


#: Wire name -> module name under ``repro.protocols``.
_PROTOCOL_MODULES = {
    "andrew-rpc": "andrew_rpc", "ccitt-x509": "x509", "courier": "forwarding",
    "kerberos": "kerberos", "needham-schroeder": "needham_schroeder",
    "otway-rees": "otway_rees", "wide-mouth-frog": "wide_mouth_frog",
    "yahalom": "yahalom",
}

def serve_reference(payload: dict, models: ReferenceModels) -> dict:
    """Execute one payload in process, in a fresh engine context."""
    from repro import context
    from repro.serve import requests

    request = requests.parse_request(payload)
    with context.scoped("pin-serve"):
        return requests.execute(request, models.system_for, models.report_for)


def pin_serve() -> dict:
    """Pins for the serve universe, :data:`inputs.SERVE_MIX` per category.

    A candidate is kept when the reference executes it cleanly; a
    ``trace`` candidate only when its formula is false at some point.
    Protocol requests are the corpus goals the reference derives and
    certifies, cycled to fill their share.
    """
    from repro.errors import ReproError
    from repro.serve.requests import RequestError

    wanted = dict(inputs.SERVE_MIX)
    models = ReferenceModels()
    kept: dict[str, list[dict]] = {category: [] for category in wanted}
    for category, payload in inputs.serve_candidates():
        if len(kept[category]) >= wanted[category]:
            continue
        try:
            document = serve_reference(payload, models)
        except (RequestError, ReproError):
            continue
        if category == "trace" and document["verdict"]:
            continue
        kept[category].append({"category": category, "payload": payload,
                               "expect": common.expected_fields(document)})
    goals = []
    for name in inputs.SERVE_PROTOCOLS:
        for logic in ("at", "ban"):
            report = models.report_for(name, logic)
            for result in report.goal_results:
                if not result.achieved:
                    continue
                payload = {"kind": "protocol", "protocol": name,
                           "logic": logic, "goal": result.goal.label,
                           "certify": True}
                try:
                    document = serve_reference(payload, models)
                except (RequestError, ReproError):
                    continue  # BAN-only rules have no Hilbert certificate
                if document.get("certificate", {}).get("checked"):
                    goals.append({"category": "protocol", "payload": payload,
                                  "expect": common.expected_fields(document)})
    kept["protocol"] = [goals[i % len(goals)]
                        for i in range(wanted["protocol"])]
    for category, count in wanted.items():
        if len(kept[category]) != count:
            raise SystemExit(f"serve: only {len(kept[category])} usable "
                             f"{category} candidates, need {count}")
    return {"ops": [op for category in wanted for op in kept[category]]}


PINNERS = {
    "sweep": pin_sweep,
    "goodruns": pin_goodruns,
    "serve": pin_serve,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(PINNERS), required=True)
    args = parser.parse_args(argv)
    document = PINNERS[args.workload]()
    path = common.PINS / f"{args.workload}.json"
    common.write_pins(path, document)
    print(f"pin: wrote {len(document['ops'])} answers to {path}",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
