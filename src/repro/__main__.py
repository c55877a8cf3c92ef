"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``corpus``
    Render the corpus-wide BAN-vs-AT findings table (experiment E10).

``analyze NAME [--logic {ban,at}] [--explain GOAL] [--certify GOAL]``
    Run one protocol's annotation and print the goal outcomes; with
    ``--explain`` also print the derivation tree of a goal, and with
    ``--certify`` compile the goal into a checked Hilbert proof; a GOAL
    the protocol does not name exits 2.

``sweep [--systems N] [--instances M] [--seed S] [--backend NAME]``
    Run the empirical Theorem 1 soundness sweep (experiment E3);
    ``--backend`` selects the semantics backend (``belief`` or
    ``epistemic``).

``obs [--systems N] [--instances M] [--seed S]
[--format {prometheus,json}] [--output PATH] [--journal PATH]
[--input PATH]``
    Run the E3 sweep workload under a fresh correlated context and
    export the unified telemetry snapshot — perf counters, cache
    hit-rates and peaks, span percentiles, journal depth — as
    Prometheus text exposition or JSON.  ``--journal``
    additionally dumps the flight-recorder ring as JSONL; ``--input``
    re-exports a previously saved JSON snapshot instead of running a
    workload.

``trace [--systems N] [--seed S] [--schema NAME] [--instances M]
[--formula TEXT] [--output PATH] [--only-failures]``
    Trace the Section 6 truth definition: evaluate axiom-schema
    instances (or one ``--formula``) over generated systems with the
    explanation tracer on, write the evaluation trees as JSONL
    (default ``TRACE_report.jsonl``), and print the first "why-false"
    proof tree encountered.  A ``--formula`` that does not parse
    against the systems' vocabulary exits 2 before the output is
    opened.

``fuzz [--seed S] [--iterations N] [--report PATH] [--oracles F,..]``
    Run the differential fuzzing and fault-injection campaign: the rows
    of the fuzz oracle table over seeded random well-formed systems.
    ``--oracles`` selects a comma-separated subset of its families
    (default: all; ``fuzz --help`` lists them) and ``--backend`` picks
    the semantics backend the replay oracle audits against.  Writes a
    JSON report (default ``FUZZ_report.json``) with shrunk
    counterexamples.  An empty or unknown ``--oracles`` selection
    exits 2 before any work starts.

``cointoss``
    Walk the Section 7 construction and optimality story (E5-E7).

``experiments``
    Run all experiment assertions E1-E14 and print a summary line each.

Counts and sizes (``--systems``, ``--instances``, ``--iterations``,
``--workers``, ``--queue-size``) below 1, a ``--timeout`` not above 0
and a ``serve --port`` outside 0-65535 exit 2 before any work starts,
file is written or port is bound.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis import analyze, compare_corpus
from repro.protocols import PROTOCOLS
from repro.semantics.backend import backend_names


def _cmd_corpus(_args: argparse.Namespace) -> int:
    table = compare_corpus()
    print(table.render())
    return 0 if table.all_as_expected else 1


def _cmd_analyze(args: argparse.Namespace) -> int:
    module = PROTOCOLS[args.name]
    protocol = (
        module.ban_protocol() if args.logic == "ban" else module.at_protocol()
    )
    report = analyze(protocol)
    goals = {result.goal.label: result.goal for result in report.goal_results}
    for label in (args.explain, args.certify):
        if label is not None and label not in goals:
            print(f"no goal labelled {label!r}", file=sys.stderr)
            return 2
    print(report.pretty())
    if args.explain is not None:
        print()
        print(f"derivation of {args.explain}:")
        print(report.explain_goal(args.explain))
    if args.certify is not None:
        from repro.logic import certify

        goal = goals[args.certify]
        proof = certify(report.derivation, goal.formula)
        proof.check()
        print()
        print(
            f"certified {goal.label}: {len(proof.steps)}-step Hilbert "
            f"proof from {len(proof.premises)} premises (checked)"
        )
        print(proof.pretty())
    return 0 if report.all_as_expected else 1


class _FuzzHelp(argparse.HelpFormatter):
    """Fills the fuzz table's families into ``fuzz --help``, importing
    :mod:`repro.fuzz` only when that help is printed."""

    def _get_help_string(self, action: argparse.Action) -> str:
        from repro.fuzz import ORACLE_FAMILIES

        return action.help.replace("FAMILIES", ", ".join(ORACLE_FAMILIES))


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.soundness import generate_systems, sweep_systems

    systems = generate_systems(args.systems, base_seed=args.seed)
    report = sweep_systems(
        systems,
        max_instances_per_schema=args.instances,
        engine=args.engine,
        backend=args.backend,
    )
    print(report.render())
    for violation in report.essential_violations[:10]:
        print(" !", violation)
    return 0 if not report.essential_violations else 1


def _cmd_obs(args: argparse.Namespace) -> int:
    import json

    from repro.obs import journal, metrics, run_metadata

    if args.input is not None:
        with open(args.input, "r", encoding="utf-8") as handle:
            snapshot = json.load(handle)
    else:
        from repro import context
        from repro.soundness import generate_systems, sweep_systems

        # The whole workload runs in a fresh context under one
        # correlation ID, so the exported snapshot is exactly this
        # invocation's telemetry — the per-request shape the serve
        # daemon will reuse.
        with context.scoped("cli-obs") as ctx:
            ctx.corr_id = journal.new_corr_id("obs")
            systems = generate_systems(args.systems, base_seed=args.seed)
            sweep_systems(
                systems,
                max_instances_per_schema=args.instances,
                engine=args.engine,
            )
            snapshot = metrics.unified_snapshot(
                meta=run_metadata(
                    command="obs", systems=args.systems,
                    instances=args.instances, seed=args.seed,
                    engine=args.engine,
                )
            )
            if args.journal is not None:
                events = journal.write_jsonl(args.journal)
                print(f"wrote {events} journal events to {args.journal}",
                      file=sys.stderr)
    text = (
        metrics.to_prometheus(snapshot) if args.format == "prometheus"
        else metrics.to_json(snapshot)
    )
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(text)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import itertools
    import json

    from repro.errors import ReproError
    from repro.logic.axioms import AXIOMS
    from repro.obs import run_metadata
    from repro.obs.trace import render_why, trace_evaluation, trace_records
    from repro.soundness import generate_systems
    from repro.soundness.sweep import pool_from_system
    from repro.terms.parser import parse_formula

    if args.schema is not None and args.schema not in AXIOMS:
        print(f"unknown schema {args.schema!r}; choose from: "
              f"{', '.join(sorted(AXIOMS))}", file=sys.stderr)
        return 2
    systems = generate_systems(args.systems, base_seed=args.seed)
    schemas = (
        (AXIOMS[args.schema],) if args.schema is not None
        else tuple(AXIOMS.values())
    )
    formulas = []
    if args.formula is not None:
        # Parse before opening the output, so a bad formula leaves an
        # existing report untouched.
        try:
            formulas = [parse_formula(args.formula, system.vocabulary)
                        for system in systems]
        except ReproError as error:
            print(f"bad --formula: {error}", file=sys.stderr)
            return 2

    evaluations = failures = lines = 0
    first_false: str | None = None
    with open(args.output, "w", encoding="utf-8") as handle:
        meta = run_metadata(
            command="trace", systems=args.systems, seed=args.seed,
            schema=args.schema, formula=args.formula,
        )
        handle.write(json.dumps({"record": "meta", **meta},
                               sort_keys=True) + "\n")
        for index, system in enumerate(systems):
            if formulas:
                targets = [("formula", formulas[index])]
            else:
                pool = pool_from_system(system)
                targets = [
                    (schema.name, instance)
                    for schema in schemas
                    for instance in itertools.islice(
                        schema.instances(pool), args.instances
                    )
                ]
            for label, instance in targets:
                for run, k in system.points():
                    verdict, root = trace_evaluation(system, instance, run, k)
                    evaluations += 1
                    if not verdict:
                        failures += 1
                        if first_false is None:
                            first_false = render_why(root)
                    if args.only_failures and verdict:
                        continue
                    for record in trace_records(
                        root, schema=label, system=index
                    ):
                        handle.write(
                            json.dumps(record, sort_keys=True) + "\n"
                        )
                        lines += 1
    print(
        f"trace: {evaluations} evaluations ({failures} false) over "
        f"{args.systems} system(s); {lines} trace records"
    )
    if first_false is not None:
        print()
        print("first why-false tree:")
        print(first_false)
    print(f"wrote {args.output}")
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.fuzz import ORACLE_FAMILIES, FuzzConfig, run_fuzz

    if args.oracles.strip().lower() == "all":
        oracles = ORACLE_FAMILIES
    else:
        oracles = tuple(
            name.strip() for name in args.oracles.split(",") if name.strip()
        )
    try:
        config = FuzzConfig(
            seed=args.seed,
            iterations=args.iterations,
            oracles=oracles,
            backend=args.backend,
        )
    except ValueError as error:  # an unknown or empty family selection
        print(error)
        return 2
    report = run_fuzz(config)
    print(report.render())
    report.write(args.report)
    print(f"wrote {args.report}")
    return 0 if report.ok else 1


def _cmd_cointoss(_args: argparse.Namespace) -> int:
    from repro.goodruns import (
        build_cointoss_example,
        build_corrected_cointoss_example,
        construct_good_runs,
        optimality_report,
        supports,
    )

    for example, label in (
        (build_cointoss_example(), "mutually mistaken (no I2)"),
        (build_corrected_cointoss_example(), "corrected (I2 holds)"),
    ):
        result = construct_good_runs(example.system, example.assumptions)
        report = optimality_report(example.system, example.assumptions)
        print(f"--- {label} ---")
        for depth, stage in enumerate(result.stages):
            print(f"  G^{depth} = {stage.describe()}")
        print(f"  supports I: "
              f"{supports(example.system, result.vector, example.assumptions)}")
        print(f"  supporting vectors: {len(report.supporting)}; "
              f"optimum exists: {report.has_optimum}")
    return 0


def _cmd_experiments(_args: argparse.Namespace) -> int:
    import subprocess

    return subprocess.call(
        [sys.executable, "-m", "pytest", "tests/test_experiments.py", "-v"]
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import ServeConfig, run_daemon

    config = ServeConfig(
        host=args.host, port=args.port, workers=args.workers,
        queue_size=args.queue_size, request_timeout_s=args.timeout,
        default_backend=args.backend,
    )
    try:
        asyncio.run(run_daemon(config))
    except KeyboardInterrupt:
        pass
    return 0


def _positive(cast):
    """An argparse ``type=``: ``cast``, then reject values not above 0."""
    def convert(text: str):
        value = cast(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {text}")
        return value

    convert.__name__ = cast.__name__  # argparse names it in "invalid int"
    return convert


def _port(text: str) -> int:
    """An argparse ``type=`` for a TCP port; 0 asks for an ephemeral one."""
    value = int(text)
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(
            f"must be within 0-65535, got {text}")
    return value


_port.__name__ = "int"  # argparse names it in "invalid int"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Abadi & Tuttle, PODC 1991",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    backends = backend_names()
    count = _positive(int)

    sub.add_parser("corpus", help="render the E10 findings table")

    analyze_parser = sub.add_parser("analyze", help="analyze one protocol")
    analyze_parser.add_argument("name", choices=sorted(PROTOCOLS))
    analyze_parser.add_argument("--logic", choices=["ban", "at"],
                                default="at")
    analyze_parser.add_argument("--explain", metavar="GOAL", default=None)
    analyze_parser.add_argument("--certify", metavar="GOAL", default=None)

    sweep_parser = sub.add_parser("sweep", help="empirical Theorem 1 (E3)")
    sweep_parser.add_argument("--systems", type=count, default=3)
    sweep_parser.add_argument("--instances", type=count, default=60)
    sweep_parser.add_argument("--seed", type=int, default=0)
    sweep_parser.add_argument(
        "--engine", choices=["compiled", "interpreted"], default="compiled",
        help="evaluation engine for the sweep (default: compiled)",
    )
    sweep_parser.add_argument(
        "--backend", choices=backends, default="belief",
        help="semantics backend (default: belief)",
    )

    obs_parser = sub.add_parser(
        "obs", help="export the unified telemetry snapshot"
    )
    obs_parser.add_argument("--systems", type=count, default=3)
    obs_parser.add_argument("--instances", type=count, default=60)
    obs_parser.add_argument("--seed", type=int, default=0)
    obs_parser.add_argument(
        "--engine", choices=["compiled", "interpreted"], default="compiled",
    )
    obs_parser.add_argument(
        "--format", choices=["prometheus", "json"], default="prometheus",
        help="exposition format for the snapshot (default: prometheus)",
    )
    obs_parser.add_argument(
        "--output", default=None,
        help="write the exposition here instead of stdout",
    )
    obs_parser.add_argument(
        "--journal", default=None,
        help="also dump the flight-recorder ring as JSONL to this path",
    )
    obs_parser.add_argument(
        "--input", default=None,
        help="re-export a saved JSON snapshot instead of running a workload",
    )

    trace_parser = sub.add_parser(
        "trace", help="explanation-trace schema instances over systems"
    )
    trace_parser.add_argument("--systems", type=count, default=1)
    trace_parser.add_argument("--seed", type=int, default=0)
    trace_parser.add_argument(
        "--schema", default=None,
        help="trace one axiom schema (default: all registered schemas)",
    )
    trace_parser.add_argument(
        "--instances", type=count, default=2,
        help="instances per schema to trace (each at every point)",
    )
    trace_parser.add_argument(
        "--formula", default=None,
        help="trace this formula instead of schema instances",
    )
    trace_parser.add_argument(
        "--output", default="TRACE_report.jsonl",
        help="where to write the JSONL trace records",
    )
    trace_parser.add_argument(
        "--only-failures", action="store_true",
        help="write trace records only for false verdicts",
    )

    fuzz_parser = sub.add_parser(
        "fuzz", help="differential run-fuzzing and fault injection",
        formatter_class=_FuzzHelp,
    )
    fuzz_parser.add_argument("--seed", type=int, default=0)
    fuzz_parser.add_argument("--iterations", type=count, default=200)
    fuzz_parser.add_argument(
        "--report", default="FUZZ_report.json",
        help="where to write the JSON campaign report",
    )
    fuzz_parser.add_argument(
        "--oracles", default="all",
        help="comma-separated oracle families to run (FAMILIES; "
             "default: all)",
    )
    fuzz_parser.add_argument(
        "--backend", choices=backends, default="belief",
        help="semantics backend the engine-replay oracle audits against "
             "(the cross_backend oracle always compares belief vs. "
             "epistemic; default: belief)",
    )

    serve_parser = sub.add_parser(
        "serve", help="run the analysis daemon (HTTP over asyncio)"
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port", type=_port, default=8642,
        help="TCP port, 0-65535; 0 binds an ephemeral port (default: 8642)",
    )
    serve_parser.add_argument(
        "--workers", type=count, default=2,
        help="concurrent analysis workers (default: 2)",
    )
    serve_parser.add_argument(
        "--queue-size", type=count, default=64,
        help="admission queue bound; beyond it requests get 429",
    )
    serve_parser.add_argument(
        "--timeout", type=_positive(float), default=30.0,
        help="per-request execution timeout in seconds",
    )
    serve_parser.add_argument(
        "--backend", choices=backends, default="belief",
        help="semantics backend for requests that do not name one "
             "(default: belief)",
    )

    sub.add_parser("cointoss", help="the Section 7 story (E5-E7)")
    sub.add_parser("experiments", help="run all E1-E14 assertions")

    args = parser.parse_args(argv)
    handlers = {
        "corpus": _cmd_corpus,
        "analyze": _cmd_analyze,
        "sweep": _cmd_sweep,
        "obs": _cmd_obs,
        "trace": _cmd_trace,
        "fuzz": _cmd_fuzz,
        "serve": _cmd_serve,
        "cointoss": _cmd_cointoss,
        "experiments": _cmd_experiments,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
