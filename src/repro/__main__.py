"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``corpus``
    Render the corpus-wide BAN-vs-AT findings table (experiment E10).

``analyze NAME [--logic {ban,at}] [--explain GOAL] [--certify GOAL]``
    Run one protocol's annotation and print the goal outcomes; with
    ``--explain`` also print the derivation tree of a goal, and with
    ``--certify`` compile the goal into a checked Hilbert proof.

``sweep [--systems N] [--instances M] [--seed S] [--workers W]
[--backend NAME] [--isolated]``
    Run the empirical Theorem 1 soundness sweep (experiment E3);
    ``--workers`` shards it over a process pool and ``--backend``
    selects the semantics backend (``belief`` or ``epistemic``).

``sweep``/``trace``/``fuzz`` accept ``--isolated``: run the whole
command under a fresh :class:`repro.context.EngineContext`, so its
caches, counters, and spans are session-private (nothing read from or
left behind in the process-default context).

``perf [--systems N] [--instances M] [--seed S] [--workers W] [--output PATH]``
    Time the E3 sweep and the good-runs construction (naive vs
    worklist engine, with per-stage span totals), print the cache
    hit/miss table, and write a machine-readable benchmark record
    (default ``BENCH_sweep.json``).

``obs [--systems N] [--instances M] [--seed S] [--workers W]
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
    proof tree encountered.

``fuzz [--seed S] [--iterations N] [--report PATH] [--oracles F,..]``
    Run the differential fuzzing and fault-injection campaign: random
    well-formed systems, WF fault injection with classification
    oracles, evaluator cache/hide/ground-path differentials,
    engine-vs-semantics derivation replay, adversarial proof mutation,
    per-workload interpretation fuzzing, good-runs construction
    invariants (Theorem 2/3 support, monotonicity, idempotence, engine
    agreement, brute-force optimality), and a periodic
    parallel-vs-sequential sweep comparison, and the belief-vs-epistemic
    cross-backend containment map.  ``--oracles`` selects a
    comma-separated subset of the families (default: all) and
    ``--backend`` picks the semantics backend the replay oracle audits
    against.  Writes a JSON report (default ``FUZZ_report.json``) with
    shrunk counterexamples.

``cointoss``
    Walk the Section 7 construction and optimality story (E5-E7).

``experiments``
    Run all experiment assertions E1-E14 and print a summary line each.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis import analyze, compare_corpus
from repro.protocols import PROTOCOLS


def _cmd_corpus(_args: argparse.Namespace) -> int:
    table = compare_corpus()
    print(table.render())
    return 0 if table.all_as_expected else 1


def _cmd_analyze(args: argparse.Namespace) -> int:
    module = PROTOCOLS.get(args.name)
    if module is None:
        print(f"unknown protocol {args.name!r}; choose from: "
              f"{', '.join(sorted(PROTOCOLS))}", file=sys.stderr)
        return 2
    protocol = (
        module.ban_protocol() if args.logic == "ban" else module.at_protocol()
    )
    report = analyze(protocol)
    print(report.pretty())
    if args.explain:
        print()
        print(f"derivation of {args.explain}:")
        print(report.explain_goal(args.explain))
    if args.certify:
        from repro.logic import certify

        goal = next(
            (r.goal for r in report.goal_results
             if r.goal.label == args.certify),
            None,
        )
        if goal is None:
            print(f"no goal labelled {args.certify!r}", file=sys.stderr)
            return 2
        proof = certify(report.derivation, goal.formula)
        proof.check()
        print()
        print(
            f"certified {goal.label}: {len(proof.steps)}-step Hilbert "
            f"proof from {len(proof.premises)} premises (checked)"
        )
        print(proof.pretty())
    return 0 if report.all_as_expected else 1


def _add_isolated(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--isolated", action="store_true",
        help="run in a fresh engine context (session-private caches, "
             "counters, and spans; nothing shared with the process "
             "default)",
    )


def _isolated(handler):
    """Wrap a subcommand so it runs in a fresh :class:`EngineContext`.

    ``--isolated`` gives the command session-private caches, counters,
    and spans: nothing read from (or left behind in) the process-default
    context, which is what a multi-tenant server wants per request.
    """

    def wrapped(args: argparse.Namespace) -> int:
        if getattr(args, "isolated", False):
            from repro import context

            with context.scoped(f"cli-{args.command}"):
                return handler(args)
        return handler(args)

    return wrapped


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.soundness import generate_systems, sweep_systems

    systems = generate_systems(args.systems, base_seed=args.seed)
    report = sweep_systems(
        systems,
        max_instances_per_schema=args.instances,
        workers=args.workers,
        engine=args.engine,
        backend=args.backend,
    )
    print(report.render())
    for violation in report.essential_violations[:10]:
        print(" !", violation)
    return 0 if not report.essential_violations else 1


#: Belief-chain depth of the perf CLI's good-runs benchmark workload.
_GOODRUNS_BENCH_DEPTH = 4


def _cmd_perf(args: argparse.Namespace) -> int:
    from repro import perf
    from repro.obs import run_metadata, spans
    from repro.soundness import generate_systems, sweep_systems

    engines = (
        ("compiled", "interpreted") if args.engine == "both"
        else (args.engine,)
    )
    spans.reset()
    with spans.span("perf.generate"):
        with perf.Stopwatch() as generation:
            systems = generate_systems(args.systems, base_seed=args.seed)
    perf.reset_counters()
    measurements: dict = {
        "generate_systems_s": round(generation.seconds, 6),
    }
    report = None
    for engine in engines:
        with spans.span("perf.sweep_cold", engine=engine):
            with perf.Stopwatch() as cold:
                engine_report = sweep_systems(
                    systems,
                    max_instances_per_schema=args.instances,
                    workers=args.workers,
                    engine=engine,
                    backend=args.backend,
                )
        # A second, identical sweep shows what the session caches
        # (interning, ops memos, hide views, compiled systems) buy on
        # a warm process.
        with spans.span("perf.sweep_warm", engine=engine):
            with perf.Stopwatch() as warm:
                sweep_systems(
                    systems,
                    max_instances_per_schema=args.instances,
                    workers=args.workers,
                    engine=engine,
                    backend=args.backend,
                )
        measurements[f"sweep_cold_{engine}_s"] = round(cold.seconds, 6)
        measurements[f"sweep_warm_{engine}_s"] = round(warm.seconds, 6)
        if report is None:
            # The first engine listed is the adopted default.
            report = engine_report
        print(
            f"[{engine}] sweep (cold) {cold.seconds:.3f}s | "
            f"sweep (warm) {warm.seconds:.3f}s"
        )
    # Good-runs fixpoint benchmark: the same multi-depth workload
    # through both construction engines, each in a fresh context (cold
    # compilation caches), with the per-stage ``goodruns.stage`` span
    # totals recorded so the worklist win is measured, not asserted.
    from repro import context
    from repro.fuzz.goodruns_oracles import deep_assumptions
    from repro.goodruns import construct_good_runs

    workloads = [
        (system, deep_assumptions(system, _GOODRUNS_BENCH_DEPTH))
        for system in systems
    ]
    goodruns_stage_spans: dict = {}
    for engine in ("naive", "worklist"):
        engine_ctx = context.fresh(f"perf-goodruns-{engine}")
        with context.use(engine_ctx):
            with perf.Stopwatch() as watch:
                for system, assumptions in workloads:
                    construct_good_runs(system, assumptions, engine=engine)
        context.current().absorb(engine_ctx.telemetry())
        # The grouped summary splits ``goodruns.stage`` into
        # per-engine rows directly; no manual filtering of the raw
        # span buffer.
        row = spans.summary(group_by="engine").get(
            f"goodruns.stage{{engine={engine}}}",
            {"count": 0, "total_s": 0.0},
        )
        goodruns_stage_spans[engine] = {
            "stages": row["count"],
            "stage_total_s": row["total_s"],
        }
        measurements[f"goodruns_{engine}_s"] = round(watch.seconds, 6)
        print(
            f"[goodruns/{engine}] construct {watch.seconds:.3f}s | "
            f"{row['count']} stage spans {row['total_s']:.3f}s"
        )
    naive_total = goodruns_stage_spans["naive"]["stage_total_s"]
    worklist_total = goodruns_stage_spans["worklist"]["stage_total_s"]
    goodruns_stage_spans["stage_delta_s"] = round(
        naive_total - worklist_total, 6
    )
    measurements["goodruns_stage_spans"] = goodruns_stage_spans

    measurements.update(
        total_instances=report.total_instances,
        total_violations=report.total_violations,
        essential_violations=len(report.essential_violations),
    )
    print(report.render())
    print()
    print(perf.report())
    print()
    print(spans.render(group_by="engine"))
    print()
    print(f"generation {generation.seconds:.3f}s")
    perf.write_bench_json(
        args.output,
        measurements=measurements,
        parameters={
            "systems": args.systems,
            "instances": args.instances,
            "seed": args.seed,
            "workers": args.workers,
            "engine": args.engine,
            "backend": args.backend,
        },
        spans=spans.summary(),
        meta=run_metadata(command="perf", workers=args.workers,
                          backend=args.backend),
    )
    print(f"wrote {args.output}")
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
                workers=args.workers,
                engine=args.engine,
            )
            snapshot = metrics.unified_snapshot(
                meta=run_metadata(
                    command="obs", systems=args.systems,
                    instances=args.instances, seed=args.seed,
                    workers=args.workers, engine=args.engine,
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

    from repro.logic.axioms import AXIOMS
    from repro.obs import run_metadata
    from repro.obs.trace import render_why, trace_evaluation, trace_records
    from repro.soundness import generate_systems
    from repro.soundness.sweep import pool_from_system

    if args.schema is not None and args.schema not in AXIOMS:
        print(f"unknown schema {args.schema!r}; choose from: "
              f"{', '.join(sorted(AXIOMS))}", file=sys.stderr)
        return 2
    systems = generate_systems(args.systems, base_seed=args.seed)
    schemas = (
        (AXIOMS[args.schema],) if args.schema is not None
        else tuple(AXIOMS.values())
    )

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
            if args.formula is not None:
                from repro.terms.parser import parse_formula

                targets = [("formula", parse_formula(
                    args.formula, system.vocabulary))]
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
        unknown = set(oracles) - set(ORACLE_FAMILIES)
        if unknown:
            print(
                f"unknown oracle families {sorted(unknown)}; "
                f"choose from {', '.join(ORACLE_FAMILIES)}"
            )
            return 2
    config = FuzzConfig(
        seed=args.seed,
        iterations=args.iterations,
        parallel_every=args.parallel_every,
        parallel_workers=args.workers,
        oracles=oracles,
        backend=args.backend,
    )
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
        queue_size=args.queue_size, max_batch=args.max_batch,
        request_timeout_s=args.timeout,
        default_backend=args.backend,
    )
    try:
        asyncio.run(run_daemon(config))
    except KeyboardInterrupt:
        pass
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Abadi & Tuttle, PODC 1991",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("corpus", help="render the E10 findings table")

    analyze_parser = sub.add_parser("analyze", help="analyze one protocol")
    analyze_parser.add_argument("name", choices=sorted(PROTOCOLS))
    analyze_parser.add_argument("--logic", choices=["ban", "at"],
                                default="at")
    analyze_parser.add_argument("--explain", metavar="GOAL", default=None)
    analyze_parser.add_argument("--certify", metavar="GOAL", default=None)

    sweep_parser = sub.add_parser("sweep", help="empirical Theorem 1 (E3)")
    sweep_parser.add_argument("--systems", type=int, default=3)
    sweep_parser.add_argument("--instances", type=int, default=60)
    sweep_parser.add_argument("--seed", type=int, default=0)
    sweep_parser.add_argument(
        "--workers", type=int, default=1,
        help="process-pool workers for the sweep (1 = in-process)",
    )
    sweep_parser.add_argument(
        "--engine", choices=["compiled", "interpreted"], default="compiled",
        help="evaluation engine for the sweep (default: compiled)",
    )
    sweep_parser.add_argument(
        "--backend", default="belief",
        help="semantics backend (belief, epistemic; default: belief)",
    )
    _add_isolated(sweep_parser)

    perf_parser = sub.add_parser(
        "perf", help="time the E3 sweep and dump cache statistics"
    )
    perf_parser.add_argument("--systems", type=int, default=3)
    perf_parser.add_argument("--instances", type=int, default=60)
    perf_parser.add_argument("--seed", type=int, default=0)
    perf_parser.add_argument("--workers", type=int, default=1)
    perf_parser.add_argument(
        "--engine", choices=["compiled", "interpreted", "both"],
        default="both",
        help="which engine(s) to time (default: both, compiled first)",
    )
    perf_parser.add_argument(
        "--backend", default="belief",
        help="semantics backend the sweeps run under (default: belief)",
    )
    perf_parser.add_argument(
        "--output", default="BENCH_sweep.json",
        help="where to write the machine-readable benchmark record",
    )

    obs_parser = sub.add_parser(
        "obs", help="export the unified telemetry snapshot"
    )
    obs_parser.add_argument("--systems", type=int, default=3)
    obs_parser.add_argument("--instances", type=int, default=60)
    obs_parser.add_argument("--seed", type=int, default=0)
    obs_parser.add_argument(
        "--workers", type=int, default=1,
        help="process-pool workers for the sweep workload",
    )
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
    trace_parser.add_argument("--systems", type=int, default=1)
    trace_parser.add_argument("--seed", type=int, default=0)
    trace_parser.add_argument(
        "--schema", default=None,
        help="trace one axiom schema (default: all registered schemas)",
    )
    trace_parser.add_argument(
        "--instances", type=int, default=2,
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
    _add_isolated(trace_parser)

    fuzz_parser = sub.add_parser(
        "fuzz", help="differential run-fuzzing and fault injection"
    )
    fuzz_parser.add_argument("--seed", type=int, default=0)
    fuzz_parser.add_argument("--iterations", type=int, default=200)
    fuzz_parser.add_argument(
        "--report", default="FUZZ_report.json",
        help="where to write the JSON campaign report",
    )
    fuzz_parser.add_argument(
        "--parallel-every", type=int, default=50,
        help="run the parallel-sweep oracle every Nth iteration (0 = never)",
    )
    fuzz_parser.add_argument(
        "--workers", type=int, default=2,
        help="process-pool width for the parallel-sweep oracle",
    )
    fuzz_parser.add_argument(
        "--oracles", default="all",
        help="comma-separated oracle families to run (wf, differential, "
             "compiled, parallel, engine_replay, proof_mutation, "
             "interpretation, goodruns_construction, cross_backend; "
             "default: all)",
    )
    fuzz_parser.add_argument(
        "--backend", default="belief",
        help="semantics backend the engine-replay oracle audits against "
             "(the cross_backend oracle always compares belief vs. "
             "epistemic; default: belief)",
    )
    _add_isolated(fuzz_parser)

    serve_parser = sub.add_parser(
        "serve", help="run the analysis daemon (HTTP over asyncio)"
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=8642)
    serve_parser.add_argument(
        "--workers", type=int, default=2,
        help="concurrent analysis workers (default: 2)",
    )
    serve_parser.add_argument(
        "--queue-size", type=int, default=64,
        help="admission queue bound; beyond it requests get 429",
    )
    serve_parser.add_argument(
        "--max-batch", type=int, default=8,
        help="max same-system requests batched into one engine context",
    )
    serve_parser.add_argument(
        "--timeout", type=float, default=30.0,
        help="per-request execution timeout in seconds",
    )
    serve_parser.add_argument(
        "--backend", default="belief",
        help="semantics backend for requests that do not name one "
             "(default: belief)",
    )

    sub.add_parser("cointoss", help="the Section 7 story (E5-E7)")
    sub.add_parser("experiments", help="run all E1-E14 assertions")

    args = parser.parse_args(argv)
    handlers = {
        "corpus": _cmd_corpus,
        "analyze": _cmd_analyze,
        "sweep": _isolated(_cmd_sweep),
        "perf": _cmd_perf,
        "obs": _cmd_obs,
        "trace": _isolated(_cmd_trace),
        "fuzz": _isolated(_cmd_fuzz),
        "serve": _cmd_serve,
        "cointoss": _cmd_cointoss,
        "experiments": _cmd_experiments,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
