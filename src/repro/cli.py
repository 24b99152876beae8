"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    Show version and the simulated machine presets.
``run SQL``
    Execute a SQL query against a generated workload dataset, serially
    or parallelized, optionally printing the plan and a tomograph.
``adapt (--query NAME | SQL)``
    Adaptively parallelize a query and report the convergence outcome;
    ``--verbose`` adds the mutation trace with analyzer summaries.
``lint (--query NAME | --sql SQL | --plan-json FILE)``
    Run the static plan analyzer and print its diagnostics; exits
    non-zero on errors (and, with ``--strict``, on warnings).
    ``--json`` prints the shared machine-readable report document.
``analyze [PATHS ...]``
    Run the codebase analyzer (kernel purity, determinism, concurrency
    lints) over the installed ``repro`` package or the given paths, and
    print the per-operator parallel-safety certificate registry.  Same
    severity and exit-code convention as ``lint``; ``--baseline FILE``
    suppresses known findings, ``--write-baseline FILE`` records the
    current ones.  See ``docs/static_analysis.md``.
``bench NAME``
    Run one of the paper's experiments (``fig11``, ``fig12`` ...) and
    print its paper-vs-measured report, or a report bench:
    ``convergence`` or ``scaleout``.  A report bench prints its text,
    writes ``BENCH_<name>.json`` (``BENCH_<name>_quick.json`` with
    ``--quick``, or ``--output``), renders
    ``--figure``, and fails unless every ``--gate 'METRIC<=X'`` (or
    ``>=``) holds on the report (see :mod:`repro.bench.gates`).
``chaos``
    Fault-injection demo (see ``docs/robustness.md``): a resilient
    closed-loop workload rides out injected operator crashes,
    stragglers, and disconnects, then an adaptive-parallelization
    instance converges under the same chaos; both are bit-reproducible
    for a fixed ``--seed``.
``trace (--query NAME | --sql SQL)``
    Execute (or, with ``--adaptive``, adaptively parallelize) a query
    under the observability layer and write the trace: Chrome
    ``trace_event`` JSON for Perfetto/chrome://tracing (default), one
    span per line (``--format jsonl``), or the canonical byte-stable
    document (``--format canonical``).  See ``docs/observability.md``.
``metrics (--query NAME | --sql SQL)``
    Same execution, but print the metrics registry in Prometheus text
    exposition format.
``serve``
    Run the multi-tenant SQL service (see ``docs/serving.md``): an
    asyncio TCP listener speaking newline-delimited JSON plus HTTP
    (``GET /metrics`` Prometheus scrapes, ``GET /healthz``,
    ``POST /query``), with per-tenant SLO classes and weighted-fair
    admission control.  ``--loadgen PRESET`` instead drives a seeded,
    deterministic load run (e.g. ``quick`` = 1000 clients across 3
    tenants) against the same service core in simulated time -- the
    per-tenant p50/p99 SLO report is byte-identical for a fixed seed
    -- while the live ``/metrics`` endpoint stays scrapeable;
    ``--chaos light`` adds fault injection, and ``--gate`` (e.g.
    ``'totals.p99_ms<=10000'``) turns the report into a CI gate.

    Examples::

        repro serve --port 7744
        repro serve --loadgen quick --chaos light --report slo.json
        echo '{"op":"hello","tenant":"gold"}' | nc 127.0.0.1 7744
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from . import __version__
from .config import SimulationConfig, four_socket_machine, two_socket_machine
from .core import AdaptiveParallelizer, HeuristicParallelizer
from .engine import execute
from .errors import ReproError
from .plan import analyze_plan, format_plan, plan_from_json, plan_stats, to_dot
from .sql import plan_sql
from .viz import render_convergence_report, render_tomograph
from .workloads import TpcdsDataset, TpchDataset

#: Benches that write a JSON report and take ``--gate``.
_REPORT_BENCHES = {
    "convergence": "convergence policies: credit/debit vs warm-start vs bandit",
    "scaleout": "shared-nothing speedup vs nodes, skew straggler, node failure",
}

#: The paper's experiments: name -> module in ``repro.bench.experiments``.
_EXPERIMENTS = {
    "fig01": "fig01_dop",
    "fig11": "fig11_trace",
    "fig12": "fig12_skew",
    "fig14": "fig14_select",
    "fig15": "fig15_join",
    "fig16": "fig16_workload",
    "fig17": "fig17_tpcds",
    "fig18": "fig18_robustness",
    "fig18chaos": "fig18_chaos",
    "fig19": "fig19_util",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Adaptive query parallelization (EDBT 2016) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="show version and machine presets")

    run = sub.add_parser("run", help="execute a SQL query on a workload dataset")
    run.add_argument("sql", help="the SQL text")
    _dataset_args(run)
    run.add_argument(
        "--parallelize",
        choices=("none", "adaptive", "heuristic"),
        default="none",
        help="how to parallelize the serial plan (default: none)",
    )
    run.add_argument(
        "--partitions", type=int, default=32, help="heuristic partition count"
    )
    run.add_argument("--show-plan", action="store_true", help="print the plan")
    run.add_argument(
        "--tomograph", action="store_true", help="print the execution tomograph"
    )
    run.add_argument("--dot", metavar="FILE", help="write the plan as Graphviz dot")

    adapt = sub.add_parser("adapt", help="adaptively parallelize a query")
    group = adapt.add_mutually_exclusive_group(required=True)
    group.add_argument("--query", help="a named workload query, e.g. q6 or ds1")
    group.add_argument("--sql", help="ad-hoc SQL text")
    _dataset_args(adapt)
    adapt.add_argument(
        "--trace", action="store_true", help="print the per-run trace"
    )
    adapt.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="host workers evaluating ready operators "
        "(default: usable cpu count; results are identical for any N)",
    )
    _backend_arg(adapt)
    adapt.add_argument(
        "--verbose",
        action="store_true",
        help="print each mutation with its analyzer summary",
    )
    adapt.add_argument(
        "--policy",
        default=None,
        metavar="P",
        help="convergence policy: credit_debit (default), "
        "warmstart+credit_debit, or bandit",
    )
    adapt.add_argument(
        "--experience",
        default=None,
        metavar="FILE",
        help="persistent DOP experience store (created if missing); "
        "warm-capable policies read it, every policy records into it",
    )
    adapt.add_argument(
        "--explain",
        action="store_true",
        help="print the per-run DOP decision provenance",
    )

    learn = sub.add_parser(
        "learn", help="inspect a DOP experience store"
    )
    learn.add_argument(
        "store", metavar="FILE", help="experience-store JSON file"
    )
    learn.add_argument(
        "--json",
        action="store_true",
        help="print the machine-readable store document",
    )
    learn.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="N",
        help="show at most N records (most recently used last)",
    )

    lint = sub.add_parser("lint", help="statically analyze a plan")
    source = lint.add_mutually_exclusive_group(required=True)
    source.add_argument("--query", help="a named workload query, e.g. q6 or ds1")
    source.add_argument("--sql", help="ad-hoc SQL text")
    source.add_argument(
        "--plan-json", metavar="FILE", help="a plan exported with to_json"
    )
    _dataset_args(lint)
    lint.add_argument(
        "--strict", action="store_true", help="exit non-zero on warnings too"
    )
    lint.add_argument(
        "--json",
        action="store_true",
        help="print the machine-readable report document",
    )

    analyze = sub.add_parser(
        "analyze",
        help="statically analyze the codebase (kernel parallel safety)",
    )
    analyze.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files or directories to analyze "
        "(default: the installed repro package)",
    )
    analyze.add_argument(
        "--strict", action="store_true", help="exit non-zero on warnings too"
    )
    analyze.add_argument(
        "--json",
        action="store_true",
        help="print the machine-readable report document",
    )
    analyze.add_argument(
        "--baseline",
        metavar="FILE",
        help="JSON suppression file; matching findings are muted",
    )
    analyze.add_argument(
        "--write-baseline",
        metavar="FILE",
        help="write the current findings as a suppression baseline and exit 0",
    )
    analyze.add_argument(
        "--certificates",
        metavar="FILE",
        help="also write the operator certificate registry as JSON",
    )
    analyze.add_argument(
        "--no-registry",
        action="store_true",
        help="skip building the operator certificate registry",
    )

    bench = sub.add_parser("bench", help="run a paper experiment or a report bench")
    benches = bench.add_subparsers(dest="name", metavar="NAME", required=True)
    benches.add_parser("list", help="list the benches")
    for name, module in _EXPERIMENTS.items():
        benches.add_parser(name, help=f"paper experiment ({module})")
    reports = {}
    for name, help_text in _REPORT_BENCHES.items():
        reports[name] = report = benches.add_parser(name, help=help_text)
        report.add_argument(
            "--quick", action="store_true", help="smaller data, fewer runs"
        )
        report.add_argument(
            "--output",
            metavar="FILE",
            help=f"where to write the JSON report (default: BENCH_{name}.json, "
            f"or BENCH_{name}_quick.json with --quick)",
        )
        _gate_arg(report)
        report.add_argument(
            "--figure", metavar="FILE", help="also export the report's SVG figure"
        )
    reports["scaleout"].add_argument(
        "--nodes",
        metavar="N[,M...]",
        help="comma-separated node counts to sweep (default: 1,2,4)",
    )

    chaos = sub.add_parser(
        "chaos", help="fault-injection demo: resilience + convergence under chaos"
    )
    _dataset_args(chaos)
    chaos.add_argument(
        "--query", default="q6", help="workload query to hammer (default: q6)"
    )
    chaos.add_argument(
        "--clients", type=int, default=6, help="closed-loop clients (default: 6)"
    )
    chaos.add_argument(
        "--horizon",
        type=float,
        default=2.0,
        help="workload horizon, simulated seconds (default: 2.0)",
    )
    chaos.add_argument(
        "--level",
        choices=("light", "heavy"),
        default="light",
        help="fault-plan preset (default: light)",
    )
    chaos.add_argument(
        "--seed", type=int, default=20160315, help="simulation seed"
    )
    chaos.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="client-side timeout per submission, simulated seconds",
    )
    chaos.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="host workers evaluating ready operators "
        "(results are identical for any N)",
    )
    _backend_arg(chaos)
    chaos.add_argument(
        "--no-adapt",
        action="store_true",
        help="skip the adaptive-convergence-under-chaos half",
    )

    trace = sub.add_parser(
        "trace", help="run a query under the tracer and export the trace"
    )
    _observe_args(trace)
    trace.add_argument(
        "--format",
        choices=("chrome", "jsonl", "canonical"),
        default="chrome",
        help="output format (default: chrome trace_event, Perfetto-ready)",
    )
    trace.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="write here instead of stdout",
    )

    metrics = sub.add_parser(
        "metrics", help="run a query and print Prometheus-format metrics"
    )
    _observe_args(metrics)
    metrics.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="write here instead of stdout",
    )

    serve = sub.add_parser(
        "serve",
        help="run the multi-tenant SQL service (or a seeded loadgen run)",
        description=(
            "Serve SQL over TCP (NDJSON sessions + HTTP /metrics, /healthz, "
            "POST /query) with per-tenant SLO classes and weighted-fair "
            "admission; --loadgen runs a deterministic seeded load instead "
            "and prints its per-tenant SLO report. See docs/serving.md."
        ),
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port (default 0: the kernel picks a free one)",
    )
    _dataset_args(serve)
    _backend_arg(serve)
    serve.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="host threads evaluating ready operators",
    )
    serve.add_argument(
        "--tenants", metavar="FILE", default=None,
        help="tenant directory JSON (default: gold/silver/bronze)",
    )
    serve.add_argument(
        "--loadgen", metavar="PRESET", default=None,
        help="run a seeded load instead of serving forever "
        "(tiny, smoke, quick = 1000 clients / 3 tenants, full)",
    )
    serve.add_argument(
        "--chaos", choices=("none", "light", "heavy"), default="none",
        help="fault injection level for --loadgen (default: none)",
    )
    serve.add_argument(
        "--seed", type=int, default=None,
        help="loadgen seed (fixed seed => byte-identical SLO report)",
    )
    serve.add_argument(
        "--report", metavar="FILE", default=None,
        help="write the loadgen SLO report JSON here",
    )
    _gate_arg(serve)
    return parser


def _gate_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--gate",
        action="append",
        default=[],
        metavar="METRIC<=X",
        help="fail unless the report's METRIC (a dotted path, e.g. "
        "summary.min_hit_rate or sweep.-1.speedup) is <= or >= X; repeatable",
    )


def _backend_arg(parser: argparse.ArgumentParser) -> None:
    from .engine.backends import BACKENDS

    parser.add_argument(
        "--backend",
        choices=BACKENDS,
        default=None,
        help="evaluation backend running ready-operator batches "
        "(default: thread, or the REPRO_EVAL_BACKEND env var; "
        "results are identical for either backend)",
    )


def _observe_args(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--query", help="a named workload query, e.g. q6 or ds1")
    source.add_argument("--sql", help="ad-hoc SQL text")
    _dataset_args(parser)
    parser.add_argument(
        "--adaptive",
        action="store_true",
        help="trace a whole adaptive instance instead of one execution",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="host threads evaluating ready operators "
        "(canonical output is identical for any N)",
    )
    parser.add_argument(
        "--host-time",
        action="store_true",
        help="also stamp spans with host wall-clock times "
        "(stripped from canonical output)",
    )


def _dataset_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workload", choices=("tpch", "tpcds"), default="tpch",
        help="which generated dataset to query (default: tpch)",
    )
    parser.add_argument(
        "--sf", type=int, default=None, help="scale factor (default: paper's)"
    )
    parser.add_argument(
        "--machine", choices=("2socket", "4socket"), default="2socket",
        help="simulated machine preset",
    )


def _dataset(args) -> TpchDataset | TpcdsDataset:
    if args.workload == "tpch":
        return TpchDataset(scale_factor=10 if args.sf is None else args.sf)
    return TpcdsDataset(scale_factor=100 if args.sf is None else args.sf)


def _config(args, dataset) -> SimulationConfig:
    machine = two_socket_machine() if args.machine == "2socket" else four_socket_machine()
    return dataset.sim_config(machine=machine)


def _format_outputs(outputs) -> list[str]:
    lines = []
    for i, out in enumerate(outputs):
        value = getattr(out, "value", None)
        if value is not None:
            lines.append(f"  output[{i}] = {value}")
        elif hasattr(out, "head"):
            pairs = list(zip(out.head.tolist(), out.tail.tolist()))
            shown = ", ".join(f"{k}:{v}" for k, v in pairs[:8])
            more = "" if len(pairs) <= 8 else f" ... ({len(pairs)} groups)"
            lines.append(f"  output[{i}] = {{{shown}}}{more}")
        else:
            lines.append(f"  output[{i}] = {out!r}")
    return lines


def _cmd_info() -> int:
    print(f"repro {__version__} -- adaptive query parallelization (EDBT 2016)")
    for preset in (two_socket_machine(), four_socket_machine()):
        print(f"  {preset.describe()}")
    return 0


def _cmd_run(args) -> int:
    dataset = _dataset(args)
    config = _config(args, dataset)
    plan = plan_sql(args.sql, dataset.catalog)
    label = "serial"
    if args.parallelize == "heuristic":
        plan = HeuristicParallelizer(args.partitions).parallelize(plan)
        label = f"heuristic({args.partitions})"
    elif args.parallelize == "adaptive":
        adaptive = AdaptiveParallelizer(config).optimize(plan)
        plan = adaptive.best_plan
        label = (
            f"adaptive (x{adaptive.speedup:.1f} after {adaptive.total_runs} runs)"
        )
    if args.show_plan:
        print(format_plan(plan))
    if args.dot:
        _emit(to_dot(plan), args.dot, "dot")
    result = execute(plan, config)
    print(f"{label}: {result.response_time * 1000:.2f} ms simulated")
    print(f"plan: {plan_stats(plan).format()}")
    for line in _format_outputs(result.outputs):
        print(line)
    if args.tomograph:
        print(render_tomograph(result.profile, config.machine.hardware_threads))
    return 0


def _cmd_adapt(args) -> int:
    dataset = _dataset(args)
    config = _config(args, dataset)
    if args.query:
        plan = dataset.plan(args.query)
        name = args.query
    else:
        plan = plan_sql(args.sql, dataset.catalog)
        name = "ad-hoc query"
    from .engine.evalpool import default_workers

    workers = args.workers if args.workers is not None else default_workers()
    parallelizer = AdaptiveParallelizer(
        config,
        workers=workers,
        backend=args.backend,
        policy=args.policy,
        experience=args.experience,
    )
    try:
        adaptive = parallelizer.optimize(plan)
        explain_lines = parallelizer.explain(adaptive) if args.explain else []
    finally:
        parallelizer.close()
    print(f"{name}: serial {adaptive.serial_time * 1000:.2f} ms -> "
          f"GME {adaptive.gme_time * 1000:.2f} ms "
          f"(x{adaptive.speedup:.1f}) at run {adaptive.gme_run}; "
          f"converged after {adaptive.total_runs} runs")
    if parallelizer.policy != "credit_debit" or args.experience:
        warm = "warm-started" if adaptive.warm_start else "cold"
        print(f"policy: {adaptive.policy} ({warm}), "
              f"runs to GME band: {adaptive.runs_to_gme}, "
              f"total simulated work {adaptive.total_work * 1000:.2f} ms")
    print(f"best plan: {plan_stats(adaptive.best_plan).format()}")
    if explain_lines:
        print("DOP decision provenance:")
        for line in explain_lines:
            print(f"  {line}")
    if args.verbose:
        for i, mutation in enumerate(adaptive.mutations):
            report = adaptive.reports[i] if i < len(adaptive.reports) else None
            summary = report.summary() if report is not None else "not analyzed"
            print(f"  [{i + 1:3d}] {mutation.description} -- analyzer: {summary}")
            if report is not None and report.has_warnings:
                for diag in report.warnings:
                    print(f"        {diag.format()}")
        for rejection in adaptive.rejections:
            print(f"  [rejected] {rejection.result.description}")
            for diag in rejection.report.errors:
                print(f"        {diag.format()}")
    if args.trace:
        print(render_convergence_report(adaptive))
    return 0


def _cmd_learn(args) -> int:
    import json
    import os

    from .learn import ExperienceStore

    if not os.path.exists(args.store):
        raise ReproError(f"no experience store at {args.store}")
    store = ExperienceStore(args.store)
    try:
        records = store.records()
        stats = store.stats()
        if args.limit is not None:
            records = records[-args.limit:]
        if args.json:
            print(json.dumps(
                {
                    "store": args.store,
                    "records": [r.as_dict() for r in records],
                    "size_bytes": store.current_bytes,
                    "capacity_bytes": store.capacity_bytes,
                    "load_skipped": stats.load_skipped,
                },
                indent=2,
            ))
            return 0
        print(f"{args.store}: {len(records)} record(s), "
              f"{store.current_bytes}/{store.capacity_bytes} bytes used")
        if stats.load_skipped:
            print(f"  ({stats.load_skipped} malformed record(s) skipped on load)")
        for rec in records:
            print(f"  {rec.plan[:12]}.. on {rec.machine}: dop={rec.dop} "
                  f"(x{rec.speedup:.1f} at run {rec.gme_run}/{rec.total_runs}, "
                  f"policy {rec.policy}, {rec.updates} instance(s))")
        return 0
    finally:
        store.close()


def _cmd_lint(args) -> int:
    dataset = _dataset(args)
    if args.plan_json:
        try:
            with open(args.plan_json) as handle:
                document = handle.read()
        except OSError as exc:
            raise ReproError(f"cannot read plan file: {exc}") from exc
        plan = plan_from_json(document, dataset.catalog)
        name = args.plan_json
    elif args.query:
        plan = dataset.plan(args.query)
        name = args.query
    else:
        plan = plan_sql(args.sql, dataset.catalog)
        name = "ad-hoc query"
    report = analyze_plan(plan)
    if args.json:
        import json

        from .analysis import report_document

        print(json.dumps(report_document(report, subject=name), indent=2))
    else:
        print(f"{name}: {report.summary()}")
        if report.diagnostics:
            print(report.format())
    from .analysis import exit_code

    return exit_code(report, strict=args.strict)


def _cmd_analyze(args) -> int:
    import json

    from .analysis import (
        Baseline,
        analyze_files,
        build_registry,
        default_package_path,
        exit_code,
        report_document,
    )

    paths = args.paths or [default_package_path()]
    report = analyze_files(paths)
    if args.write_baseline:
        baseline = Baseline.from_report(report)
        _emit(
            baseline.to_json(),
            args.write_baseline,
            "baseline",
            note=f"wrote {len(baseline.suppressions)} suppression(s) to "
            f"{args.write_baseline}",
        )
        return 0
    suppressed_count = 0
    if args.baseline:
        report, suppressed = Baseline.load(args.baseline).split(report)
        suppressed_count = len(suppressed)
    registry = None if args.no_registry else build_registry()
    if args.certificates and registry is not None:
        # Silent: with --json, stdout carries only the report.
        _emit(registry.to_json(), args.certificates, "certificates", note="")
    if args.json:
        extra = {"subject": "codebase", "suppressed": suppressed_count}
        if registry is not None:
            extra["certificates"] = registry.to_document()
        print(json.dumps(report_document(report, **extra), indent=2))
    else:
        print(f"codebase: {report.summary()}")
        if suppressed_count:
            print(f"  ({suppressed_count} finding(s) muted by baseline)")
        if report.diagnostics:
            print(report.format())
        if registry is not None:
            certs = registry.certificates()
            pure = sum(1 for c in certs if c.pure)
            views = sum(1 for c in certs if c.view_returning)
            print(
                f"certificates: {len(certs)} operator(s), {pure} pure, "
                f"{len(certs) - pure} refused, {views} view-returning"
            )
            for cert in certs:
                if not cert.pure:
                    issues = "; ".join(cert.issues)
                    print(f"  refused {cert.operator}: {issues}")
    return exit_code(report, strict=args.strict)


def _cmd_bench(args) -> int:
    if args.name == "list":
        for name, module in sorted(_EXPERIMENTS.items()):
            print(f"  {name}: repro.bench.experiments.{module}")
        for name in sorted(_REPORT_BENCHES):
            print(f"  {name}: repro.bench.{name} (writes BENCH_{name}.json)")
        return 0
    if args.name in _REPORT_BENCHES:
        return _cmd_report_bench(args)
    import importlib

    module = _EXPERIMENTS[args.name]
    importlib.import_module(f"repro.bench.experiments.{module}").run().report.print()
    return 0


def _cmd_report_bench(args) -> int:
    """``repro bench convergence|scaleout``: run, write, gate."""
    import json

    from .bench.gates import check_gates, parse_gate

    for gate in args.gate:
        parse_gate(gate)  # a malformed gate fails before the bench runs
    if args.name == "convergence":
        from .bench import convergence as bench
        from .viz.policies import render_policy_figure as render

        report = bench.run_convergence(quick=args.quick)
        print(bench.format_convergence_report(report))
    else:
        from .bench import scaleout as bench
        from .viz.scaleout import render_scaleout_figure as render

        nodes = bench.DEFAULT_NODES
        if args.nodes is not None:
            try:
                nodes = tuple(int(n) for n in args.nodes.split(",") if n.strip())
            except ValueError:
                raise ReproError(
                    f"--nodes wants comma-separated values, got {args.nodes!r}"
                ) from None
        report = bench.run_scaleout(quick=args.quick, nodes=nodes)
        print(bench.format_scaleout_report(report))
    # A quick run never lands on the committed full-mode report.
    output = args.output or f"BENCH_{args.name}{'_quick' if args.quick else ''}.json"
    _emit(json.dumps(report, indent=2), output, "report")
    if args.figure:
        _emit(render(report), args.figure, "figure")
    check_gates(report, args.gate, bench.INVARIANTS)
    return 0


def _cmd_chaos(args) -> int:
    from .chaos import CHAOS_HEAVY, CHAOS_LIGHT, FaultInjector
    from .concurrency import ClientSpec, ResilienceConfig, ResilientWorkload

    dataset = _dataset(args)
    config = _config(args, dataset).with_seed(args.seed)
    fault_plan = CHAOS_LIGHT if args.level == "light" else CHAOS_HEAVY
    serial = dataset.plan(args.query)
    plan = HeuristicParallelizer(config.effective_threads).parallelize(serial)

    print(f"chaos level: {args.level} "
          f"(exception {fault_plan.operator_exception_rate:.3f}, "
          f"straggler {fault_plan.straggler_rate:.3f}, "
          f"mem-pressure {fault_plan.mem_pressure_rate:.3f}, "
          f"disconnect {fault_plan.disconnect_rate:.3f})")

    workload = ResilientWorkload(
        config,
        [ClientSpec(name=f"c{i}", plans=[plan]) for i in range(args.clients)],
        horizon=args.horizon,
        faults=fault_plan,
        resilience=ResilienceConfig(timeout=args.timeout),
        workers=args.workers,
        backend=args.backend,
    )
    report = workload.run()
    print(f"workload: {args.clients} clients x {args.horizon:g}s simulated on "
          f"{args.query} -- {report.completed()} completed, "
          f"{report.throughput():.1f} q/s")
    print(f"  faults injected: {report.faults_injected} "
          f"(retries {report.retries}, timeouts {report.timeouts}, "
          f"disconnects {report.disconnects}, DOP sheds {report.shed_dop}, "
          f"abandoned {report.abandoned})")
    print(f"  admission: peak in-flight {report.peak_in_flight}, "
          f"waits {report.admission_waits}, "
          f"peak queue depth {report.peak_queue_depth}")
    if report.completed():
        print(f"  response: p50 {report.p50_response * 1000:.1f} ms, "
              f"p99 {report.p99_response * 1000:.1f} ms")
    else:
        print("  response: no queries completed inside the horizon")

    if args.no_adapt:
        return 0
    # The convergence half runs under the calibrated Figure-18 chaos
    # mix: service-preset exception rates abort roughly half of all
    # adaptive runs (hundreds of dispatches each), which no bounded
    # retry budget survives -- the workload layer absorbs those, the
    # adaptive driver must outlast a rarer hard-failure rate.
    from .bench.experiments.fig18_chaos import CHAOS_PLAN

    clean = AdaptiveParallelizer(config).optimize(serial)
    injector = FaultInjector(CHAOS_PLAN, seed=config.derive_seed("cli.chaos"))
    chaotic = AdaptiveParallelizer(config, faults=injector).optimize(serial)
    ratio = chaotic.gme_time / clean.gme_time
    print(f"adaptive convergence on {args.query}:")
    print(f"  fault-free: serial {clean.serial_time * 1000:.2f} ms -> "
          f"GME {clean.gme_time * 1000:.2f} ms (x{clean.speedup:.1f}) "
          f"at run {clean.gme_run}/{clean.total_runs}")
    print(f"  under chaos: serial {chaotic.serial_time * 1000:.2f} ms -> "
          f"GME {chaotic.gme_time * 1000:.2f} ms (x{chaotic.speedup:.1f}) "
          f"at run {chaotic.gme_run}/{chaotic.total_runs}, "
          f"{injector.stats.total} faults absorbed, "
          f"{chaotic.fault_retries} runs retried")
    print(f"  chaos GME / clean GME: {ratio:.2f}")
    return 0


def _observed_run(args):
    """Execute the requested query with an observer attached."""
    from .observe import Observer

    dataset = _dataset(args)
    config = _config(args, dataset)
    if args.query:
        plan = dataset.plan(args.query)
        name = args.query
    else:
        plan = plan_sql(args.sql, dataset.catalog)
        name = "ad-hoc query"
    observer = Observer(host_time=args.host_time)
    if args.adaptive:
        parallelizer = AdaptiveParallelizer(
            config, workers=args.workers, observe=observer
        )
        try:
            parallelizer.optimize(plan)
        finally:
            parallelizer.close()
    else:
        execute(plan, config, workers=args.workers, trace=observer)
    observer.finish()
    return name, observer


def _emit(text: str, out: str | None, what: str, *, note: str | None = None) -> None:
    """Print ``text``, or write it to ``out`` and print ``note``.

    ``note`` defaults to ``wrote OUT``; ``""`` prints nothing.  An
    unwritable ``out`` is a :class:`ReproError` naming ``what``, which
    the CLI reports as ``error: ...`` with exit code 1.
    """
    if out is None:
        print(text, end="" if text.endswith("\n") else "\n")
        return
    try:
        with open(out, "w") as handle:
            handle.write(text)
            if not text.endswith("\n"):
                handle.write("\n")
    except OSError as exc:
        raise ReproError(f"cannot write {what} to {out}: {exc}") from exc
    note = f"wrote {out}" if note is None else note
    if note:
        print(note)


def _cmd_trace(args) -> int:
    name, observer = _observed_run(args)
    if args.format == "chrome":
        text = observer.to_chrome_trace(trace_name=name)
    elif args.format == "jsonl":
        text = observer.to_jsonl()
    else:
        text = observer.canonical_json()
    _emit(text, args.out, f"{args.format} trace")
    return 0


def _cmd_metrics(args) -> int:
    __, observer = _observed_run(args)
    _emit(observer.to_prometheus(), args.out, "metrics")
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    try:
        return asyncio.run(_serve_async(args))
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        return 0


async def _http_get(host: str, port: int, path: str) -> str:
    """One-shot HTTP GET against our own server (scrape liveness)."""
    import asyncio

    reader, writer = await asyncio.open_connection(host, port)
    writer.write(f"GET {path} HTTP/1.1\r\nHost: {host}\r\n\r\n".encode())
    await writer.drain()
    data = await reader.read()
    writer.close()
    await writer.wait_closed()
    return data.partition(b"\r\n\r\n")[2].decode()


async def _serve_async(args) -> int:
    import asyncio
    import functools
    import json
    import signal
    from pathlib import Path

    from .serve import ReproServer, build_service, parse_tenants, preset

    if args.loadgen is not None and args.workload != "tpch":
        raise ReproError("--loadgen drives TPC-H statement mixes; use --workload tpch")
    if args.gate:
        from .bench.gates import check_gates, parse_gate

        if args.loadgen is None:
            raise ReproError("--gate needs --loadgen: it gates the loadgen report")
        for gate in args.gate:
            parse_gate(gate)  # a malformed gate fails before the load runs
    tenants = None
    if args.tenants is not None:
        # Read before the dataset is generated: a bad file fails fast.
        try:
            text = Path(args.tenants).read_text()
        except OSError as exc:
            raise ReproError(f"cannot read tenants file: {exc}") from exc
        tenants = parse_tenants(text)
    if args.workload == "tpch":
        dataset = TpchDataset(scale_factor=1 if args.sf is None else args.sf)
    else:
        dataset = TpcdsDataset(scale_factor=100 if args.sf is None else args.sf)
    config = _config(args, dataset)
    if args.seed is not None:
        config = config.with_seed(args.seed)
    server = ReproServer(
        config,
        dataset.catalog,
        tenants=tenants,
        host=args.host,
        port=args.port,
        workers=args.workers,
        backend=args.backend,
    )
    await server.start()
    print(f"serving on {server.host}:{server.port} "
          f"(tenants: {', '.join(s.name for s in server.directory)})")
    print(f"  metrics: http://{server.host}:{server.port}/metrics")

    if args.loadgen is None:
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        await stop.wait()
        print("shutting down...")
        await server.stop()
        return 0

    # Loadgen mode: the deterministic service runs on a worker thread
    # while this loop keeps answering /metrics scrapes -- live
    # observability of a byte-reproducible run.
    spec = preset(args.loadgen, chaos=args.chaos, seed=args.seed)
    service = build_service(
        spec,
        config=config.with_seed(spec.seed),
        catalog=dataset.catalog,
        workers=args.workers,
        backend=args.backend,
        metrics=server.metrics,
        metrics_lock=server.metrics_lock,
    )
    print(f"loadgen {spec.name}: {spec.total_clients} clients, "
          f"{len(spec.mixes)} tenants, chaos {spec.chaos}, seed {spec.seed}")
    loop = asyncio.get_running_loop()
    run = loop.run_in_executor(
        None, functools.partial(service.run, seed=spec.seed)
    )
    scrapes = 0
    while not run.done():
        await asyncio.sleep(0.05)
        text = await _http_get(server.host, server.port, "/metrics")
        if "repro_serve_" in text or text.startswith("#"):
            scrapes += 1
    report = await run
    text = await _http_get(server.host, server.port, "/metrics")
    if "repro_serve_" in text:
        scrapes += 1
    print(f"  /metrics answered {scrapes} scrape(s) during the run")
    print(report.format())
    doc = report.as_dict()
    try:
        if args.report is not None:
            _emit(json.dumps(doc, indent=2, sort_keys=True), args.report, "report")
    finally:
        await server.stop()
    if args.gate:
        check_gates(doc, args.gate)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "info":
            return _cmd_info()
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "adapt":
            return _cmd_adapt(args)
        if args.command == "learn":
            return _cmd_learn(args)
        if args.command == "lint":
            return _cmd_lint(args)
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "chaos":
            return _cmd_chaos(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "metrics":
            return _cmd_metrics(args)
        if args.command == "serve":
            return _cmd_serve(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
