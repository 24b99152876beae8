"""Host wall-clock benchmark: memoization and the evaluation pool.

Everything else in :mod:`repro.bench` measures *simulated* time; this
module measures how long the host actually takes to drive a full
adaptive-parallelization instance (tens to hundreds of runs over the
same query), along three axes that must all be invisible to the
simulation:

* the cross-run :class:`~repro.engine.memo.IntermediateCache` (cold
  versus warm),
* the :class:`~repro.engine.evalpool.EvalPool` worker count (a sweep
  over ``--workers``), and
* the evaluation **backend** (a sweep over ``--backend``: ``inline``
  or ``thread``, whose threads share the GIL -- see
  :mod:`repro.engine.backends`).

Because none of these layers may change what the simulation observes,
the benchmark cross-checks that every instance produces identical
per-run execution times, the same GME plan (by structural fingerprint),
and equal query outputs -- a speedup that changed the results would be
a bug, not a win.

Results are written as JSON (``BENCH_wallclock.json``); see
``docs/perf.md`` for how to read them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Sequence

import numpy as np

from ..config import SimulationConfig
from ..core import AdaptiveParallelizer, ConvergenceParams
from ..core.adaptive import AdaptiveResult, intermediates_equal
from ..engine import execute
from ..engine.backends import DEFAULT_BACKEND, resolve_backend_name
from ..engine.evalpool import default_workers
from ..errors import ReproError
from ..operators import Calc, Fetch, GroupAggregate, RangePredicate, Scan, Select
from ..plan import Plan
from ..workloads import JoinMicroWorkload, TpchDataset

#: Schema tag so downstream tooling can detect format changes.  v2
#: added the evaluation-pool worker sweep and per-stage host timings;
#: v3 adds the backend dimension (cold runs carry a ``backend``, the
#: report carries ``backends_swept`` and per-backend ``worker_speedup``);
#: v4 adds the convergence-cost metrics ``runs_to_gme`` and
#: ``total_work_ms`` per workload (shared with ``bench convergence``).
SCHEMA = "repro/bench_wallclock/v4"

#: True on every report (see :func:`repro.bench.gates.check_gates`): no
#: backend, worker count or cache changed what the simulation observed.
INVARIANTS = ("summary.all_identical",)


def q1_style_plan(dataset: TpchDataset) -> Plan:
    """A TPC-H Q1-style aggregation over lineitem.

    Date-range select, three fetches, an arithmetic calc, and two
    grouped aggregates over a low-cardinality key -- the classic
    scan-heavy reporting shape Q1 exercises (the generated lineitem has
    no returnflag/linestatus, so ``l_tax`` serves as the group key).
    """
    cat = dataset.catalog
    shipdate = cat.column("lineitem", "l_shipdate")
    # Data-driven cutoff at ~70% selectivity keeps the plan meaningful
    # at every scale factor without hard-coding the date encoding.
    cutoff = float(np.percentile(shipdate.values, 70))
    plan = Plan()

    def scan(table: str, column: str):
        return plan.add(Scan(cat.column(table, column)), label=f"{table}.{column}")

    cands = plan.add(
        Select(RangePredicate(hi=cutoff, hi_inclusive=False)),
        [scan("lineitem", "l_shipdate")],
    )
    keys = plan.add(Fetch(), [cands, scan("lineitem", "l_tax")])
    price = plan.add(Fetch(), [cands, scan("lineitem", "l_extendedprice")])
    disc = plan.add(Fetch(), [cands, scan("lineitem", "l_discount")])
    volume = plan.add(Calc("*"), [price, disc])
    sums = plan.add(GroupAggregate("sum"), [keys, volume])
    counts = plan.add(GroupAggregate("count"), [keys])
    plan.set_outputs([sums, counts])
    return plan


@dataclass
class WorkloadSpec:
    """One benchmark workload: a plan plus how to run it adaptively."""

    name: str
    build: Callable[[], tuple[Plan, SimulationConfig]]
    max_runs: int


def _specs(quick: bool) -> list[WorkloadSpec]:
    def tpch() -> tuple[Plan, SimulationConfig]:
        # Quick mode keeps generation cheap for CI; full mode uses
        # enough rows that per-run operator work dominates scheduling
        # overhead, which is what the cache can remove.
        dataset = TpchDataset(scale_factor=1 if quick else 120)
        return q1_style_plan(dataset), dataset.sim_config(seed=29)

    def join() -> tuple[Plan, SimulationConfig]:
        micro = JoinMicroWorkload(outer_mb=640 if quick else 3200, inner_mb=16)
        return micro.plan(), micro.sim_config(seed=31)

    limit = 60 if quick else 500
    return [
        WorkloadSpec("tpch_q1_style", tpch, limit),
        WorkloadSpec("join_micro", join, limit),
    ]


def resolve_workers(workers: Sequence[int] | None) -> tuple[int, ...]:
    """The worker counts to sweep (always starting at 1, deduplicated).

    ``None`` sweeps ``1`` and the host CPU count -- on a single-core
    host that collapses to just ``(1,)``.
    """
    if workers is None:
        counts = [1, default_workers()]
    else:
        counts = [1, *workers]
    seen: list[int] = []
    for count in counts:
        count = int(count)
        if count < 1:
            raise ReproError(f"worker counts must be >= 1, got {count}")
        if count not in seen:
            seen.append(count)
    return tuple(sorted(seen))


def resolve_backends(backends: Sequence[str] | None) -> tuple[str, ...]:
    """The evaluation backends to sweep (validated, deduplicated).

    ``None`` sweeps only the default backend.  Unknown names raise
    :class:`~repro.errors.BackendUnavailableError` up front rather than
    mid-benchmark.
    """
    names = [DEFAULT_BACKEND] if backends is None else list(backends)
    resolved: list[str] = []
    for name in names:
        name = resolve_backend_name(name)
        if name not in resolved:
            resolved.append(name)
    return tuple(resolved)


@dataclass
class ColdRun:
    """One uncached adaptive instance at a fixed backend x worker count."""

    workers: int
    seconds: float
    backend: str = "inline"
    pool: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "workers": self.workers,
            "backend": self.backend,
            "seconds": round(self.seconds, 4),
            "pool": self.pool,
        }


@dataclass
class WorkloadOutcome:
    """Cold-sweep plus warm measurement of one workload."""

    name: str
    total_runs: int
    serial_ms: float
    gme_ms: float
    gme_run: int
    sim_speedup: float
    cold_runs: list[ColdRun]
    warm_seconds: float
    warm_workers: int
    warm_backend: str
    build_seconds: float
    cache: dict = field(default_factory=dict)
    identical: bool = False
    #: Runs until execution first entered the GME band (learning cost).
    runs_to_gme: int = 0
    #: Total simulated milliseconds across every adaptive run.
    total_work_ms: float = 0.0

    @property
    def cold_seconds(self) -> float:
        """The single-threaded uncached time (the sweep baseline)."""
        return self.cold_runs[0].seconds

    @property
    def wallclock_speedup(self) -> float:
        return self.cold_seconds / self.warm_seconds if self.warm_seconds else 0.0

    def worker_speedup_by_backend(self) -> dict[str, float]:
        """Uncached workers=1 over each backend's best parallel run."""
        speedups: dict[str, float] = {}
        for run in self.cold_runs:
            if run.workers == 1:
                continue
            current = speedups.get(run.backend, 0.0)
            speedup = self.cold_seconds / run.seconds if run.seconds else 0.0
            if speedup > current:
                speedups[run.backend] = speedup
        return speedups

    @property
    def worker_speedup(self) -> float:
        """The best parallel speedup over any swept backend."""
        by_backend = self.worker_speedup_by_backend()
        return max(by_backend.values()) if by_backend else 0.0

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "total_runs": self.total_runs,
            "serial_ms": round(self.serial_ms, 4),
            "gme_ms": round(self.gme_ms, 4),
            "gme_run": self.gme_run,
            "runs_to_gme": self.runs_to_gme,
            "total_work_ms": round(self.total_work_ms, 4),
            "sim_speedup": round(self.sim_speedup, 3),
            "stages": {
                "build_seconds": round(self.build_seconds, 4),
                "cold_seconds": round(self.cold_seconds, 4),
                "warm_seconds": round(self.warm_seconds, 4),
            },
            "cold": [run.as_dict() for run in self.cold_runs],
            "cold_seconds": round(self.cold_seconds, 4),
            "warm_seconds": round(self.warm_seconds, 4),
            "warm_workers": self.warm_workers,
            "warm_backend": self.warm_backend,
            "wallclock_speedup": round(self.wallclock_speedup, 3),
            "worker_speedup": round(self.worker_speedup, 3),
            "worker_speedup_by_backend": {
                backend: round(speedup, 3)
                for backend, speedup in sorted(
                    self.worker_speedup_by_backend().items()
                )
            },
            "cache": self.cache,
            "identical": self.identical,
        }


def _traces_equal(a: AdaptiveResult, b: AdaptiveResult) -> bool:
    """Same simulated trace: times, GME choice, and best-plan shape."""
    if a.exec_times() != b.exec_times():
        return False
    if (a.gme_run, a.gme_time, a.total_runs) != (b.gme_run, b.gme_time, b.total_runs):
        return False
    a_fps = [out.fingerprint() for out in a.best_plan.outputs]
    b_fps = [out.fingerprint() for out in b.best_plan.outputs]
    return a_fps == b_fps


def _identical(
    baseline: AdaptiveResult, other: AdaptiveResult, config: SimulationConfig
) -> bool:
    """Nothing the simulation can observe changed, outputs included."""
    if not _traces_equal(baseline, other):
        return False
    base_out = execute(baseline.best_plan, config).outputs
    other_out = execute(other.best_plan, config).outputs
    return len(base_out) == len(other_out) and all(
        intermediates_equal(a, b) for a, b in zip(base_out, other_out)
    )


def _measure(
    spec: WorkloadSpec,
    worker_counts: Sequence[int],
    backends: Sequence[str],
) -> WorkloadOutcome:
    build_start = perf_counter()
    plan, config = spec.build()
    build_s = perf_counter() - build_start
    convergence = ConvergenceParams(
        number_of_cores=config.effective_threads, max_runs=spec.max_runs
    )

    def instance(
        memoize: bool, workers: int, backend: str | None
    ) -> tuple[AdaptiveResult, float, dict, dict]:
        parallelizer = AdaptiveParallelizer(
            config,
            convergence=convergence,
            memoize=memoize,
            workers=workers,
            backend=backend if workers > 1 else None,
        )
        try:
            start = perf_counter()
            result = parallelizer.optimize(plan)
            seconds = perf_counter() - start
            # Snapshot before close: backend-specific counters are
            # dropped once the backend is released.
            pool_stats = (
                parallelizer.evalpool.stats().as_dict()
                if parallelizer.evalpool is not None
                else {}
            )
            cache_stats = (
                parallelizer.memo.stats().as_dict()
                if parallelizer.memo is not None
                else {}
            )
            return result, seconds, pool_stats, cache_stats
        finally:
            parallelizer.close()

    # Cold sweep first (workers ascending, workers=1 measured once --
    # every backend evaluates inline there) so the warm instance cannot
    # ride the OS page cache of freshly generated data more than any
    # cold one did.
    cold_runs: list[ColdRun] = []
    cold_results: list[AdaptiveResult] = []
    base_res, base_s, __, __ = instance(memoize=False, workers=1, backend=None)
    cold_runs.append(ColdRun(workers=1, backend="inline", seconds=base_s))
    cold_results.append(base_res)
    for backend in backends:
        for workers in worker_counts:
            if workers == 1:
                continue
            res, seconds, pool_stats, __ = instance(
                memoize=False, workers=workers, backend=backend
            )
            cold_runs.append(
                ColdRun(
                    workers=workers,
                    backend=backend,
                    seconds=seconds,
                    pool=pool_stats,
                )
            )
            cold_results.append(res)

    warm_workers = worker_counts[-1]
    warm_backend = backends[-1] if warm_workers > 1 else "inline"
    warm_res, warm_s, __, warm_cache = instance(
        memoize=True, workers=warm_workers, backend=backends[-1]
    )

    # One identity verdict covers all three axes: every cold backend x
    # worker-count combination must match the workers=1 trace exactly,
    # and the warm (memoized) instance must match it down to the query
    # outputs.
    identical = all(
        _traces_equal(cold_results[0], other) for other in cold_results[1:]
    ) and _identical(cold_results[0], warm_res, config)

    return WorkloadOutcome(
        name=spec.name,
        total_runs=warm_res.total_runs,
        serial_ms=warm_res.serial_time * 1000,
        gme_ms=warm_res.gme_time * 1000,
        gme_run=warm_res.gme_run,
        sim_speedup=warm_res.speedup,
        cold_runs=cold_runs,
        warm_seconds=warm_s,
        warm_workers=warm_workers,
        warm_backend=warm_backend,
        build_seconds=build_s,
        cache=warm_cache,
        identical=identical,
        runs_to_gme=warm_res.runs_to_gme,
        total_work_ms=warm_res.total_work * 1000,
    )


def run_wallclock(
    quick: bool = False,
    workers: Sequence[int] | None = None,
    backends: Sequence[str] | None = None,
) -> dict:
    """Sweep every workload over backends x worker counts; JSON report."""
    counts = resolve_workers(workers)
    names = resolve_backends(backends)
    outcomes = [_measure(spec, counts, names) for spec in _specs(quick)]
    by_backend: dict[str, float] = {}
    for outcome in outcomes:
        for backend, speedup in outcome.worker_speedup_by_backend().items():
            if backend not in by_backend or speedup < by_backend[backend]:
                by_backend[backend] = speedup
    return {
        "schema": SCHEMA,
        "quick": quick,
        "host_cpus": default_workers(),
        "workers_swept": list(counts),
        "backends_swept": list(names),
        "workloads": [o.as_dict() for o in outcomes],
        "summary": {
            "min_wallclock_speedup": round(
                min(o.wallclock_speedup for o in outcomes), 3
            ),
            "min_worker_speedup": round(
                min(o.worker_speedup for o in outcomes), 3
            ),
            "worker_speedup_by_backend": {
                backend: round(speedup, 3)
                for backend, speedup in sorted(by_backend.items())
            },
            "max_worker_slowdown": round(
                max(
                    run.seconds / o.cold_seconds if o.cold_seconds else 1.0
                    for o in outcomes
                    for run in o.cold_runs
                ),
                3,
            ),
            "min_hit_rate": round(min(o.cache["hit_rate"] for o in outcomes), 4),
            "all_identical": all(o.identical for o in outcomes),
        },
    }


def format_report(report: dict) -> str:
    """Human-readable rendering of a wall-clock report."""
    swept = ",".join(str(w) for w in report["workers_swept"])
    backends = ",".join(report.get("backends_swept", ["thread"]))
    lines = [
        f"wall-clock benchmark ({'quick' if report['quick'] else 'full'} mode, "
        f"workers {swept} x backends {backends} on a "
        f"{report['host_cpus']}-cpu host)"
    ]
    for w in report["workloads"]:
        cold = " ".join(
            f"{run['backend']}:w{run['workers']}={run['seconds']:.2f}s"
            for run in w["cold"]
        )
        by_backend = " ".join(
            f"{backend} x{speedup:.2f}"
            for backend, speedup in w.get(
                "worker_speedup_by_backend", {}
            ).items()
        )
        lines.append(
            f"  {w['name']}: {w['total_runs']} runs, cold [{cold}] -> "
            f"warm {w['warm_seconds']:.2f}s "
            f"(memo x{w['wallclock_speedup']:.2f}, "
            f"pool {by_backend or 'n/a'}), "
            f"hit rate {w['cache']['hit_rate']:.1%}, "
            f"identical={'yes' if w['identical'] else 'NO'}"
        )
        if "runs_to_gme" in w:
            lines.append(
                f"    convergence: GME band entered at run {w['runs_to_gme']}"
                f"/{w['total_runs']}, total simulated work "
                f"{w['total_work_ms']:.1f} ms"
            )
        # Batch-shape ratios of the first pooled cold run: how much of
        # the dispatch stream actually fanned out versus staying inline.
        pooled = next((run for run in w["cold"] if run.get("pool")), None)
        if pooled is not None:
            pool = pooled["pool"]
            batches = pool.get("batches", 0)
            jobs = pool.get("jobs", 0)
            if batches:
                parallel_pct = pool.get("parallel_batches", 0) / batches
                inline_pct = pool.get("inline_jobs", 0) / jobs if jobs else 0.0
                lines.append(
                    f"    pool batches ({pooled['backend']}:w"
                    f"{pooled['workers']}): {batches} total, "
                    f"{parallel_pct:.1%} parallel; "
                    f"{inline_pct:.1%} of jobs evaluated inline"
                )
    s = report["summary"]
    lines.append(
        f"  summary: min memo speedup x{s['min_wallclock_speedup']:.2f}, "
        f"min pool speedup x{s['min_worker_speedup']:.2f}, "
        f"min hit rate {s['min_hit_rate']:.1%}, "
        f"all identical={'yes' if s['all_identical'] else 'NO'}"
    )
    return "\n".join(lines)
