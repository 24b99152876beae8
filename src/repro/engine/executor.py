"""One-shot plan execution facade."""

from __future__ import annotations

import os
from contextlib import nullcontext
from typing import Callable

from ..analysis.sanitize import Sanitizer
from ..chaos.faults import FaultPlan
from ..chaos.injector import FaultInjector
from ..config import SimulationConfig
from ..errors import PlanError
from ..observe import Observer
from ..plan.analysis import analyze_plan
from ..plan.graph import Plan
from .evalpool import EvalPool
from .memo import IntermediateCache
from .scheduler import ExecutionResult, Simulator


def _resolve_sanitize(sanitize: bool | None) -> bool:
    """Explicit argument wins; otherwise the ``REPRO_SANITIZE`` env var."""
    if sanitize is not None:
        return sanitize
    return os.environ.get("REPRO_SANITIZE", "").strip().lower() in (
        "1", "true", "yes", "on",
    )


def _resolve_faults(
    faults: FaultInjector | FaultPlan | None, config: SimulationConfig
) -> FaultInjector | None:
    """Accept a ready injector or a bare plan (seeded from the config)."""
    if faults is None:
        return None
    if isinstance(faults, FaultPlan):
        return FaultInjector(faults, seed=config.derive_seed("chaos"))
    return faults


def execute(
    plan: Plan,
    config: SimulationConfig | None = None,
    *,
    analyze: bool = False,
    memo: IntermediateCache | None = None,
    evalpool: EvalPool | None = None,
    workers: int | None = None,
    backend: str | None = None,
    faults: FaultInjector | FaultPlan | None = None,
    trace: Observer | None = None,
    sanitize: bool | None = None,
) -> ExecutionResult:
    """Run ``plan`` alone on a fresh simulated machine.

    Convenience wrapper used by examples, tests, and the adaptive driver;
    concurrent workloads build their own :class:`Simulator` instead.

    ``analyze=True`` is the debug mode: the static plan analyzer runs
    first and a plan with ``error`` diagnostics is refused with a
    :class:`~repro.errors.PlanError` carrying the full report, instead
    of executing to a silently wrong (or crashing) result.

    ``memo`` shares an :class:`~repro.engine.memo.IntermediateCache`
    across calls so repeated executions of structurally overlapping
    plans skip redundant host-side operator work; simulated results are
    identical with or without it.

    ``evalpool`` shares an :class:`~repro.engine.evalpool.EvalPool` that
    evaluates simultaneously-ready operators on host workers; passing
    ``workers=N`` (and/or ``backend=...``) instead spins up -- and tears
    down -- a pool for just this call.  ``backend`` selects where the
    parallel batches run: ``"inline"`` or ``"thread"`` (see
    :mod:`repro.engine.backends`); when only ``backend`` is given the
    worker count defaults to
    :func:`~repro.engine.evalpool.default_workers`.  Simulated results
    are bit-identical for any worker count and either backend.

    ``faults`` injects chaos: pass a
    :class:`~repro.chaos.faults.FaultPlan` (an injector is derived from
    the config seed) or a prepared
    :class:`~repro.chaos.injector.FaultInjector`.  Stragglers and
    memory-pressure spikes only perturb simulated timing; an injected
    operator exception aborts this execution with
    :class:`~repro.errors.InjectedFaultError` (retry policies live in
    the :mod:`repro.concurrency` service layer).

    ``trace`` attaches a :class:`~repro.observe.Observer`: the run's
    spans (submission, operator tasks, dispatch/eval/fault events) and
    metrics accumulate there.  The same observer may be reused across
    calls to correlate a sequence of executions on one timeline (see
    :attr:`repro.observe.Tracer.time_base`).  Tracing never changes
    simulated results and its canonical output is bit-identical for any
    ``workers`` value.

    ``sanitize=True`` (or ``REPRO_SANITIZE=1`` in the environment) runs
    the whole execution under the runtime sanitizer
    (:class:`~repro.analysis.sanitize.Sanitizer`): input buffers are
    checksummed around every evaluation batch, the dispatch-order commit
    barrier is verified, and every commit folds into a rolling trace
    fingerprint.  A violated invariant raises
    :class:`~repro.errors.SanitizerError`.  Host cost only -- simulated
    results are identical with or without it.
    """
    return _execute_alone(
        Simulator,
        plan,
        config if config is not None else SimulationConfig(),
        analyze=analyze,
        memo=memo,
        evalpool=evalpool,
        workers=workers,
        backend=backend,
        faults=faults,
        trace=trace,
        sanitize=sanitize,
    )


def _execute_alone(
    build: Callable[..., Simulator],
    plan: Plan,
    config: SimulationConfig,
    *,
    analyze: bool,
    memo: IntermediateCache | None,
    evalpool: EvalPool | None,
    workers: int | None,
    backend: str | None,
    faults: FaultInjector | FaultPlan | None,
    trace: Observer | None,
    sanitize: bool | None,
) -> ExecutionResult:
    """The one-shot run behind :func:`execute` and
    :func:`~repro.cluster.executor.cluster_execute`: ``build(config,
    **parts)`` makes the simulator that runs ``plan`` alone."""
    if analyze:
        report = analyze_plan(plan)
        if report.has_errors:
            raise PlanError(
                "refusing to execute a plan with analyzer errors:\n"
                + report.format()
            )
    injector = _resolve_faults(faults, config)
    sanitizer = Sanitizer() if _resolve_sanitize(sanitize) else None
    owned = evalpool is None and (
        backend is not None or (workers is not None and workers > 1)
    )
    scope = EvalPool(workers, backend=backend) if owned else nullcontext(evalpool)
    with scope as pool:
        simulator = build(
            config,
            memo=memo,
            evalpool=pool,
            faults=injector,
            observe=trace,
            sanitizer=sanitizer,
        )
        sid = simulator.submit(plan)
        simulator.run()
        if trace is not None and pool is not None:
            # Before an owned pool closes: its backend counters go with it.
            trace.record_pool(pool.stats())
        return simulator.result(sid)
