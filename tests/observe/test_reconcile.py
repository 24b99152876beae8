"""Reconciliation: the registry agrees with the legacy stat shims.

The metrics registry did not replace ``CacheStats``/``PoolStats``/
``FaultStats``/``WorkloadReport`` -- they stay as compatibility shims.
These tests pin the contract that both views of one run are the same
numbers.
"""

from __future__ import annotations

import pytest

from repro.chaos import CHAOS_LIGHT
from repro.cluster import ScaleoutWorkload, cluster_execute
from repro.concurrency import ClientSpec, ResilienceConfig, ResilientWorkload
from repro.core import AdaptiveParallelizer, ConvergenceParams
from repro.engine import execute
from repro.observe import Observer
from repro.workloads import JoinMicroWorkload


@pytest.fixture()
def micro() -> JoinMicroWorkload:
    return JoinMicroWorkload(outer_mb=16, inner_mb=4)


def test_task_metrics_match_profile(micro):
    observer = Observer()
    result = execute(micro.plan(), micro.sim_config(), trace=observer)
    metrics = observer.metrics.collect()
    records = result.profile.records

    task_counts = {
        key: value
        for key, value in metrics.items()
        if key.startswith("repro_tasks_total")
    }
    assert sum(task_counts.values()) == len(records)

    by_kind = result.profile.time_by_kind()
    for kind, seconds in by_kind.items():
        assert metrics[f'repro_task_sim_seconds_total{{kind="{kind}"}}'] == (
            pytest.approx(seconds)
        )
    histogram = metrics["repro_task_sim_seconds"]
    assert histogram["count"] == len(records)
    assert histogram["sum"] == pytest.approx(sum(by_kind.values()))
    assert metrics["repro_submissions_total"] == 1.0
    assert metrics["repro_submissions_completed_total"] == 1.0


def test_memo_counters_match_cache_stats(micro):
    observer = Observer()
    config = micro.sim_config()
    parallelizer = AdaptiveParallelizer(
        config,
        convergence=ConvergenceParams(
            number_of_cores=config.effective_threads, max_runs=4
        ),
        observe=observer,
    )
    try:
        parallelizer.optimize(micro.plan())
    finally:
        parallelizer.close()
    stats = parallelizer.memo.stats()
    metrics = observer.metrics.collect()
    assert metrics["repro_memo_hits_total"] == stats.hits
    assert metrics["repro_memo_misses_total"] == stats.misses
    assert metrics["repro_memo_insertions_total"] == stats.insertions
    assert metrics.get("repro_memo_evictions_total", 0.0) == stats.evictions
    assert stats.hits > 0  # adaptive reruns share almost the whole plan


def test_pool_gauges_match_pool_stats(micro):
    observer = Observer()
    execute(micro.plan(), micro.sim_config(), workers=2, trace=observer)
    metrics = observer.metrics.collect()
    # record_pool publishes the PoolStats dict verbatim as host gauges,
    # and every run_batch call also feeds the batch-size histogram.
    assert metrics["repro_pool_batches"] == (
        metrics["repro_pool_batch_jobs"]["count"]
    )
    assert metrics["repro_pool_jobs"] == metrics["repro_pool_batch_jobs"]["sum"]
    assert 0 <= metrics["repro_pool_inline_jobs"] <= metrics["repro_pool_jobs"]
    assert metrics["repro_pool_max_batch"] >= 1
    # Host families never leak into canonical output.
    canonical = observer.metrics.collect(host=False)
    assert not any(key.startswith("repro_pool_") for key in canonical)


def test_owned_thread_pools_export_shipped_jobs(micro):
    # ``shipped_jobs`` is a thread-backend counter that vanishes when
    # the pool closes, so a pool owned by one call must be recorded
    # before it closes -- by ``execute`` and ``cluster_execute`` alike.
    observer = Observer()
    execute(
        micro.plan(), micro.sim_config(), workers=2, backend="thread",
        trace=observer,
    )
    assert observer.metrics.collect()["repro_pool_shipped_jobs"] > 0
    workload = ScaleoutWorkload(tuples_m=10)
    cluster = workload.cluster(3, threads=4)
    observer = Observer()
    cluster_execute(
        workload.plan(workload.sharded(3)), cluster,
        workload.sim_config(cluster), workers=2, backend="thread",
        trace=observer,
    )
    assert observer.metrics.collect()["repro_pool_shipped_jobs"] > 0


def test_service_counters_match_workload_report(micro):
    observer = Observer()
    config = micro.sim_config()
    service = ResilientWorkload(
        config,
        [ClientSpec(f"c{i}", [micro.plan()], max_queries=3) for i in range(3)],
        horizon=2.0,
        faults=CHAOS_LIGHT,
        resilience=ResilienceConfig(timeout=0.05),
        observe=observer,
    )
    report = service.run()
    metrics = observer.metrics.collect()

    def count(name: str) -> float:
        return metrics.get(f"repro_service_{name}_total", 0.0)

    assert count("retry") == report.retries
    assert count("timeout") == report.timeouts
    assert count("disconnect") == report.disconnects
    assert count("shed_dop") == report.shed_dop
    assert count("abandon") == report.abandoned
    assert count("admission_wait") == report.admission_waits
    assert metrics["repro_service_peak_in_flight"] == report.peak_in_flight
    assert metrics["repro_service_peak_queue_depth"] == report.peak_queue_depth

    injected = sum(
        value
        for key, value in metrics.items()
        if key.startswith("repro_faults_injected_total")
    )
    assert injected == report.faults_injected

    fault_spans = [s for s in observer.tracer.spans if s.kind == "fault"]
    # Fault spans cover dispatch-level faults; client disconnects are
    # drawn at submission time and surface as service events instead.
    assert len(fault_spans) == report.faults_injected - report.disconnects
