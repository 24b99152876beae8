"""The host evaluation pool and its determinism barrier.

The pool only changes *where* ``Operator.evaluate`` runs (which host
thread); the scheduler's dispatch-order commit keeps every simulated
observable -- results, per-run times, memo counters, GME choice --
bit-identical for any worker count.
"""

from __future__ import annotations

import threading

import pytest

from repro.bench.convergence import q1_style_plan as tpch_q1_style_plan
from repro.config import SimulationConfig, laptop_machine
from repro.core import AdaptiveParallelizer, ConvergenceParams
from repro.core.adaptive import intermediates_equal
from repro.engine import EvalPool, IntermediateCache, execute
from repro.engine.evalpool import MIN_PARALLEL_BATCH, default_workers
from repro.errors import ReproError
from repro.operators import RangePredicate
from repro.plan import PlanBuilder
from repro.workloads import JoinMicroWorkload, TpchDataset

WORKER_COUNTS = (1, 2, 8)


def q1_style_plan(catalog):
    builder = PlanBuilder(catalog)
    sel = builder.select(builder.scan("facts", "val"), RangePredicate(hi=700))
    proj = builder.fetch(sel, builder.scan("facts", "qty"))
    return builder.build(builder.aggregate("sum", proj))


class TestEvalPool:
    def test_results_in_submission_order(self):
        with EvalPool(4) as pool:
            jobs = [lambda i=i: i * i for i in range(32)]
            assert pool.run_batch(jobs) == [i * i for i in range(32)]

    def test_single_worker_runs_inline(self):
        with EvalPool(1) as pool:
            main = threading.get_ident()
            seen = pool.run_batch([threading.get_ident for _ in range(8)])
            assert set(seen) == {main}
            assert pool.stats().parallel_batches == 0

    def test_small_batches_stay_inline(self):
        with EvalPool(4) as pool:
            pool.run_batch([lambda: 1] * (MIN_PARALLEL_BATCH - 1))
            stats = pool.stats()
            assert stats.parallel_batches == 0
            assert stats.inline_jobs == MIN_PARALLEL_BATCH - 1

    def test_exceptions_surface_in_submission_order(self):
        def boom_a():
            raise ValueError("a")

        def boom_b():
            raise KeyError("b")

        with EvalPool(4) as pool:
            with pytest.raises(ValueError):
                pool.run_batch([boom_a, boom_b, lambda: 3])

    def test_stats_snapshot_is_frozen(self):
        with EvalPool(2) as pool:
            pool.run_batch([lambda: 1, lambda: 2, lambda: 3])
            stats = pool.stats()
            with pytest.raises(AttributeError):
                stats.jobs = 0  # type: ignore[misc]
            assert stats.jobs == 3
            assert stats.max_batch == 3

    def test_default_workers_positive(self):
        assert default_workers() >= 1

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ReproError):
            EvalPool(0)


class TestSimulatorDeterminism:
    def test_single_execution_identical_across_workers(
        self, small_catalog, sim_config
    ):
        baseline = execute(q1_style_plan(small_catalog), sim_config)
        for workers in WORKER_COUNTS[1:]:
            result = execute(
                q1_style_plan(small_catalog), sim_config, workers=workers
            )
            assert result.response_time == baseline.response_time
            assert intermediates_equal(result.outputs[0], baseline.outputs[0])

    def test_memo_counters_identical_across_workers(self, small_catalog, sim_config):
        traces = []
        for workers in WORKER_COUNTS:
            memo = IntermediateCache()
            execute(
                q1_style_plan(small_catalog), sim_config, memo=memo, workers=workers
            )
            execute(
                q1_style_plan(small_catalog), sim_config, memo=memo, workers=workers
            )
            traces.append(memo.stats())
        assert traces[0] == traces[1] == traces[2]
        assert traces[0].hits > 0


def adaptive_trace(plan_factory, config, workers):
    ap = AdaptiveParallelizer(
        config,
        convergence=ConvergenceParams(number_of_cores=8, max_runs=10),
        workers=workers,
    )
    try:
        result = ap.optimize(plan_factory())
        memo_stats = ap.memo.stats() if ap.memo is not None else None
        return result, memo_stats
    finally:
        ap.close()


class TestAdaptiveDeterminism:
    """Seeded adaptive instances are bit-identical at workers=1, 2, 8."""

    def check(self, plan_factory, config):
        results = {
            w: adaptive_trace(plan_factory, config, w) for w in WORKER_COUNTS
        }
        base, base_memo = results[WORKER_COUNTS[0]]
        # Node ids are allocated from a process-global counter, so
        # compare the multiset of structural fingerprints, not the
        # nid-keyed dict.
        base_fp = sorted(base.best_plan.fingerprints().values())
        for workers in WORKER_COUNTS[1:]:
            result, memo_stats = results[workers]
            assert result.exec_times() == base.exec_times()
            assert result.gme_run == base.gme_run
            assert result.gme_time == base.gme_time
            assert result.total_runs == base.total_runs
            assert sorted(result.best_plan.fingerprints().values()) == base_fp
            assert memo_stats == base_memo

    def test_q1_style_tpch(self):
        dataset = TpchDataset(scale_factor=1)
        self.check(
            lambda: tpch_q1_style_plan(dataset), dataset.sim_config(seed=7)
        )

    def test_figure15_join_micro(self):
        workload = JoinMicroWorkload(outer_mb=64, inner_mb=16)
        self.check(workload.plan, workload.sim_config(seed=11))

    def test_adaptive_outputs_identical(self, small_catalog):
        config = SimulationConfig(machine=laptop_machine(8), data_scale=100.0)
        outputs = []
        for workers in WORKER_COUNTS:
            ap = AdaptiveParallelizer(
                config,
                convergence=ConvergenceParams(number_of_cores=8, max_runs=6),
                workers=workers,
            )
            try:
                result = ap.optimize(q1_style_plan(small_catalog))
            finally:
                ap.close()
            final = execute(result.best_plan, config)
            outputs.append(final.outputs[0])
        assert intermediates_equal(outputs[0], outputs[1])
        assert intermediates_equal(outputs[0], outputs[2])
