"""The adaptive parallelization driver end to end."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import SimulationConfig, laptop_machine
from repro.core import (
    AdaptiveParallelizer,
    ConvergenceParams,
    HeuristicParallelizer,
    PlanHistory,
    intermediates_equal,
)
from repro.engine import execute
from repro.errors import ConvergenceError
from repro.operators import RangePredicate
from repro.plan import PlanBuilder, validate_plan
from repro.storage import Catalog, LNG, Scalar, Table
from repro.storage.dtypes import DBL


@pytest.fixture()
def catalog(rng) -> Catalog:
    n = 20_000
    cat = Catalog()
    cat.add(
        Table.from_arrays(
            "t",
            {
                "a": (LNG, rng.integers(0, 1_000, n)),
                "b": (LNG, rng.integers(0, 100, n)),
            },
        )
    )
    return cat


@pytest.fixture()
def config() -> SimulationConfig:
    return SimulationConfig(machine=laptop_machine(8), data_scale=1000.0)


def make_plan(catalog):
    b = PlanBuilder(catalog)
    sel = b.select(b.scan("t", "a"), RangePredicate(hi=500))
    proj = b.fetch(sel, b.scan("t", "b"))
    return b.build(b.aggregate("sum", proj))


class TestOptimize:
    def test_converges_and_improves(self, catalog, config):
        result = AdaptiveParallelizer(config).optimize(make_plan(catalog))
        assert result.speedup > 2.0
        assert result.gme_time < result.serial_time
        assert result.total_runs >= 2
        validate_plan(result.best_plan)

    def test_best_plan_reproduces_gme_time(self, catalog, config):
        result = AdaptiveParallelizer(config).optimize(make_plan(catalog))
        replay = execute(result.best_plan, config.with_seed(config.seed + result.gme_run))
        assert replay.response_time == pytest.approx(result.gme_time, rel=1e-6)

    def test_verify_mode_checks_every_run(self, catalog, config):
        result = AdaptiveParallelizer(config, verify=True).optimize(make_plan(catalog))
        assert result.total_runs > 1  # verification never tripped

    def test_input_plan_untouched(self, catalog, config):
        plan = make_plan(catalog)
        before = len(plan.nodes())
        AdaptiveParallelizer(config).optimize(plan)
        assert len(plan.nodes()) == before

    def test_history_matches_convergence_records(self, catalog, config):
        result = AdaptiveParallelizer(config).optimize(make_plan(catalog))
        assert len(result.history) == result.total_runs
        assert result.history[0].exec_time == result.serial_time
        assert len(result.mutations) == result.total_runs - 1

    def test_lower_bound_on_runs(self, catalog, config):
        """Paper Section 3.3.4: lower bound is Number_Of_Cores + 1."""
        result = AdaptiveParallelizer(config).optimize(make_plan(catalog))
        cores = config.effective_threads
        assert result.total_runs >= cores + 1

    def test_custom_convergence_params(self, catalog, config):
        params = ConvergenceParams(number_of_cores=4, extra_runs=2, max_runs=30)
        result = AdaptiveParallelizer(config, convergence=params).optimize(
            make_plan(catalog)
        )
        assert result.total_runs <= 30

    def test_results_deterministic(self, catalog, config):
        r1 = AdaptiveParallelizer(config).optimize(make_plan(catalog))
        r2 = AdaptiveParallelizer(config).optimize(make_plan(catalog))
        assert r1.exec_times() == r2.exec_times()
        assert r1.gme_run == r2.gme_run

    def test_serial_plan_kept_when_parallelism_never_helps(self, config):
        """A one-row query cannot improve; AP must fall back to serial."""
        cat = Catalog()
        cat.add(Table.from_arrays("tiny", {"v": (LNG, np.arange(4))}))
        b = PlanBuilder(cat)
        plan = b.build(b.aggregate("sum", b.scan("tiny", "v")))
        result = AdaptiveParallelizer(config).optimize(plan)
        assert result.gme_run == 0
        assert result.gme_time == result.serial_time
        assert result.speedup == pytest.approx(1.0)

    def test_custom_runner_is_used(self, catalog, config):
        calls = []

        def runner(plan, run_index):
            calls.append(run_index)
            return execute(plan, config)

        AdaptiveParallelizer(config, runner=runner).optimize(make_plan(catalog))
        assert calls[0] == 0 and len(calls) >= 2


class TestOptimizeUnderChaos:
    """The adaptive driver with the chaos harness attached."""

    def _faults(self, exception_rate=0.0005):
        from repro.chaos import FaultPlan

        return FaultPlan(
            operator_exception_rate=exception_rate,
            straggler_rate=0.05,
            straggler_slowdown=4.0,
            mem_pressure_rate=0.03,
            mem_pressure_factor=3.0,
        )

    def test_converges_despite_faults(self, catalog, config):
        from repro.chaos import FaultInjector

        injector = FaultInjector(self._faults(), seed=17)
        result = AdaptiveParallelizer(config, faults=injector).optimize(
            make_plan(catalog)
        )
        assert injector.stats.total > 0
        assert result.gme_time < result.serial_time
        validate_plan(result.best_plan)

    def test_fault_plan_accepted_directly(self, catalog, config):
        result = AdaptiveParallelizer(
            config, faults=self._faults()
        ).optimize(make_plan(catalog))
        assert result.gme_time <= result.serial_time

    def test_injected_failures_are_retried_and_counted(self, catalog, config):
        from repro.chaos import FaultInjector

        # A high exception rate guarantees some runs abort and retry.
        injector = FaultInjector(self._faults(0.01), seed=3)
        result = AdaptiveParallelizer(
            config, faults=injector, fault_retries=50
        ).optimize(make_plan(catalog))
        assert result.fault_retries > 0
        assert injector.stats.operator_exceptions > 0

    def test_retry_budget_exhaustion_raises(self, catalog, config):
        from repro.chaos import FaultPlan

        certain_failure = FaultPlan(operator_exception_rate=1.0)
        with pytest.raises(ConvergenceError, match="fault retries"):
            AdaptiveParallelizer(
                config, faults=certain_failure, fault_retries=2
            ).optimize(make_plan(catalog))

    def test_chaos_outcome_deterministic(self, catalog, config):
        plan = make_plan(catalog)
        traces = []
        for __ in range(2):
            result = AdaptiveParallelizer(
                config, faults=self._faults()
            ).optimize(plan)
            traces.append(
                (result.exec_times(), result.gme_run, result.fault_retries)
            )
        assert traces[0] == traces[1]

    def test_invalid_fault_retries_rejected(self, config):
        with pytest.raises(ConvergenceError):
            AdaptiveParallelizer(config, fault_retries=-1)


class TestIntermediatesEqual:
    def test_scalars(self):
        assert intermediates_equal(Scalar(1, LNG), Scalar(1, LNG))
        assert not intermediates_equal(Scalar(1, LNG), Scalar(2, LNG))
        assert intermediates_equal(Scalar(1.0, DBL), Scalar(1.0 + 1e-15, DBL))

    def test_type_mismatch(self):
        from repro.storage import Candidates

        assert not intermediates_equal(Scalar(1, LNG), Candidates(np.array([1])))


class TestPlanHistory:
    def test_choose_prefers_best(self, catalog):
        history = PlanHistory()
        plan = make_plan(catalog)
        history.snapshot_serial(plan)
        history.snapshot_best(plan, run=3)
        assert history.choose() is history.best_plan
        assert history.best_run == 3

    def test_choose_falls_back_to_serial(self, catalog):
        history = PlanHistory()
        history.snapshot_serial(make_plan(catalog))
        assert history.choose() is history.serial_plan

    def test_choose_empty_raises(self):
        with pytest.raises(ConvergenceError):
            PlanHistory().choose()


class TestAgainstHeuristic:
    def test_ap_time_in_hp_ballpark(self, catalog, config):
        """Isolated execution: AP within ~3x of HP (paper: similar)."""
        plan = make_plan(catalog)
        ap = AdaptiveParallelizer(config).optimize(plan)
        hp = execute(HeuristicParallelizer(8).parallelize(plan), config)
        assert ap.gme_time <= hp.response_time * 3

    def test_ap_uses_fewer_operators_than_hp(self, catalog, config):
        plan = make_plan(catalog)
        ap = AdaptiveParallelizer(config).optimize(plan)
        hp_plan = HeuristicParallelizer(8).parallelize(plan)
        assert len(ap.best_plan.nodes()) <= len(hp_plan.nodes())


class TestAdaptiveOnSqlFeatures:
    def test_having_query_adapts_and_verifies(self, catalog, config):
        from repro.sql import plan_sql

        sql = (
            "SELECT a, COUNT(*) FROM t GROUP BY a "
            "HAVING COUNT(*) > 10 ORDER BY a"
        )
        plan = plan_sql(sql, catalog)
        result = AdaptiveParallelizer(config, verify=True).optimize(plan)
        validate_plan(result.best_plan)
        assert result.total_runs >= 2
