"""Concurrent workload simulation and the Vectorwise baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import VectorwiseSystem
from repro.chaos import FaultPlan
from repro.concurrency import ClientSpec, ConcurrentWorkload, ResilientWorkload
from repro.config import SimulationConfig, laptop_machine
from repro.core import HeuristicParallelizer
from repro.engine import execute
from repro.errors import ReproError
from repro.operators import RangePredicate
from repro.plan import Plan, PlanBuilder
from repro.storage import Catalog, LNG, Table


@pytest.fixture()
def catalog(rng) -> Catalog:
    cat = Catalog()
    cat.add(
        Table.from_arrays(
            "t",
            {
                "a": (LNG, rng.integers(0, 1000, 30_000)),
                "b": (LNG, rng.integers(0, 100, 30_000)),
            },
        )
    )
    return cat


@pytest.fixture()
def config() -> SimulationConfig:
    return SimulationConfig(machine=laptop_machine(8), data_scale=500.0)


def make_plan(catalog):
    b = PlanBuilder(catalog)
    sel = b.select(b.scan("t", "a"), RangePredicate(hi=500))
    proj = b.fetch(sel, b.scan("t", "b"))
    return b.build(b.aggregate("sum", proj))


class TestConcurrentWorkload:
    def test_closed_loop_completes_queries(self, catalog, config):
        plan = HeuristicParallelizer(4).parallelize(make_plan(catalog))
        workload = ConcurrentWorkload(
            config,
            [ClientSpec(name=f"c{i}", plans=[plan]) for i in range(4)],
            horizon=2.0,
        )
        report = workload.run()
        assert report.completed() > 4
        for i in range(4):
            assert report.mean_response(f"c{i}") > 0

    def test_contention_slows_queries_down(self, catalog, config):
        plan = HeuristicParallelizer(8).parallelize(make_plan(catalog))
        solo = execute(plan, config).response_time
        workload = ConcurrentWorkload(
            config,
            [ClientSpec(name=f"c{i}", plans=[plan]) for i in range(8)],
            horizon=2.0,
        )
        report = workload.run()
        mean = float(np.mean([t for v in report.by_client.values() for t in v]))
        assert mean > solo

    def test_measure_plan_under_load_slower_than_isolated(self, catalog, config):
        plan = HeuristicParallelizer(8).parallelize(make_plan(catalog))
        solo = execute(plan, config).response_time
        workload = ConcurrentWorkload(
            config,
            [ClientSpec(name=f"c{i}", plans=[plan]) for i in range(8)],
            horizon=5.0,
        )
        probe = workload.measure_plan(make_plan(catalog))
        assert probe.response_time > 0
        loaded = workload.measure_plan(plan)
        assert loaded.response_time > solo

    def test_measure_plan_submits_the_probe_after_warmup(self, catalog, config):
        # Regression: the probe used to go in at the first idle instant
        # of the event loop (~0.1 ms), not after ``warmup`` seconds.
        plan = HeuristicParallelizer(8).parallelize(make_plan(catalog))
        workload = ConcurrentWorkload(
            config,
            [ClientSpec(name=f"c{i}", plans=[plan]) for i in range(8)],
            horizon=5.0,
        )
        probe = workload.measure_plan(plan, warmup=0.5)
        assert probe.profile.submit_time == pytest.approx(0.5)

    def test_max_queries_limit(self, catalog, config):
        plan = make_plan(catalog)
        workload = ConcurrentWorkload(
            config,
            [ClientSpec(name="c0", plans=[plan], max_queries=3)],
            horizon=100.0,
        )
        report = workload.run()
        assert report.completed("c0") == 3

    def test_throughput_positive(self, catalog, config):
        plan = make_plan(catalog)
        workload = ConcurrentWorkload(
            config, [ClientSpec(name="c0", plans=[plan])], horizon=1.0
        )
        assert workload.run().throughput() > 0

    def test_throughput_uses_actual_span_when_run_ends_early(
        self, catalog, config
    ):
        # Regression: a run bounded by ``max_queries`` ends long before
        # the configured horizon; throughput must be computed over the
        # actual last-completion time, not the (here absurdly large)
        # horizon.
        plan = make_plan(catalog)
        workload = ConcurrentWorkload(
            config,
            [ClientSpec(name="c0", plans=[plan], max_queries=3)],
            horizon=100.0,
        )
        report = workload.run()
        assert 0 < report.last_completion < report.horizon
        assert report.elapsed == report.last_completion
        assert report.throughput() == pytest.approx(3 / report.last_completion)
        # The old horizon-based rate would be ~3/100; the real rate is
        # orders of magnitude higher.
        assert report.throughput() > 3 / report.horizon * 10

    def test_submissions_share_the_templates(self, catalog, config, monkeypatch):
        plan = HeuristicParallelizer(4).parallelize(make_plan(catalog))
        clients = [ClientSpec(name=f"c{i}", plans=[plan]) for i in range(4)]

        def refuse(_plan):
            raise AssertionError("a plan template was copied per submission")

        monkeypatch.setattr(Plan, "copy", refuse)
        assert ConcurrentWorkload(config, clients, horizon=1.0).run().completed() > 4
        probe = ConcurrentWorkload(config, clients, horizon=1.0).measure_plan(plan)
        assert probe.outputs[0].value == execute(plan, config).outputs[0].value
        resilient = ResilientWorkload(
            config, clients, horizon=1.0, faults=FaultPlan(straggler_rate=0.1)
        )
        assert resilient.run().completed() > 4

    def test_invalid_horizon(self, catalog, config):
        with pytest.raises(ReproError):
            ConcurrentWorkload(config, [], horizon=0.0)

    def test_client_needs_plans(self):
        with pytest.raises(ValueError):
            ClientSpec(name="c", plans=[])

    def test_report_unknown_client(self, catalog, config):
        plan = make_plan(catalog)
        workload = ConcurrentWorkload(
            config, [ClientSpec(name="c0", plans=[plan])], horizon=0.5
        )
        report = workload.run()
        with pytest.raises(ReproError):
            report.mean_response("ghost")


class TestVectorwise:
    def test_first_client_gets_everything(self, config):
        system = VectorwiseSystem(config)
        decision = system.admission(0, 1)
        assert decision.dop == config.effective_threads

    def test_late_clients_squeezed(self, config):
        system = VectorwiseSystem(config)
        threads = config.effective_threads
        decision = system.admission(3, 4)
        assert decision.dop == max(1, threads // 4)

    def test_full_load_serializes(self, config):
        system = VectorwiseSystem(config)
        decision = system.admission(5, config.effective_threads)
        assert decision.dop == 1

    def test_parallelize_respects_admission(self, catalog, config):
        system = VectorwiseSystem(config)
        plan, cap = system.parallelize(
            make_plan(catalog), client_rank=7, active_clients=8
        )
        assert cap == 1
        result = execute(plan, config.with_threads(cap))
        serial = execute(make_plan(catalog), config)
        assert result.outputs[0].value == serial.outputs[0].value

    def test_admitted_serial_is_slower_than_full(self, catalog, config):
        system = VectorwiseSystem(config)
        full_plan, full_cap = system.parallelize(make_plan(catalog))
        squeezed_plan, squeezed_cap = system.parallelize(
            make_plan(catalog), client_rank=7, active_clients=8
        )
        fast = execute(full_plan, config.with_threads(full_cap)).response_time
        slow = execute(squeezed_plan, config.with_threads(squeezed_cap)).response_time
        assert slow > fast
