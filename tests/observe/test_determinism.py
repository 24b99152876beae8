"""The determinism matrix: canonical output is bit-identical at any
``workers`` value, with and without memoization, and under CHAOS_LIGHT.

Bit-identity is asserted *within* each configuration cell (across
worker counts and across repeated seeded runs); memoization on versus
off legitimately differ in memo counters, never in spans or simulated
times.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.chaos import CHAOS_LIGHT
from repro.concurrency import ClientSpec, ResilienceConfig, ResilientWorkload
from repro.config import SimulationConfig, laptop_machine
from repro.core import AdaptiveParallelizer, ConvergenceParams
from repro.observe import Observer
from repro.operators import RangePredicate
from repro.plan import PlanBuilder
from repro.storage import LNG, Catalog, Table
from repro.workloads import JoinMicroWorkload

from tests.observe.conftest import observe_join_adaptive

WORKER_GRID = [1, 2, 8]


def _observe_service(workers: int | None, faults) -> Observer:
    workload = JoinMicroWorkload(outer_mb=16, inner_mb=4)
    config = workload.sim_config()
    observer = Observer()
    service = ResilientWorkload(
        config,
        [ClientSpec(f"c{i}", [workload.plan()], max_queries=3) for i in range(3)],
        horizon=2.0,
        faults=faults,
        resilience=ResilienceConfig(timeout=0.05),
        workers=workers,
        observe=observer,
    )
    service.run()
    observer.finish()
    return observer


@pytest.mark.parametrize("memoize", [True, False])
def test_adaptive_identical_across_workers(memoize):
    baseline = observe_join_adaptive(workers=1, memoize=memoize).canonical_json()
    for workers in WORKER_GRID[1:]:
        assert (
            observe_join_adaptive(workers=workers, memoize=memoize).canonical_json()
            == baseline
        )


def test_adaptive_identical_across_repeats():
    assert (
        observe_join_adaptive().canonical_json()
        == observe_join_adaptive().canonical_json()
    )


def test_medium_mutations_identical_across_repeats():
    """Medium mutations describe their pack by structure, not node id.

    Node ids come from a process-wide counter, so a description carrying
    one made the second of two identical instances trace differently.
    """

    def traced() -> str:
        rng = np.random.default_rng(1234)
        catalog = Catalog()
        catalog.add(
            Table.from_arrays(
                "t",
                {
                    "a": (LNG, rng.integers(0, 1_000, 20_000)),
                    "b": (LNG, rng.integers(0, 100, 20_000)),
                },
            )
        )
        b = PlanBuilder(catalog)
        sel = b.select(b.scan("t", "a"), RangePredicate(hi=500))
        plan = b.build(b.aggregate("sum", b.fetch(sel, b.scan("t", "b"))))
        observer = Observer()
        result = AdaptiveParallelizer(
            SimulationConfig(machine=laptop_machine(8), data_scale=1000.0),
            convergence=ConvergenceParams(number_of_cores=8, max_runs=4),
            observe=observer,
        ).optimize(plan)
        assert any(m.scheme == "medium" for m in result.mutations)
        return observer.canonical_json()

    assert traced() == traced()


def test_memoization_changes_bookkeeping_not_simulation():
    """Memo on/off differ in cache/pool bookkeeping spans and counters,
    never in what the simulation did: task and run spans (the simulated
    execution) are identical."""
    with_memo = json.loads(observe_join_adaptive(memoize=True).canonical_json())
    without = json.loads(observe_join_adaptive(memoize=False).canonical_json())

    def simulated(doc):
        return [
            {k: v for k, v in span.items() if k not in ("span_id", "parent_id")}
            for span in doc["trace"]
            if span["kind"] in ("task", "run", "submission", "mutation", "adaptive")
        ]

    assert simulated(with_memo) == simulated(without)
    assert with_memo["metrics"]["repro_memo_hits_total"] > 0
    assert "repro_memo_hits_total" not in without["metrics"]
    # Simulated task time is memo-invariant too.
    key = "repro_task_sim_seconds"
    assert with_memo["metrics"][key] == without["metrics"][key]


def test_chaos_light_identical_across_workers():
    baseline = _observe_service(1, CHAOS_LIGHT).canonical_json()
    for workers in WORKER_GRID[1:]:
        assert _observe_service(workers, CHAOS_LIGHT).canonical_json() == baseline


def test_chaos_light_fault_spans_present_and_ordered():
    """Fault events appear in the trace, identically ordered at any
    worker count (the injector draws on the main thread only)."""
    observers = [_observe_service(w, CHAOS_LIGHT) for w in WORKER_GRID]
    orders = []
    for observer in observers:
        faults = [s for s in observer.tracer.spans if s.kind == "fault"]
        assert faults, "CHAOS_LIGHT run produced no fault spans"
        orders.append([(s.span_id, s.name, s.t0) for s in faults])
    assert orders[0] == orders[1] == orders[2]


def test_clean_service_identical_across_workers():
    baseline = _observe_service(1, None).canonical_json()
    assert _observe_service(8, None).canonical_json() == baseline


def test_adaptive_under_chaos_identical_across_workers():
    baseline = observe_join_adaptive(workers=1, faults=CHAOS_LIGHT).canonical_json()
    assert (
        observe_join_adaptive(workers=8, faults=CHAOS_LIGHT).canonical_json()
        == baseline
    )
