"""Byte-pinned results of the three closed-loop services.

``ConcurrentWorkload`` (plain runs and ``measure_plan`` probes),
``ResilientWorkload`` (clean, under chaos, with timeouts, admission
caps and disconnects, and traced) and ``TenantLoadService`` (fair
admission, rejections, SLO timeouts, live metrics, a reseeded run) are
run on the small unit catalogs of ``tests/concurrency`` and
``tests/serve``.  Every simulated time is recorded as ``float.hex``, a
traced run as the digest of its canonical trace, so any change to what
a service loop does -- RNG draw order, admission order, timer order,
trace events -- fails here byte for byte.

The ``ConcurrentWorkload`` entries leave out ``peak_in_flight``.

Regenerate only for an intentional change of simulated results, with
``pytest tests/concurrency/test_service_golden.py --regen-golden``, and
review the diff.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.chaos import CHAOS_HEAVY, CHAOS_LIGHT, FaultPlan
from repro.concurrency import (
    ClientSpec,
    ConcurrentWorkload,
    ResilienceConfig,
    ResilientWorkload,
)
from repro.config import SimulationConfig, laptop_machine
from repro.core import HeuristicParallelizer
from repro.observe import MetricsRegistry, Observer
from repro.operators import RangePredicate
from repro.plan import PlanBuilder
from repro.serve import (
    TenantDirectory,
    TenantLoad,
    TenantLoadService,
    TenantSpec,
    default_tenants,
)
from repro.serve.tenants import BATCH, INTERACTIVE, SloClass
from repro.sql import plan_sql
from repro.storage import LNG, Catalog, Table

GOLDEN = Path(__file__).parent / "golden" / "services.json"

#: Faults that exercise every resilience path on the unit plan.
MIXED_FAULTS = FaultPlan(
    operator_exception_rate=0.01,
    straggler_rate=0.05,
    mem_pressure_rate=0.03,
    disconnect_rate=0.03,
)


def _hex(value):
    """``value`` with every float as ``float.hex`` and tuples as lists."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {str(k): _hex(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_hex(v) for v in value]
    return value


def _catalog() -> Catalog:
    rng = np.random.default_rng(1234)
    catalog = Catalog()
    catalog.add(
        Table.from_arrays(
            "t",
            {
                "a": (LNG, rng.integers(0, 1000, 20_000)),
                "b": (LNG, rng.integers(0, 100, 20_000)),
            },
        )
    )
    return catalog


def _serial(catalog: Catalog):
    b = PlanBuilder(catalog)
    sel = b.select(b.scan("t", "a"), RangePredicate(hi=500))
    return b.build(b.aggregate("sum", b.fetch(sel, b.scan("t", "b"))))


# ----------------------------------------------------------------------
# ConcurrentWorkload
# ----------------------------------------------------------------------
def _concurrent(plans) -> dict:
    serial, hp4, hp8 = plans
    config = SimulationConfig(machine=laptop_machine(8), data_scale=500.0)

    def run(clients, horizon) -> dict:
        doc = ConcurrentWorkload(config, clients, horizon=horizon).run().as_dict()
        del doc["peak_in_flight"]
        return _hex(doc)

    def probe(plan, clients, horizon, **kwargs) -> dict:
        result = ConcurrentWorkload(config, clients, horizon=horizon).measure_plan(
            plan, **kwargs
        )
        return {
            "response_time": result.response_time.hex(),
            "submit_time": result.profile.submit_time.hex(),
            "value": _hex(result.outputs[0].value),
        }

    loaded = [ClientSpec(name=f"c{i}", plans=[hp8]) for i in range(8)]
    return {
        "concurrent_one_plan": run(
            [ClientSpec(name=f"c{i}", plans=[hp4]) for i in range(4)], 1.0
        ),
        "concurrent_mixed": run(
            [
                ClientSpec(name=f"c{i}", plans=[serial, hp4, hp8], max_threads=cap)
                for i, cap in enumerate((None, 2, 4, None, 1))
            ],
            1.0,
        ),
        "concurrent_max_queries": run(
            [
                ClientSpec(name="c0", plans=[serial], max_queries=3),
                ClientSpec(name="c1", plans=[hp4, hp8], max_queries=3),
            ],
            100.0,
        ),
        "probe_loaded": probe(hp8, loaded, 2.0, warmup=0.5),
        "probe_capped": probe(serial, loaded[:4], 2.0, max_threads=2),
        "probe_after_horizon": probe(hp4, loaded[:3], 0.3, warmup=0.5),
    }


# ----------------------------------------------------------------------
# ResilientWorkload
# ----------------------------------------------------------------------
def _resilient(plans) -> dict:
    serial, hp4, hp8 = plans
    config = SimulationConfig(machine=laptop_machine(8), data_scale=300.0, seed=11)

    def workload(*, clients=6, horizon=0.5, mixed=False, max_queries=None, **kwargs):
        specs = [
            ClientSpec(
                name=f"c{i}",
                plans=[serial, hp4, hp8] if mixed else [hp4],
                max_threads=(None, 2, 4)[i % 3] if mixed else None,
                max_queries=max_queries,
            )
            for i in range(clients)
        ]
        return ResilientWorkload(config, specs, horizon=horizon, **kwargs)

    def run(**kwargs) -> dict:
        return _hex(workload(**kwargs).run().as_dict())

    def traced(**kwargs) -> str:
        observer = Observer()
        workload(observe=observer, **kwargs).run()
        observer.finish()
        return hashlib.sha256(observer.canonical_json().encode()).hexdigest()

    res = ResilienceConfig
    return {
        "resilient_clean": run(),
        "resilient_chaos_light": run(faults=CHAOS_LIGHT),
        "resilient_chaos_heavy": run(faults=CHAOS_HEAVY),
        "resilient_disconnects": run(
            faults=FaultPlan(disconnect_rate=0.3, straggler_rate=0.05),
            resilience=res(reconnect_delay=0.02),
        ),
        "resilient_timeout_cap": run(
            clients=8,
            faults=FaultPlan(straggler_rate=0.3, straggler_slowdown=8.0),
            resilience=res(timeout=0.05, max_retries=2, max_in_flight=3),
        ),
        "resilient_timeout_cap_mixed": run(
            clients=8,
            mixed=True,
            faults=MIXED_FAULTS,
            resilience=res(timeout=0.08, max_in_flight=4, backoff_base=0.01),
        ),
        "resilient_no_shed_no_retry": run(
            faults=CHAOS_HEAVY,
            resilience=res(timeout=0.1, max_retries=0, shed_dop=False),
        ),
        "resilient_timeout_1ms": run(
            clients=3, resilience=res(timeout=0.001, max_retries=1)
        ),
        "resilient_cap_1": run(
            clients=4, mixed=True, faults=MIXED_FAULTS,
            resilience=res(max_in_flight=1),
        ),
        "resilient_max_queries": run(
            clients=4, mixed=True, max_queries=4, horizon=50.0, faults=CHAOS_LIGHT
        ),
        "traced_clean": traced(clients=3),
        "traced_chaos": traced(
            faults=MIXED_FAULTS, resilience=res(timeout=0.08, max_in_flight=4)
        ),
        "traced_cap_disconnects": traced(
            clients=5,
            mixed=True,
            faults=FaultPlan(disconnect_rate=0.2, operator_exception_rate=0.01),
            resilience=res(max_in_flight=2, timeout=0.2),
        ),
    }


# ----------------------------------------------------------------------
# TenantLoadService
# ----------------------------------------------------------------------
def _tenant(small_catalog) -> dict:
    config = SimulationConfig(machine=laptop_machine(8), data_scale=100.0)
    count = plan_sql("SELECT COUNT(*) FROM facts", small_catalog)
    total = plan_sql("SELECT SUM(val) FROM facts WHERE qty < 25", small_catalog)
    group = plan_sql(
        "SELECT fk, COUNT(*) FROM facts GROUP BY fk ORDER BY fk", small_catalog
    )
    loads = [
        TenantLoad("gold", 6, (count, total)),
        TenantLoad("silver", 4, (group,)),
        TenantLoad("bronze", 3, (total,), think_mean=0.4),
    ]

    def service(directory=None, tenant_loads=None, *, horizon=1.0, **kwargs):
        return TenantLoadService(
            config,
            directory if directory is not None else default_tenants(),
            tenant_loads if tenant_loads is not None else loads,
            horizon=horizon,
            **kwargs,
        )

    def report(svc, **kwargs) -> dict:
        return _hex(svc.run(**kwargs).as_dict())

    registry = MetricsRegistry()
    metered = report(service(faults=CHAOS_LIGHT, metrics=registry))
    tiny_queue = TenantDirectory(
        (
            TenantSpec("gold", slo=INTERACTIVE, max_in_flight=1, queue_limit=1),
            TenantSpec("silver"),
            TenantSpec("bronze", slo=BATCH),
        )
    )
    twitchy = SloClass(
        "twitchy", p50_target=0.001, p99_target=0.001, timeout=0.001, max_retries=1
    )
    return {
        "tenant_default": report(service()),
        "tenant_chaos_light": report(service(faults=CHAOS_LIGHT)),
        "tenant_chaos_heavy": report(service(faults=CHAOS_HEAVY)),
        "tenant_metrics_report": metered,
        "tenant_metrics": _hex(registry.collect()),
        "tenant_seed_7": report(service(), seed=7),
        "tenant_tiny_queue": report(
            service(
                tiny_queue,
                [
                    TenantLoad("gold", 40, (group,), think_mean=0.001),
                    TenantLoad("silver", 1, (count,)),
                    TenantLoad("bronze", 1, (count,)),
                ],
                max_in_flight=2,
                faults=CHAOS_LIGHT,
            )
        ),
        "tenant_timeout_1ms": report(
            service(
                TenantDirectory((TenantSpec("gold", slo=twitchy),)),
                [TenantLoad("gold", 4, (group,))],
                horizon=0.5,
            )
        ),
    }


def services(small_catalog) -> dict:
    catalog = _catalog()
    serial = _serial(catalog)
    plans = (
        serial,
        HeuristicParallelizer(4).parallelize(serial),
        HeuristicParallelizer(8).parallelize(serial),
    )
    return {**_concurrent(plans), **_resilient(plans), **_tenant(small_catalog)}


def test_services_match_golden(small_catalog, regen_golden):
    doc = services(small_catalog)
    # One case per line: small enough to commit, still diffable.
    payload = (
        "{\n"
        + ",\n".join(
            f"{json.dumps(name)}: {json.dumps(doc[name], sort_keys=True)}"
            for name in sorted(doc)
        )
        + "\n}\n"
    )
    if regen_golden:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(payload)
        pytest.skip(f"regenerated {GOLDEN.name}")
    assert payload == GOLDEN.read_text(), (
        "a closed-loop service result changed; if intentional, regenerate "
        "with --regen-golden and review the diff"
    )
