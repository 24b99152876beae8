"""Byte-pinned trajectories of every convergence policy.

One small select -> fetch -> sum plan is optimized under each policy
and option the adaptive loop supports: credit/debit (plain, with
``verify=True``, with ``mutations_per_run=3`` and under injected
faults), warm start (a store hit, a miss and no store), the UCB bandit
(cold and warm), one placement-aware cluster instance, and an
:class:`~repro.core.session.AdaptiveSession` trail.  Every run time is
recorded as ``float.hex`` together with the decisions, the mutation
descriptions, the GME and the digest of the canonical trace, so any
change to what the loop does -- RNG draw order, decision provenance,
trace events -- fails here byte for byte.

Regenerate only for an intentional trajectory change, with
``pytest tests/core/test_trajectory_golden.py --regen-golden``, and
review the diff.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.chaos import FaultPlan
from repro.cluster import ClusterAdaptiveParallelizer, ScaleoutWorkload
from repro.config import SimulationConfig, laptop_machine
from repro.core import AdaptiveParallelizer, ConvergenceParams
from repro.core.session import AdaptiveSession
from repro.learn import ExperienceStore
from repro.observe import Observer
from repro.operators import RangePredicate
from repro.plan import PlanBuilder
from repro.storage import LNG, Catalog, Table

GOLDEN = Path(__file__).parent / "golden" / "trajectories.json"

#: The fault rates of ``TestOptimizeUnderChaos`` in test_adaptive.py
#: (``CHAOS_LIGHT`` exhausts the default retry budget on this plan).
FAULTS = FaultPlan(
    operator_exception_rate=0.0005,
    straggler_rate=0.05,
    straggler_slowdown=4.0,
    mem_pressure_rate=0.03,
    mem_pressure_factor=3.0,
)

#: A four-core budget: credit/debit converges on its own in about 60
#: runs, which keeps the traced instances fast.
CONVERGENCE = ConvergenceParams(number_of_cores=4)

SESSION_SQL = "SELECT SUM(a) FROM t WHERE b < 50"
SESSION_INVOCATIONS = 90


def _catalog() -> Catalog:
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
    return catalog


def _plan(catalog: Catalog):
    b = PlanBuilder(catalog)
    sel = b.select(b.scan("t", "a"), RangePredicate(hi=500))
    return b.build(b.aggregate("sum", b.fetch(sel, b.scan("t", "b"))))


def _config() -> SimulationConfig:
    return SimulationConfig(machine=laptop_machine(8), data_scale=1000.0)


def _trajectory(make, plan) -> dict:
    """Optimize ``plan`` traced; the instance's pinned fields."""
    observer = Observer()
    parallelizer = make(observer)
    try:
        result = parallelizer.optimize(plan)
    finally:
        parallelizer.close()
    observer.finish()
    return {
        "times": [t.hex() for t in result.exec_times()],
        "decisions": [[d.run, d.source, d.dop, d.detail] for d in result.decisions],
        "mutations": [m.description for m in result.mutations],
        "rejections": len(result.rejections),
        "gme": [result.gme_time.hex(), result.gme_run],
        "total_runs": result.total_runs,
        "fault_retries": result.fault_retries,
        "warm_start": result.warm_start,
        "bandit_arms": result.bandit_arms,
        "trace_sha256": hashlib.sha256(
            observer.canonical_json().encode()
        ).hexdigest(),
    }


def _adaptive(plan, **kwargs) -> dict:
    return _trajectory(
        lambda observer: AdaptiveParallelizer(
            _config(), convergence=CONVERGENCE, observe=observer, **kwargs
        ),
        plan,
    )


def _cluster() -> dict:
    workload = ScaleoutWorkload(tuples_m=10)
    cluster = workload.cluster(4, threads=2)
    skewed = workload.sharded(4, skewed=True)
    return _trajectory(
        lambda observer: ClusterAdaptiveParallelizer(
            cluster,
            skewed.shard_map,
            workload.sim_config(cluster),
            observe=observer,
        ),
        workload.plan(skewed),
    )


def _session(catalog: Catalog) -> list:
    session = AdaptiveSession(
        catalog,
        _config(),
        convergence=ConvergenceParams(number_of_cores=8, max_runs=60),
    )
    trail = []
    for __ in range(SESSION_INVOCATIONS):
        result = session.execute(SESSION_SQL)
        entry = session.entry_for(SESSION_SQL)
        trail.append(
            [result.response_time.hex(), entry.state.value, entry.tracker.runs]
        )
    return trail


def trajectories() -> dict:
    catalog = _catalog()
    plan = _plan(catalog)
    primed = ExperienceStore()
    return {
        "credit_debit": _adaptive(plan),
        "verify": _adaptive(plan, verify=True),
        "mutations_per_run_3": _adaptive(plan, mutations_per_run=3),
        "chaos": _adaptive(plan, faults=FAULTS),
        # The default policy writes the record the warm instances read.
        "credit_debit_recording": _adaptive(plan, experience=primed),
        "warmstart_hit": _adaptive(plan, policy="warmstart", experience=primed),
        "warmstart_miss": _adaptive(
            plan, policy="warmstart", experience=ExperienceStore()
        ),
        "warmstart_no_store": _adaptive(plan, policy="warmstart"),
        "bandit_cold": _adaptive(plan, policy="bandit"),
        "bandit_warm": _adaptive(plan, policy="bandit", experience=primed),
        "cluster": _cluster(),
        "session": _session(catalog),
    }


def test_trajectories_match_golden(regen_golden):
    doc = trajectories()
    # One instance per line: small enough to commit, still diffable.
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
        "an adaptive trajectory changed; if intentional, regenerate with "
        "--regen-golden and review the diff"
    )
