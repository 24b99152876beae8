"""Convergence-policy benchmark: credit/debit vs warm-start vs bandit.

Head-to-head comparison of the :mod:`repro.learn` convergence policies
on two costs the paper's Section 3 cares about:

* **runs to GME** -- how many adaptive runs the policy needs before it
  first executes a plan inside the GME band (the learning latency a
  recurring query pays before it is fast), and
* **total simulated work** -- the sum of every run's simulated time
  (what the whole convergence episode costs the machine).

Three policies are measured per query:

``cold``
    Plain credit/debit with an (empty) experience store attached -- the
    paper's algorithm, which also *populates* the store for the warm
    measurement.
``warmstart``
    ``warmstart+credit_debit`` against the store the cold run just
    filled: the second encounter of a structurally identical query.
``bandit``
    The seeded UCB advisor, started cold (no transfer), so its wins are
    attributable to the policy alone.

A separate **repeated-workload trajectory** runs the Q1-style
aggregation through several encounters sharing one store -- the CI
smoke gate (``--gate 'repeated.warm_ratio<=0.7'``) checks that the
second encounter's runs-to-GME collapses versus the first.

``repro bench convergence`` writes the report as JSON
(``BENCH_convergence.json``); its ``--figure`` flag renders
:func:`repro.viz.policies.render_policy_figure` from the same document.
"""

from __future__ import annotations

import numpy as np

from ..config import SimulationConfig
from ..core import AdaptiveParallelizer
from ..core.adaptive import AdaptiveResult
from ..learn import POLICY_BANDIT, POLICY_CREDIT_DEBIT, POLICY_WARMSTART, ExperienceStore
from ..operators import Calc, Fetch, GroupAggregate, RangePredicate, Scan, Select
from ..plan import Plan
from ..workloads import ALL_DS_QUERIES, ALL_QUERIES, TpcdsDataset, TpchDataset

#: Schema tag so downstream tooling can detect format changes.
SCHEMA = "repro/bench_convergence/v1"

#: Quick-mode subsets keep the CI smoke job under a couple of minutes.
QUICK_TPCH = ("q6", "q9", "q14")
QUICK_TPCDS = ("ds1", "ds2")

#: Encounters of the repeated workload (first is cold by construction).
REPEAT_ENCOUNTERS = 3

#: No check runs on every report: simulated policy outcomes only fail a
#: bound asked for with ``--gate`` (see :mod:`repro.bench.gates`).
INVARIANTS: tuple[str, ...] = ()


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


def _suite(quick: bool) -> list[tuple[str, Plan, SimulationConfig]]:
    tpch = TpchDataset(scale_factor=1 if quick else 10)
    tpch_config = tpch.sim_config()
    tpcds = TpcdsDataset(scale_factor=10 if quick else 100)
    tpcds_config = tpcds.sim_config()
    suite = [
        (name, tpch.plan(name), tpch_config)
        for name in (QUICK_TPCH if quick else ALL_QUERIES)
    ]
    suite.extend(
        (name, tpcds.plan(name), tpcds_config)
        for name in (QUICK_TPCDS if quick else ALL_DS_QUERIES)
    )
    return suite


def _metrics(result: AdaptiveResult) -> dict:
    return {
        "policy": result.policy,
        "warm_start": result.warm_start,
        "total_runs": result.total_runs,
        "runs_to_gme": result.runs_to_gme,
        "total_work_ms": round(result.total_work * 1000, 4),
        "serial_ms": round(result.serial_time * 1000, 4),
        "gme_ms": round(result.gme_time * 1000, 4),
        "sim_speedup": round(result.speedup, 3),
    }


def _instance(
    config: SimulationConfig,
    plan: Plan,
    policy: str,
    store: ExperienceStore | None,
) -> AdaptiveResult:
    parallelizer = AdaptiveParallelizer(config, policy=policy, experience=store)
    try:
        return parallelizer.optimize(plan)
    finally:
        parallelizer.close()


def run_convergence(quick: bool = False) -> dict:
    """Measure every policy on every suite query; JSON report."""
    queries: dict[str, dict] = {}
    for name, plan, config in _suite(quick):
        store = ExperienceStore()  # in-memory, scoped to this query
        cold = _instance(config, plan, POLICY_CREDIT_DEBIT, store)
        warm = _instance(config, plan, POLICY_WARMSTART, store)
        bandit = _instance(config, plan, POLICY_BANDIT, None)
        queries[name] = {
            "cold": _metrics(cold),
            "warmstart": _metrics(warm),
            "bandit": _metrics(bandit),
        }

    # The repeated-workload trajectory: one store across encounters.
    dataset = TpchDataset(scale_factor=1 if quick else 10)
    config = dataset.sim_config(seed=29)
    store = ExperienceStore()
    encounters = [
        _metrics(
            _instance(config, q1_style_plan(dataset), POLICY_WARMSTART, store)
        )
        for __ in range(REPEAT_ENCOUNTERS)
    ]
    cold_runs = encounters[0]["runs_to_gme"]
    warm_runs = encounters[1]["runs_to_gme"]
    warm_ratio = warm_runs / cold_runs if cold_runs else 1.0

    bandit_wins = sum(
        1
        for q in queries.values()
        if q["bandit"]["total_work_ms"] <= q["cold"]["total_work_ms"]
    )
    suite_ratios = [
        q["warmstart"]["runs_to_gme"] / q["cold"]["runs_to_gme"]
        for q in queries.values()
        if q["cold"]["runs_to_gme"]
    ]
    return {
        "schema": SCHEMA,
        "quick": quick,
        "queries": queries,
        "repeated": {
            "workload": "tpch_q1_style",
            "encounters": encounters,
            "warm_ratio": round(warm_ratio, 4),
        },
        "summary": {
            "suite_size": len(queries),
            "bandit_work_wins": bandit_wins,
            "bandit_win_fraction": round(bandit_wins / len(queries), 4),
            "mean_warm_ratio": round(
                sum(suite_ratios) / len(suite_ratios), 4
            )
            if suite_ratios
            else 1.0,
            "repeated_warm_ratio": round(warm_ratio, 4),
        },
    }


def format_convergence_report(report: dict) -> str:
    """Human-readable rendering of a convergence-policy report."""
    lines = [
        f"convergence-policy benchmark "
        f"({'quick' if report['quick'] else 'full'} mode, "
        f"{report['summary']['suite_size']} queries)"
    ]
    header = (
        f"  {'query':<8} {'policy':<10} {'runs->GME':>9} {'total runs':>10} "
        f"{'work (ms)':>12} {'speedup':>8}"
    )
    lines.append(header)
    for name, policies in report["queries"].items():
        for label in ("cold", "warmstart", "bandit"):
            m = policies[label]
            lines.append(
                f"  {name:<8} {label:<10} {m['runs_to_gme']:>9} "
                f"{m['total_runs']:>10} {m['total_work_ms']:>12.1f} "
                f"x{m['sim_speedup']:<7.1f}"
            )
    rep = report["repeated"]
    trajectory = " -> ".join(
        str(e["runs_to_gme"]) for e in rep["encounters"]
    )
    lines.append(
        f"  repeated {rep['workload']}: runs-to-GME {trajectory} "
        f"(warm ratio {rep['warm_ratio']:.2f})"
    )
    s = report["summary"]
    lines.append(
        f"  summary: bandit work wins {s['bandit_work_wins']}"
        f"/{s['suite_size']} ({s['bandit_win_fraction']:.0%}), "
        f"mean suite warm ratio {s['mean_warm_ratio']:.2f}, "
        f"repeated warm ratio {s['repeated_warm_ratio']:.2f}"
    )
    return "\n".join(lines)
