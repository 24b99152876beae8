"""Scale-out benchmark: speedup vs nodes, and the skew straggler story.

Three sections, all deterministic functions of the workload seed:

* **sweep** -- the shard-friendly filtered aggregation on a uniform
  shard map at increasing node counts; near-linear speedup is the
  shared-nothing payoff (only scalar partials cross the wire).
* **skew** -- the same query on a placement-skewed map (node 0 hoards
  shards): the hot node's queue dominates the response time (the
  *straggler gap*), and :class:`~repro.cluster.adaptive.
  ClusterAdaptiveParallelizer`'s placement mutations close it by
  re-homing shards onto their replicas.
* **chaos** -- a node failure injected mid-query; the failover loop
  retries on the replicas and must reproduce the clean run's value
  bit for bit.

``repro bench scaleout`` runs this, gates CI with ``--gate`` (e.g.
``'sweep.-1.speedup>=1.8'``), and with ``--figure`` renders
:func:`repro.viz.scaleout.render_scaleout_figure` from the report.
"""

from __future__ import annotations

from ..chaos.faults import FaultPlan
from ..cluster import (
    ClusterAdaptiveParallelizer,
    ScaleoutWorkload,
    cluster_execute,
    execute_with_failover,
)
from ..errors import ReproError

#: Schema tag so downstream tooling can detect format changes.
SCHEMA = "repro/bench/scaleout/v1"

#: True on every report with a chaos section (see
#: :func:`repro.bench.gates.check_gates`): failover kept the clean value.
INVARIANTS = ("chaos.value_identical",)

#: Default node counts swept (quick and full).
DEFAULT_NODES = (1, 2, 4)

#: Per-node thread count: small on purpose, so hoarded shards queue in
#: waves and placement skew shows up in the response time.
NODE_THREADS = 2


def run_scaleout(
    quick: bool = False,
    *,
    nodes: tuple[int, ...] = DEFAULT_NODES,
    chaos: bool = True,
) -> dict:
    """Run the scale-out benchmark; JSON-ready report."""
    if not nodes or any(n < 1 for n in nodes):
        raise ReproError(f"node counts must be >= 1, got {nodes!r}")
    nodes = tuple(sorted(set(nodes)))
    workload = ScaleoutWorkload(tuples_m=20 if quick else 200)

    sweep = []
    base_time = None
    for count in nodes:
        cluster = workload.cluster(count, threads=NODE_THREADS)
        config = workload.sim_config(cluster)
        sharded = workload.sharded(count)
        result = cluster_execute(workload.plan(sharded), cluster, config)
        if base_time is None:
            base_time = result.response_time
        sweep.append(
            {
                "nodes": count,
                "response_s": round(result.response_time, 6),
                "speedup": round(base_time / result.response_time, 4),
                "value": int(result.outputs[0].value),
            }
        )

    report = {
        "schema": SCHEMA,
        "quick": quick,
        "workload": {
            "rows": len(workload.table),
            "selectivity": workload.selectivity,
            "seed": workload.seed,
            "node_threads": NODE_THREADS,
        },
        "sweep": sweep,
        "skew": _skew_section(workload, max(nodes)),
    }
    if chaos:
        report["chaos"] = _chaos_section(workload, max(nodes))
    return report


def _skew_section(workload: ScaleoutWorkload, count: int) -> dict:
    """Straggler gap on the skewed map, before and after adaptivity."""
    if count < 2:
        return {"skipped": "needs >= 2 nodes"}
    cluster = workload.cluster(count, threads=NODE_THREADS)
    config = workload.sim_config(cluster)
    balanced = workload.sharded(count, shards_per_node=2)
    skewed = workload.sharded(count, skewed=True)

    balanced_run = cluster_execute(
        workload.plan(balanced), cluster, config
    )
    skewed_run = cluster_execute(workload.plan(skewed), cluster, config)

    adaptive = ClusterAdaptiveParallelizer(
        cluster, skewed.shard_map, config
    )
    outcome = adaptive.optimize(workload.plan(skewed))
    adapted_run = cluster_execute(outcome.best_plan, cluster, config)

    balanced_t = balanced_run.response_time
    moves = [
        {"scheme": m.scheme, "description": m.description}
        for m in outcome.mutations
        if m.scheme.startswith("placement")
    ]
    return {
        "nodes": count,
        "placement_skew": round(skewed.shard_map.skew(), 4),
        "balanced_s": round(balanced_t, 6),
        "skewed_s": round(skewed_run.response_time, 6),
        "adapted_s": round(adapted_run.response_time, 6),
        "gap_before": round(skewed_run.response_time / balanced_t, 4),
        "gap_after": round(adapted_run.response_time / balanced_t, 4),
        "placement_moves": moves,
        "adaptive_runs": outcome.total_runs,
        "value_preserved": int(adapted_run.outputs[0].value)
        == int(skewed_run.outputs[0].value),
    }


def _chaos_section(workload: ScaleoutWorkload, count: int) -> dict:
    """A deterministic node failure survived by replica failover."""
    if count < 2:
        return {"skipped": "needs >= 2 nodes"}
    cluster = workload.cluster(count, threads=NODE_THREADS)
    config = workload.sim_config(cluster)
    shard_map = workload.sharded(count).shard_map
    clean = cluster_execute(
        workload.plan_for_map(shard_map), cluster, config
    )
    faults = FaultPlan(
        operator_exception_rate=0.1,
        straggler_rate=0.0,
        mem_pressure_rate=0.0,
        disconnect_rate=0.0,
        max_faults=1,
    )
    survived = execute_with_failover(
        workload.plan_for_map, shard_map, cluster, config, faults=faults
    )
    return {
        "nodes": count,
        "attempts": survived.attempts,
        "failed_nodes": list(survived.failed_nodes),
        "value_identical": int(survived.result.outputs[0].value)
        == int(clean.outputs[0].value),
        "clean_s": round(clean.response_time, 6),
        "failover_s": round(survived.result.response_time, 6),
    }


def format_scaleout_report(report: dict) -> str:
    """Human-readable rendering of a scaleout report."""
    lines = [
        f"scale-out benchmark ({'quick' if report['quick'] else 'full'} "
        f"mode, {report['workload']['rows']} rows, "
        f"{report['workload']['node_threads']} threads/node)"
    ]
    lines.append("  nodes  response_s  speedup")
    for row in report["sweep"]:
        lines.append(
            f"  {row['nodes']:>5}  {row['response_s']:>10.6f}  "
            f"{row['speedup']:>6.2f}x"
        )
    skew = report.get("skew", {})
    if "gap_before" in skew:
        lines.append(
            f"  skew@{skew['nodes']} nodes (placement skew "
            f"{skew['placement_skew']:.2f}x): straggler gap "
            f"{skew['gap_before']:.2f}x -> {skew['gap_after']:.2f}x after "
            f"{len(skew['placement_moves'])} placement move(s)"
        )
    chaos = report.get("chaos", {})
    if "attempts" in chaos:
        lines.append(
            f"  chaos@{chaos['nodes']} nodes: node(s) "
            f"{chaos['failed_nodes']} failed, survived in "
            f"{chaos['attempts']} attempt(s), value identical: "
            f"{chaos['value_identical']}"
        )
    return "\n".join(lines)
