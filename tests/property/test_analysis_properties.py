"""Property-based tests on the static plan analyzer.

Three guarantees, over randomly generated query shapes and mutation
sequences:

* the mutator never produces a plan the analyzer flags as broken --
  random mutation sequences introduce no ``error`` diagnostics;
* analyzer-clean plans are *actually* correct: they execute to the same
  results as the serial plan (the analyzer's "error" notion is sound
  with respect to real execution); and
* the mutator's incremental bookkeeping is invisible: after every
  accepted and every rolled-back mutation the gate's report equals a
  from-scratch ``analyze_plan`` report (same diagnostics, same order),
  and reused plan fingerprints equal freshly hashed ones.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.mutation as mutation_module
from repro.cluster import ClusterSpec, cluster_execute, move_shard, sharded_aggregate_plan
from repro.config import SimulationConfig, laptop_machine
from repro.core import AdaptiveParallelizer, ConvergenceParams, PlanMutator
from repro.core.adaptive import intermediates_equal
from repro.engine import execute
from repro.operators import RangePredicate
from repro.operators.slice import PartitionSlice
from repro.plan import PlanBuilder, analyze_plan
from repro.plan.analysis import DEFAULT_PACK_FANIN_LIMIT
from repro.plan.graph import PlanNode, _fingerprint_into
from repro.storage import Catalog, LNG, Table
from repro.storage.sharded import ShardedTable

_CONFIG = SimulationConfig(machine=laptop_machine(8), data_scale=200.0)


def make_catalog(seed: int) -> Catalog:
    rng = np.random.default_rng(seed)
    n, m = 3_000, 40
    catalog = Catalog()
    catalog.add(
        Table.from_arrays(
            "facts",
            {
                "fk": (LNG, rng.integers(0, m, n)),
                "val": (LNG, rng.integers(0, 1_000, n)),
                "qty": (LNG, rng.integers(1, 50, n)),
            },
        )
    )
    catalog.add(Table.from_arrays("dims", {"pk": (LNG, np.arange(m))}))
    return catalog


def build_random_plan(catalog: Catalog, shape: int, threshold: int):
    """A small family of query shapes driven by hypothesis."""
    b = PlanBuilder(catalog)
    sel = b.select(b.scan("facts", "val"), RangePredicate(hi=threshold))
    if shape == 0:  # select -> fetch -> sum
        out = b.aggregate("sum", b.fetch(sel, b.scan("facts", "qty")))
    elif shape == 1:  # chained selects -> count
        sel2 = b.select(b.scan("facts", "qty"), RangePredicate(hi=30), candidates=sel)
        out = b.aggregate("count", sel2)
    elif shape == 2:  # join -> count
        fk = b.fetch(sel, b.scan("facts", "fk"))
        out = b.aggregate("count", b.join(fk, b.scan("dims", "pk")))
    elif shape == 3:  # group-by
        keys = b.fetch(sel, b.scan("facts", "fk"))
        vals = b.fetch(sel, b.scan("facts", "qty"))
        out = b.group_aggregate("sum", keys, vals)
    else:  # sort + limit (order-sensitive consumer above any packs)
        bat = b.fetch(sel, b.scan("facts", "qty"))
        out = b.topn(b.sort(bat, descending=True), 7)
    return b.build(out)


class TestAnalyzerProperties:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 10),
        shape=st.integers(0, 4),
        threshold=st.integers(0, 1_000),
        steps=st.integers(1, 10),
    )
    def test_mutations_never_introduce_errors_and_clean_plans_are_correct(
        self, seed, shape, threshold, steps
    ):
        catalog = make_catalog(seed)
        plan = build_random_plan(catalog, shape, threshold)
        assert not analyze_plan(plan).has_errors  # serial plans start clean
        serial = execute(plan, _CONFIG)
        mutator = PlanMutator(plan)
        profile = serial.profile
        for __ in range(steps):
            result = mutator.mutate(profile)
            if result is None:
                break
            report = analyze_plan(plan)
            assert not report.has_errors, report.format()
            # Soundness: what the analyzer calls clean really does
            # produce the serial results under the simulator.
            run = execute(plan, _CONFIG)
            for a, b in zip(run.outputs, serial.outputs):
                if shape == 4:
                    # Parallel sort-merge may permute *tied* values, so
                    # TopN returns the same values under different row
                    # ids; the values themselves must match exactly.
                    assert np.array_equal(a.tail, b.tail)
                else:
                    assert intermediates_equal(a, b)
            profile = run.profile
        # The gate itself never let a broken plan through either.
        assert mutator.rejections == []


@contextmanager
def gate_checked():
    """Check every analysis the mutation gate runs against a from-scratch
    run; yields the list of gate reports seen."""
    gate = mutation_module.analyze_plan
    reports = []

    def checked(plan, **kwargs):
        assert kwargs.get("reuse") is not None  # the gate really reuses
        report = gate(plan, **kwargs)
        fresh = analyze_plan(
            plan,
            pack_fanin_limit=kwargs.get("pack_fanin_limit", DEFAULT_PACK_FANIN_LIMIT),
        )
        assert report.diagnostics == fresh.diagnostics, (
            report.format(),
            fresh.format(),
        )
        reports.append(report)
        return report

    with mock.patch.object(mutation_module, "analyze_plan", checked):
        yield reports


def assert_fingerprints_fresh(plan) -> None:
    fresh: dict[int, bytes] = {}
    _fingerprint_into(plan.outputs, fresh)
    assert plan.fingerprints() == fresh


class GapOpeningMutator(PlanMutator):
    """Shrinks the left slice of every ``every``-th split by one unit,
    opening a partition gap the gate must reject and roll back."""

    def __init__(self, plan, every: int) -> None:
        super().__init__(plan)
        self.every = every
        self.splits = 0
        self.corrupted = 0

    def _attach_clones(self, old, clones, combiner):
        left = clones[0]
        for slot, child in enumerate(left.inputs):
            op = child.op
            if isinstance(op, PartitionSlice) and op.hi - op.lo >= 2:
                self.splits += 1
                if self.splits % self.every == 0:
                    left.inputs[slot] = PlanNode(
                        PartitionSlice(op.lo, op.hi - 1),
                        child.inputs,
                        order_key=child.order_key,
                    )
                    self.corrupted += 1
                break
        return super()._attach_clones(old, clones, combiner)


class TestIncrementalBookkeeping:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 10),
        shape=st.integers(0, 4),
        threshold=st.integers(0, 1_000),
        steps=st.integers(1, 12),
        every=st.integers(0, 3),
    )
    def test_gate_reports_equal_fresh_analysis(
        self, seed, shape, threshold, steps, every
    ):
        catalog = make_catalog(seed)
        plan = build_random_plan(catalog, shape, threshold)
        if every:
            mutator = GapOpeningMutator(plan, every)
        else:
            mutator = PlanMutator(plan)
        profile = execute(plan, _CONFIG).profile
        accepted = 0
        with gate_checked() as reports:
            for __ in range(steps):
                if mutator.mutate(profile) is None:
                    break
                accepted += 1
                assert_fingerprints_fresh(plan)
                profile = execute(plan, _CONFIG).profile
        # One gate report per accepted and per rolled-back mutation.
        assert len(reports) == accepted + len(mutator.rejections)
        if every:
            assert len(mutator.rejections) == mutator.corrupted
            assert all(
                any(d.rule == "partition.gap" for d in r.report.diagnostics)
                for r in mutator.rejections
            )

    def test_forced_rollback_restores_cached_analysis(self):
        catalog = make_catalog(3)
        plan = build_random_plan(catalog, 3, 700)
        mutator = GapOpeningMutator(plan, every=2)
        profile = execute(plan, _CONFIG).profile
        with gate_checked():
            for __ in range(8):
                if mutator.mutate(profile) is None:
                    break
                profile = execute(plan, _CONFIG).profile
        assert mutator.rejections  # the rollback path really ran
        assert not analyze_plan(plan).has_errors

    def test_gate_survives_placement_edits(self):
        """``move_shard`` edits scan/exchange placements in place and
        splices exchanges; the next DOP mutation's gate must see it."""
        rng = np.random.default_rng(11)
        table = Table.from_arrays(
            "t",
            {
                "k": (LNG, rng.integers(0, 1000, 3_000)),
                "v": (LNG, rng.integers(0, 100, 3_000)),
            },
        )
        sharded = ShardedTable.create(table, 3)
        plan = sharded_aggregate_plan(
            sharded, value="v", func="sum", filter_on="k", lo=0, hi=500
        )
        cluster = ClusterSpec(node=laptop_machine(2), nodes=3)
        config = SimulationConfig(machine=cluster.node, data_scale=200.0)
        mutator = PlanMutator(plan)
        shards = sharded.shard_map.shards
        profile = cluster_execute(plan, cluster, config).profile
        with gate_checked() as reports:
            for step in range(9):
                if step % 3 == 0:
                    shard = shards[(step // 3) % len(shards)]
                    outside = [
                        n for n in range(cluster.nodes) if n not in shard.holders()
                    ]
                    # Alternate the free (replica) and paid (exchange) moves.
                    dst = shard.replica if step % 2 == 0 or not outside else outside[0]
                    move_shard(plan, shard, dst)
                elif mutator.mutate(profile) is None:
                    break
                assert_fingerprints_fresh(plan)
                profile = cluster_execute(plan, cluster, config).profile
        assert reports  # DOP mutations ran between the placement edits

    def test_bandit_ladder_reports_equal_fresh_analysis(self):
        """The bandit policy extends a snapshot ladder and re-executes
        shallower snapshots between mutations of the working plan."""
        catalog = make_catalog(5)
        plan = build_random_plan(catalog, 2, 800)
        adaptive = AdaptiveParallelizer(
            _CONFIG,
            policy="bandit",
            convergence=ConvergenceParams(number_of_cores=8, max_runs=40),
        )
        with gate_checked() as reports:
            result = adaptive.optimize(plan)
        assert len(reports) == len(result.mutations) + len(result.rejections)
        assert result.mutations
        assert_fingerprints_fresh(result.final_plan)


def test_one_mutation_revisits_only_near_the_change():
    """On a ~300-node plan, one mutation re-runs node rules on a handful
    of nodes: reuse must not silently fall back to full re-analysis."""
    catalog = make_catalog(2)
    plan = build_random_plan(catalog, 3, 900)
    mutator = PlanMutator(plan)
    profile = execute(plan, _CONFIG).profile
    while len(plan.nodes()) < 300:
        assert mutator.mutate(profile) is not None
        profile = execute(plan, _CONFIG).profile
    analysis = mutator._analysis
    nodes_before = len(plan.nodes())
    assert mutator.mutate(profile) is not None
    nodes = len(plan.nodes())
    rules = 5  # shape, intervals, packs, races, smells
    assert nodes >= 300
    assert 0 < analysis.changed <= 12, analysis.changed
    assert abs(nodes - nodes_before) <= 10
    # A from-scratch run visits every node once per node rule.
    assert analysis.visits <= 12 * analysis.changed + 30, (
        analysis.visits,
        analysis.changed,
    )
    assert analysis.visits < nodes * rules // 10
