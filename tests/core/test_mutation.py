"""Plan mutations: basic, medium, advanced -- structure and semantics.

Every structural test re-executes the mutated plan and compares results
against the serial plan, which is the property the whole paper rests on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import SimulationConfig, laptop_machine
from repro.core import PlanMutator, intermediates_equal, produces_scalar
from repro.core.expensive import candidates as expensive_candidates
from repro.core.mutation import _Readers
from repro.engine import execute
from repro.operators import RangePredicate
from repro.plan import Plan, PlanBuilder, validate_plan
from repro.storage import Catalog, LNG, Table


@pytest.fixture()
def catalog(rng) -> Catalog:
    n, m = 5_000, 50
    cat = Catalog()
    cat.add(
        Table.from_arrays(
            "facts",
            {
                "fk": (LNG, rng.integers(0, m, n)),
                "val": (LNG, rng.integers(0, 1_000, n)),
                "qty": (LNG, rng.integers(1, 50, n)),
            },
        )
    )
    cat.add(Table.from_arrays("dims", {"pk": (LNG, np.arange(m))}))
    return cat


@pytest.fixture()
def config() -> SimulationConfig:
    return SimulationConfig(machine=laptop_machine(8), data_scale=500.0)


def select_sum_plan(catalog: Catalog) -> Plan:
    b = PlanBuilder(catalog)
    sel = b.select(b.scan("facts", "val"), RangePredicate(hi=600))
    proj = b.fetch(sel, b.scan("facts", "qty"))
    return b.build(b.aggregate("sum", proj))


def groupby_plan(catalog: Catalog) -> Plan:
    b = PlanBuilder(catalog)
    keys = b.scan("facts", "fk")
    vals = b.scan("facts", "val")
    return b.build(b.group_aggregate("sum", keys, vals))


def join_plan(catalog: Catalog) -> Plan:
    b = PlanBuilder(catalog)
    joined = b.join(b.scan("facts", "fk"), b.scan("dims", "pk"))
    return b.build(b.aggregate("count", joined))


def mutate_n(plan: Plan, config: SimulationConfig, steps: int) -> tuple[Plan, list]:
    """Apply up to ``steps`` mutations, re-profiling between each."""
    mutator = PlanMutator(plan)
    applied = []
    profile = execute(plan, config).profile
    for __ in range(steps):
        result = mutator.mutate(profile)
        if result is None:
            break
        applied.append(result)
        validate_plan(plan)
        profile = execute(plan, config).profile
    return plan, applied


class TestBasicMutation:
    def test_first_mutation_clones_an_operator(self, catalog, config):
        plan = select_sum_plan(catalog)
        serial = execute(plan, config)
        __, applied = mutate_n(plan, config, 1)
        assert len(applied) == 1
        assert applied[0].clones == 2
        mutated = execute(plan, config)
        assert intermediates_equal(mutated.outputs[0], serial.outputs[0])

    def test_pack_introduced_by_first_split(self, catalog, config):
        plan = select_sum_plan(catalog)
        mutate_n(plan, config, 1)
        assert plan.count_kind("pack") >= 1

    def test_results_stable_across_many_mutations(self, catalog, config):
        plan = select_sum_plan(catalog)
        serial = execute(plan, config)
        __, applied = mutate_n(plan, config, 12)
        assert len(applied) >= 6
        mutated = execute(plan, config)
        assert intermediates_equal(mutated.outputs[0], serial.outputs[0])

    def test_dynamic_partitions_have_different_sizes(self, catalog, config):
        """Figure 8: repeated splits of the most expensive clone produce
        unequal partitions."""
        plan = select_sum_plan(catalog)
        mutate_n(plan, config, 6)
        slices = [n.op for n in plan.nodes() if n.kind == "slice"]
        spans = {s.hi - s.lo for s in slices}
        assert len(spans) > 1

    def test_select_partitions_candidates_not_column(self, catalog, config):
        """A chained select splits its candidate input; its column scan
        stays shared (Section 2.2's two select representations)."""
        b = PlanBuilder(catalog)
        s1 = b.select(b.scan("facts", "val"), RangePredicate(hi=900))
        s2 = b.select(b.scan("facts", "qty"), RangePredicate(hi=30), candidates=s1)
        plan = b.build(b.aggregate("count", s2))
        serial = execute(plan, config)
        __, applied = mutate_n(plan, config, 8)
        assert applied
        final = execute(plan, config)
        assert intermediates_equal(final.outputs[0], serial.outputs[0])
        # A select *with a candidate input* never slices its column;
        # only the head select of a chain partitions the column itself.
        for node in plan.nodes():
            if node.kind == "select" and len(node.inputs) == 2:
                assert node.inputs[0].kind == "scan"


class TestAdvancedMutation:
    def test_groupby_gets_partials_and_merge(self, catalog, config):
        plan = groupby_plan(catalog)
        serial = execute(plan, config)
        __, applied = mutate_n(plan, config, 3)
        assert any(r.scheme == "advanced" for r in applied)
        assert plan.count_kind("aggr_merge") >= 1
        mutated = execute(plan, config)
        assert intermediates_equal(mutated.outputs[0], serial.outputs[0])

    def test_aggregate_partials_merge(self, catalog, config):
        plan = select_sum_plan(catalog)
        serial = execute(plan, config)
        __, applied = mutate_n(plan, config, 15)
        kinds = {r.scheme for r in applied}
        assert "advanced" in kinds or plan.count_kind("aggregate") > 1
        mutated = execute(plan, config)
        assert intermediates_equal(mutated.outputs[0], serial.outputs[0])


class TestMediumMutation:
    def test_pack_removed_and_consumer_cloned(self, catalog, config):
        plan = select_sum_plan(catalog)
        __, applied = mutate_n(plan, config, 20)
        assert any(r.scheme == "medium" for r in applied)

    def test_join_parallelized_on_outer(self, catalog, config):
        plan = join_plan(catalog)
        serial = execute(plan, config)
        __, applied = mutate_n(plan, config, 8)
        assert applied
        joins = [n for n in plan.nodes() if n.kind == "join"]
        assert len(joins) >= 2  # the join was cloned
        mutated = execute(plan, config)
        assert intermediates_equal(mutated.outputs[0], serial.outputs[0])

    def test_fanin_limit_suppresses_removal(self, catalog, config):
        plan = select_sum_plan(catalog)
        mutator = PlanMutator(plan, pack_fanin_limit=2)
        profile = execute(plan, config).profile
        for __ in range(20):
            result = mutator.mutate(profile)
            if result is None:
                break
            validate_plan(plan)
            profile = execute(plan, config).profile
        oversized = [
            n for n in plan.nodes() if n.kind == "pack" and len(n.inputs) > 2
        ]
        if oversized:
            # Medium mutation must refuse to remove an oversized union
            # and record the suppression (the plan-explosion guard).
            assert mutator._apply_medium(oversized[0]) is None
            assert oversized[0].nid in mutator.suppressed_packs


class TestMutatorBookkeeping:
    def test_no_mutation_on_tiny_inputs(self, config):
        cat = Catalog()
        cat.add(Table.from_arrays("t", {"v": (LNG, np.array([1]))}))
        b = PlanBuilder(cat)
        plan = b.build(b.aggregate("sum", b.scan("t", "v")))
        profile = execute(plan, config).profile
        # The single-row aggregate cannot be split (min_tuples guard).
        assert list(expensive_candidates(plan, profile, min_tuples=2)) == []

    def test_blocked_nodes_are_skipped(self, catalog, config):
        plan = select_sum_plan(catalog)
        mutator = PlanMutator(plan)
        profile = execute(plan, config).profile
        first = mutator.mutate(profile)
        assert first is not None
        mutator.blocked.update(n.nid for n in plan.nodes())
        assert mutator.mutate(profile) is None

    @pytest.mark.parametrize("build", [select_sum_plan, groupby_plan, join_plan])
    def test_consumer_map_tracks_every_edit(self, catalog, config, build):
        """The per-call consumer map, kept current through clone
        attachment, always equals one rebuilt from the plan."""

        def reader_sets(readers):
            return {
                nid: sorted(node.nid for node in lst)
                for nid, lst in readers.lists.items()
            }

        class Checked(PlanMutator):
            def _attach_clones(self, old, clones, combiner):
                top = super()._attach_clones(old, clones, combiner)
                current = reader_sets(self._readers)
                assert current == reader_sets(_Readers(self.plan))
                assert all(len(set(v)) == len(v) for v in current.values())
                return top

        plan = build(catalog)
        mutator = Checked(plan)
        profile = execute(plan, config).profile
        for __ in range(12):
            if mutator.mutate(profile) is None:
                break
            profile = execute(plan, config).profile
        assert len(plan.nodes()) > 10

    def test_produces_scalar_analysis(self, catalog):
        b = PlanBuilder(catalog)
        lit = b.literal(5)
        agg = b.aggregate("sum", b.scan("facts", "val"))
        combo = b.calc("*", lit, agg)
        vec = b.calc("+", b.scan("facts", "val"), lit)
        assert produces_scalar(lit)
        assert produces_scalar(agg)
        assert produces_scalar(combo)
        assert not produces_scalar(vec)
        assert not produces_scalar(b.scan("facts", "val"))
