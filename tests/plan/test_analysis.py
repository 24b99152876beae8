"""The static plan analyzer: passes, rules, and mutation gating."""

from __future__ import annotations

import json

import pytest

from repro.core import MutationRejection, PlanMutator
from repro.engine import execute
from repro.errors import PlanError
from repro.operators import RangePredicate
from repro.operators.aggregate import Aggregate
from repro.operators.calc import Calc
from repro.operators.exchange import Pack
from repro.operators.groupby import AggrMerge
from repro.operators.literal import Literal
from repro.operators.netexchange import Exchange
from repro.operators.project import Fetch
from repro.operators.scan import Scan
from repro.operators.select import Select
from repro.operators.slice import FRACTION_UNITS, PartitionSlice, ValuePartition
from repro.operators.sort import Sort, TopN
from repro.plan import PlanBuilder, analyze_plan, to_json, validate_plan
from repro.plan.analysis import AnalysisReport, Diagnostic, PlanAnalysis
from repro.plan.graph import Plan, PlanNode
from repro.plan.validate import arity_of, unknown_operators


def build_sum_plan(catalog):
    """select -> fetch -> sum, the simplest mutable pipeline."""
    b = PlanBuilder(catalog)
    sel = b.select(b.scan("facts", "val"), RangePredicate(hi=500))
    return b.build(b.aggregate("sum", b.fetch(sel, b.scan("facts", "qty"))))


def build_group_plan(catalog):
    b = PlanBuilder(catalog)
    sel = b.select(b.scan("facts", "val"), RangePredicate(hi=500))
    keys = b.fetch(sel, b.scan("facts", "fk"))
    vals = b.fetch(sel, b.scan("facts", "qty"))
    return b.build(b.group_aggregate("sum", keys, vals))


def mutate(plan, config, steps):
    mutator = PlanMutator(plan)
    profile = execute(plan, config).profile
    for __ in range(steps):
        if mutator.mutate(profile) is None:
            break
        profile = execute(plan, config).profile
    return mutator


def half_split(scan_node):
    """Two half slices over ``scan_node`` with proper order keys."""
    mid = FRACTION_UNITS // 2
    lo = PlanNode(PartitionSlice(0, mid), [scan_node], order_key=0)
    hi = PlanNode(PartitionSlice(mid, FRACTION_UNITS), [scan_node], order_key=mid)
    return lo, hi


def fetch_branches(catalog):
    """Two fetch clones over a half-split select (BAT branches)."""
    val = catalog.column("facts", "val")
    qty = catalog.column("facts", "qty")
    scan_val = PlanNode(Scan(val), label="facts.val")
    scan_qty = PlanNode(Scan(qty), label="facts.qty")
    lo, hi = half_split(scan_val)
    branches = []
    for part in (lo, hi):
        sel = PlanNode(Select(RangePredicate(hi=500)), [part], order_key=part.order_key)
        branches.append(
            PlanNode(Fetch(), [sel, scan_qty], order_key=part.order_key)
        )
    return branches


class TestReport:
    def test_clean_report(self, small_catalog):
        report = analyze_plan(build_sum_plan(small_catalog))
        assert not report.diagnostics
        assert not report.has_errors and not report.has_warnings
        assert report.summary() == "clean"

    def test_report_accessors(self):
        diags = (
            Diagnostic("partition.gap", "error", "gap", (1, 2)),
            Diagnostic("lint.pack-fanin", "warn", "big", (3,), hint="shrink"),
            Diagnostic("determinism.unordered-pack", "info", "meh", ()),
        )
        report = AnalysisReport(diags)
        assert [d.rule for d in report.errors] == ["partition.gap"]
        assert [d.rule for d in report.warnings] == ["lint.pack-fanin"]
        assert [d.rule for d in report.infos] == ["determinism.unordered-pack"]
        assert report.summary() == "1 error(s), 1 warning(s), 1 info"
        assert report.rules == {
            "partition.gap", "lint.pack-fanin", "determinism.unordered-pack",
        }
        assert [d.rule for d in report.by_rule("partition.gap")] == ["partition.gap"]
        dicts = report.to_dicts()
        assert dicts[0]["severity"] == "error" and dicts[0]["nodes"] == [1, 2]
        assert "shrink" in diags[1].format()

    def test_mutated_plans_stay_clean(self, small_catalog, sim_config):
        plan = build_group_plan(small_catalog)
        mutate(plan, sim_config, 6)
        report = analyze_plan(plan)
        assert not report.has_errors, report.format()
        assert not report.has_warnings, report.format()


class TestLineagePass:
    def test_arity_error(self, small_catalog):
        plan = build_sum_plan(small_catalog)
        plan.outputs[0].inputs.append(plan.nodes()[0])
        report = analyze_plan(plan)
        assert "lineage.arity" in report.rules

    def test_type_impossible_edge(self, small_catalog):
        # sort over a candidate list: selections emit oids, not values.
        b = PlanBuilder(small_catalog)
        sel = b.select(b.scan("facts", "val"), RangePredicate(hi=500))
        plan = Plan()
        out = PlanNode(Sort(), [sel])
        plan.set_outputs([out])
        report = analyze_plan(plan)
        assert "lineage.input-type" in report.rules

    def test_pack_family_mix(self, small_catalog):
        b = PlanBuilder(small_catalog)
        sel = b.select(b.scan("facts", "val"), RangePredicate(hi=500))
        bat = b.fetch(sel, b.scan("facts", "qty"))
        pack = PlanNode(Pack(), [sel, bat])
        plan = Plan()
        plan.set_outputs([pack])
        report = analyze_plan(plan)
        assert "lineage.pack-mix" in report.rules

    def test_unknown_operator_is_info_not_error(self, small_catalog):
        class Exotic:
            kind = "exotic"

            def describe(self):
                return "exotic()"

        plan = build_sum_plan(small_catalog)
        plan.outputs[0].inputs[0] = PlanNode(
            Exotic(), [plan.outputs[0].inputs[0]]
        )
        report = analyze_plan(plan)
        assert not report.has_errors
        assert "lineage.unknown-op" in report.rules


class TestArityTable:
    def test_subclass_falls_back_through_mro(self):
        class FancySelect(Select):
            pass

        assert arity_of(FancySelect(RangePredicate(hi=1))) == arity_of(
            Select(RangePredicate(hi=1))
        )

    def test_unknown_type_returns_none(self):
        class Alien:
            kind = "alien"

        assert arity_of(Alien()) is None

    def test_unknown_operators_helper(self, small_catalog):
        class Alien:
            kind = "alien"

            def describe(self):
                return "alien()"

        plan = build_sum_plan(small_catalog)
        assert unknown_operators(plan) == []
        plan.outputs[0].inputs[0] = PlanNode(Alien(), [plan.outputs[0].inputs[0]])
        assert [n.kind for n in unknown_operators(plan)] == ["alien"]


class TestPartitionPass:
    def test_gap_detected(self, small_catalog, sim_config):
        plan = build_sum_plan(small_catalog)
        mutate(plan, sim_config, 4)
        target = next(
            n for n in plan.nodes()
            if isinstance(n.op, PartitionSlice) and n.op.lo > 0
        )
        target.op = PartitionSlice(target.op.lo + FRACTION_UNITS // 16, target.op.hi)
        assert "partition.gap" in analyze_plan(plan).rules

    def test_overlap_detected(self, small_catalog, sim_config):
        plan = build_sum_plan(small_catalog)
        mutate(plan, sim_config, 4)
        target = next(
            n for n in plan.nodes()
            if isinstance(n.op, PartitionSlice) and n.op.lo > 0
        )
        target.op = PartitionSlice(target.op.lo - FRACTION_UNITS // 16, target.op.hi)
        assert "partition.overlap" in analyze_plan(plan).rules

    def test_missing_partition_fails_output_coverage(self, small_catalog):
        # Only half of the base ever reaches the output.
        branches = fetch_branches(small_catalog)
        pack = PlanNode(Pack(), branches[:1])
        plan = Plan()
        plan.set_outputs([pack])
        assert "partition.coverage" in analyze_plan(plan).rules

    def test_full_tiling_is_clean(self, small_catalog):
        pack = PlanNode(Pack(), fetch_branches(small_catalog))
        plan = Plan()
        plan.set_outputs([pack])
        report = analyze_plan(plan)
        assert not report.has_errors, report.format()

    def test_swapped_branches_are_out_of_order_but_cover_the_base(
        self, small_catalog
    ):
        pack = PlanNode(Pack(), fetch_branches(small_catalog)[::-1])
        plan = Plan()
        plan.set_outputs([pack])
        rules = analyze_plan(plan).rules
        assert "partition.order" in rules
        # The union still spans the whole base: no coverage error, and
        # in slice order the halves tile it.
        assert not rules & {"partition.coverage", "partition.gap", "partition.overlap"}

    @pytest.mark.parametrize(
        "bounds,expected",
        [
            (((0, 700), (700, 2_000)), set()),
            (((0, 700), (701, 2_000)), {"partition.gap"}),
            (((0, 700), (699, 2_000)), {"partition.overlap"}),
            # Same start, different ends: not a shared operand.
            (((0, 700), (0, 1_999)), {"partition.overlap", "partition.coverage"}),
            # 1/16 against 7/125: neither denominator divides the other.
            (((0, 125), (112, 2_000)), {"partition.overlap"}),
        ],
    )
    def test_partial_scans_tile_by_row_fractions(
        self, small_catalog, bounds, expected
    ):
        # Row fractions of a 2,000-row column: denominators that are not
        # powers of two, unlike slice fractions.
        val = small_catalog.column("facts", "val")
        scans = [PlanNode(Scan(val, lo, hi)) for lo, hi in bounds]
        plan = Plan()
        plan.set_outputs([PlanNode(Pack(), scans)])
        errors = {"partition.gap", "partition.overlap", "partition.coverage"}
        assert analyze_plan(plan).rules & errors == expected


class TestDeterminismPass:
    def test_unordered_pack_feeding_topn_is_race(self, small_catalog):
        branches = fetch_branches(small_catalog)
        for branch in branches:
            branch.order_key = None
        pack = PlanNode(Pack(), branches)
        plan = Plan()
        plan.set_outputs([PlanNode(TopN(5), [pack])])
        report = analyze_plan(plan)
        assert "determinism.race" in report.rules

    @pytest.mark.parametrize(
        "sink,rule",
        [
            (None, "determinism.unordered-output"),
            (TopN(5), "determinism.race"),
            (Aggregate("sum"), "determinism.unordered-pack"),
        ],
    )
    def test_packs_sharing_a_consumer_each_find_its_sink(
        self, small_catalog, sink, rule
    ):
        # The second pack's sink search walks what the first one walked;
        # only a search that found nothing may let later ones skip it.
        packs = []
        for __ in range(2):
            branches = fetch_branches(small_catalog)
            for branch in branches:
                branch.order_key = None
            packs.append(PlanNode(Pack(), branches))
        top = PlanNode(Calc("+"), packs)
        if sink is not None:
            top = PlanNode(sink, [top])
        plan = Plan()
        plan.set_outputs([top])
        rules = [d.rule for d in analyze_plan(plan).diagnostics]
        assert rules.count(rule) == 2, rules

    def test_ordered_pack_feeding_topn_is_clean(self, small_catalog):
        pack = PlanNode(Pack(), fetch_branches(small_catalog))
        plan = Plan()
        plan.set_outputs([PlanNode(TopN(5), [pack])])
        report = analyze_plan(plan)
        assert not report.has_errors, report.format()

    def test_wrong_merge_func_detected(self, small_catalog, sim_config):
        plan = build_group_plan(small_catalog)
        mutator = PlanMutator(plan)
        profile = execute(plan, sim_config).profile
        for __ in range(8):
            if mutator.mutate(profile) is None:
                break
            if any(isinstance(n.op, AggrMerge) for n in plan.nodes()):
                break
            profile = execute(plan, sim_config).profile
        merge = next(n for n in plan.nodes() if isinstance(n.op, AggrMerge))
        merge.op = AggrMerge("max" if merge.op.func != "max" else "min")
        assert "determinism.merge-func" in analyze_plan(plan).rules


class TestLintPass:
    def test_pack_fanin_warning(self, small_catalog, sim_config):
        plan = build_sum_plan(small_catalog)
        mutate(plan, sim_config, 6)
        pack = max(
            (n for n in plan.nodes() if n.kind == "pack"),
            key=lambda n: len(n.inputs),
        )
        report = analyze_plan(plan, pack_fanin_limit=len(pack.inputs) - 1)
        assert "lint.pack-fanin" in report.rules

    def test_duplicate_pack_input(self, small_catalog):
        branches = fetch_branches(small_catalog)
        pack = PlanNode(Pack(), [branches[0], branches[0]])
        plan = Plan()
        plan.set_outputs([pack])
        assert "lint.duplicate-input" in analyze_plan(plan).rules

    def test_no_outputs_is_error_not_raise(self):
        report = analyze_plan(Plan())
        assert "lint.no-outputs" in report.rules


class TestMutatorGating:
    def test_sabotaged_mutation_is_rejected_and_rolled_back(
        self, small_catalog, sim_config
    ):
        class SabotagedMutator(PlanMutator):
            """Simulates a buggy mutation scheme: every applied mutation
            additionally duplicates a pack input (double-counted rows)."""

            def _apply(self, cand):
                result = super()._apply(cand)
                if result is not None:
                    pack = next(
                        n for n in self.plan.nodes()
                        if n.kind == "pack" and len(n.inputs) >= 2
                    )
                    pack.inputs[0] = pack.inputs[1]
                return result

        plan = build_sum_plan(small_catalog)
        edges_before = [
            (n.nid, tuple(c.nid for c in n.inputs)) for n in plan.nodes()
        ]
        mutator = SabotagedMutator(plan)
        profile = execute(plan, sim_config).profile
        assert mutator.mutate(profile) is None
        assert mutator.rejections
        rejection = mutator.rejections[0]
        assert isinstance(rejection, MutationRejection)
        assert rejection.report.has_errors
        # the sabotage was rolled back: the plan is byte-identical
        edges_after = [
            (n.nid, tuple(c.nid for c in n.inputs)) for n in plan.nodes()
        ]
        assert edges_after == edges_before
        validate_plan(plan)
        assert not analyze_plan(plan).has_errors

    def test_accepted_mutations_record_clean_reports(
        self, small_catalog, sim_config
    ):
        plan = build_sum_plan(small_catalog)
        mutator = mutate(plan, sim_config, 3)
        assert mutator.last_report is not None
        assert not mutator.last_report.has_errors
        assert mutator.rejections == []

    def test_analyze_false_skips_gating(self, small_catalog, sim_config):
        plan = build_sum_plan(small_catalog)
        mutator = PlanMutator(plan, analyze=False)
        profile = execute(plan, sim_config).profile
        assert mutator.mutate(profile) is not None
        assert mutator.last_report is None


class TestExecutorGate:
    def test_execute_analyze_refuses_broken_plan(self, small_catalog, sim_config):
        branches = fetch_branches(small_catalog)
        pack = PlanNode(Pack(), branches[:1])  # half the base is missing
        plan = Plan()
        plan.set_outputs([pack])
        with pytest.raises(PlanError, match="partition.coverage"):
            execute(plan, sim_config, analyze=True)

    def test_execute_analyze_runs_clean_plan(self, small_catalog, sim_config):
        plan = build_sum_plan(small_catalog)
        result = execute(plan, sim_config, analyze=True)
        assert result.outputs


class TestExportDiagnostics:
    def test_json_carries_diagnostics(self, small_catalog, sim_config):
        plan = build_sum_plan(small_catalog)
        mutate(plan, sim_config, 3)
        document = json.loads(to_json(plan, analyze=True))
        assert document["diagnostics"] == []
        target = next(
            n for n in plan.nodes()
            if isinstance(n.op, PartitionSlice) and n.op.lo > 0
        )
        target.op = PartitionSlice(target.op.lo + FRACTION_UNITS // 16, target.op.hi)
        document = json.loads(to_json(plan, analyze=True))
        rules = {d["rule"] for d in document["diagnostics"]}
        assert "partition.gap" in rules
        for diag in document["diagnostics"]:
            for index in diag["nodes"]:
                assert 0 <= index < len(document["nodes"])

    def test_json_without_analyze_has_no_key(self, small_catalog):
        document = json.loads(to_json(build_sum_plan(small_catalog)))
        assert "diagnostics" not in document


class TestBuilderValidates:
    def test_build_rejects_bad_arity(self, small_catalog):
        b = PlanBuilder(small_catalog)
        sel = b.select(b.scan("facts", "val"), RangePredicate(hi=500))
        sel.inputs.append(b.scan("facts", "qty"))
        sel.inputs.append(b.scan("facts", "fk"))
        with pytest.raises(PlanError, match="inputs"):
            b.build(sel)


def assert_reuse_matches(plan, analysis):
    """A reusing run agrees with a from-scratch run on every diagnostic
    (in order) and on every published fact; returns its report."""
    report = analyze_plan(plan, reuse=analysis)
    fresh = PlanAnalysis()
    expected = analyze_plan(plan, reuse=fresh)
    assert report.diagnostics == expected.diagnostics
    assert analysis._facts == fresh._facts
    return report


def calc_chain(node, length):
    """``length`` Calc(+1) nodes stacked on ``node`` (intervals, shapes and
    value-partition walks all pass through them)."""
    for __ in range(length):
        node = PlanNode(Calc("+"), [node, PlanNode(Literal(1))], order_key=node.order_key)
    return node


class TestIncrementalReuse:
    """Each reuse path of ``analyze_plan(reuse=...)`` on a hand-made edit
    that only that path notices."""

    def test_unchanged_plan_revisits_nothing(self, small_catalog, sim_config):
        plan = build_group_plan(small_catalog)
        analysis = mutate(plan, sim_config, 6)._analysis
        assert_reuse_matches(plan, analysis)
        assert analysis.changed == 0 and analysis.visits == 0

    def test_sink_search_reruns_after_edits_above_the_pack(self, small_catalog):
        branches = fetch_branches(small_catalog)
        for branch in branches:
            branch.order_key = None
        pack = PlanNode(Pack(), branches)
        plan = Plan()
        plan.set_outputs([pack])
        analysis = PlanAnalysis()
        assert "determinism.unordered-output" in assert_reuse_matches(plan, analysis).rules
        # A sort above absorbs the pack's order; nothing at or below the
        # pack changed, so only the volatile sink search can notice.
        plan.set_outputs([PlanNode(Sort(), [pack])])
        report = assert_reuse_matches(plan, analysis)
        assert "determinism.unordered-pack" in report.rules
        assert "determinism.unordered-output" not in report.rules

    def test_sink_search_follows_outputs_and_lost_consumers(self, small_catalog):
        branches = fetch_branches(small_catalog)
        for branch in branches:
            branch.order_key = None
        pack = PlanNode(Pack(), branches)
        above = calc_chain(pack, 2)
        total = PlanNode(Aggregate("sum"), [above])
        plan = Plan()
        plan.set_outputs([total])
        analysis = PlanAnalysis()
        assert "determinism.unordered-pack" in assert_reuse_matches(plan, analysis).rules
        # No node changes: the calc chain just becomes an output too.
        plan.set_outputs([total, above])
        assert "determinism.unordered-output" in assert_reuse_matches(plan, analysis).rules
        # A first-k reader makes it a race; dropping that reader again
        # (a lost consumer, seen only from below) absorbs the order.
        plan.set_outputs([total])
        topn = PlanNode(TopN(5), [above])
        plan.set_outputs([total, topn])
        assert "determinism.race" in assert_reuse_matches(plan, analysis).rules
        topn.inputs = [PlanNode(Scan(small_catalog.column("facts", "qty")))]
        report = assert_reuse_matches(plan, analysis)
        assert "determinism.unordered-pack" in report.rules
        assert "determinism.race" not in report.rules
        # The same through a reader that leaves the plan altogether.
        topn.inputs = [above]
        assert "determinism.race" in assert_reuse_matches(plan, analysis).rules
        plan.set_outputs([total])
        assert "determinism.unordered-pack" in assert_reuse_matches(plan, analysis).rules

    def test_relabelled_base_refreshes_deep_pack_findings(self, small_catalog):
        val = small_catalog.column("facts", "val")
        qty = small_catalog.column("facts", "qty")
        cands = PlanNode(Select(RangePredicate(hi=500)), [PlanNode(Scan(val))])
        base = PlanNode(Fetch(), [cands, PlanNode(Scan(qty))], label="before")
        mid = FRACTION_UNITS // 2
        branches = []
        for lo, hi in ((0, mid - 1), (mid, FRACTION_UNITS)):  # a gap
            part = PlanNode(PartitionSlice(lo, hi), [base], order_key=lo)
            branches.append(calc_chain(part, 6))
        plan = Plan()
        plan.set_outputs([PlanNode(Pack(), branches)])
        analysis = PlanAnalysis()
        before = assert_reuse_matches(plan, analysis)
        assert "partition.gap" in before.rules
        # The gap message quotes the base, seven levels below the pack.
        base.label = "after"
        after = assert_reuse_matches(plan, analysis)
        assert before.diagnostics != after.diagnostics

    def test_fact_changes_reach_every_reader(self, small_catalog):
        branches = fetch_branches(small_catalog)
        pack = PlanNode(Pack(), [calc_chain(b, 3) for b in branches])
        plan = Plan()
        plan.set_outputs([PlanNode(Aggregate("sum"), [pack])])
        analysis = PlanAnalysis()
        assert_reuse_matches(plan, analysis)
        # Rewire one select onto a narrower slice: its row bounds change,
        # and so do the shapes of everything above it.
        select = branches[1].inputs[0]
        old = select.inputs[0]
        hi = old.op.lo + (old.op.hi - old.op.lo) // 2
        select.inputs = [
            PlanNode(PartitionSlice(old.op.lo, hi), old.inputs, order_key=old.order_key)
        ]
        assert_reuse_matches(plan, analysis)
        assert analysis.visits > 2 * analysis.changed

    def test_placement_edit_counts_as_a_rename(self, small_catalog):
        val = small_catalog.column("facts", "val")
        qty = small_catalog.column("facts", "qty")
        cands = PlanNode(Select(RangePredicate(hi=500)), [PlanNode(Scan(val))])
        fetched = PlanNode(Fetch(), [cands, PlanNode(Scan(qty))])
        base = PlanNode(Exchange(1), [fetched])
        mid = FRACTION_UNITS // 2
        branches = [
            PlanNode(PartitionSlice(lo, hi), [base], order_key=lo)
            for lo, hi in ((0, mid - 1), (mid, FRACTION_UNITS))  # a gap
        ]
        plan = Plan()
        plan.set_outputs([PlanNode(Pack(), branches)])
        analysis = PlanAnalysis()
        before = assert_reuse_matches(plan, analysis)
        # Moved in place, as cluster placement mutations do: the gap
        # message quotes the exchange's new destination.
        base.op.placement = 2
        after = assert_reuse_matches(plan, analysis)
        gap = [d.message for d in after.diagnostics if d.rule == "partition.gap"]
        assert gap and "n2" in gap[0]
        assert before.diagnostics != after.diagnostics

    def test_combiner_rechecked_two_levels_above_a_rewired_partial(
        self, small_catalog
    ):
        val = small_catalog.column("facts", "val")
        source = PlanNode(Scan(val))
        count = PlanNode(Aggregate("count"), [source], order_key=0)
        total = PlanNode(Aggregate("sum"), [source], order_key=1)
        plan = Plan()
        plan.set_outputs([PlanNode(Aggregate("sum"), [PlanNode(Pack(), [count, total])])])
        analysis = PlanAnalysis()
        assert "determinism.mixed-partials" in assert_reuse_matches(plan, analysis).rules
        # The sum partial loses its input: no longer a scalar partial, while
        # the pack's own facts stay the same.
        total.inputs = []
        report = assert_reuse_matches(plan, analysis)
        assert "determinism.mixed-partials" not in report.rules

    def test_value_partition_chain_rechecked_five_levels_down(self, small_catalog):
        val = small_catalog.column("facts", "val")
        source = PlanNode(Scan(val))
        low = PlanNode(ValuePartition(None, 10), [source], order_key=0)
        high = PlanNode(ValuePartition(20, None), [source], order_key=1)  # a gap
        plan = Plan()
        plan.set_outputs([PlanNode(Pack(), [calc_chain(low, 4), calc_chain(high, 4)])])
        analysis = PlanAnalysis()
        assert "partition.value-coverage" in assert_reuse_matches(plan, analysis).rules
        # Reading a twin of the source (same shape, same facts) makes the
        # two partitions unrelated: the chain check no longer applies.
        high.inputs = [PlanNode(Scan(val))]
        report = assert_reuse_matches(plan, analysis)
        assert "partition.value-coverage" not in report.rules

    def test_other_passes_or_limits_start_afresh(self, small_catalog, sim_config):
        plan = build_group_plan(small_catalog)
        analysis = mutate(plan, sim_config, 4)._analysis
        nodes = len(plan.nodes())
        analyze_plan(plan, pack_fanin_limit=2, reuse=analysis)
        assert analysis.changed == nodes
        assert_reuse_matches(plan, analysis)
