"""Plan mutation: the basic, medium, and advanced schemes (paper §2.1).

Every mutation turns the current plan into a slightly more parallel one
by operating on the single most expensive operator:

* **basic** -- clone a partitionable operator over a split of its
  range-partitioned input; a (new or existing) exchange union packs the
  clone outputs (Figure 3; the join variant of Figure 4 partitions only
  the outer input).
* **advanced** -- clone a blocking operator (group-by, aggregation,
  sort) over a split of its input, pack the partials, and combine them
  above the pack (Figure 6).
* **medium** -- remove an expensive exchange union by propagating its
  inputs onto its data-flow dependent consumers, cloning each consumer
  per input (Figure 5).  Removal is suppressed once the union's fan-in
  exceeds :data:`DEFAULT_PACK_FANIN_LIMIT` (the paper's threshold of 15)
  to prevent plan explosion.

The mutator is stateful across runs of the same plan object: operators
whose mutation failed structurally (or packs past the threshold) are
blocked so the chooser falls through to the next most expensive one.

Every applied mutation is additionally vetted by the static plan
analyzer (:func:`repro.plan.analysis.analyze_plan`): a candidate whose
mutated plan carries ``error`` diagnostics is rolled back, recorded in
:attr:`PlanMutator.rejections`, and the chooser falls through to the
next candidate -- the analyzer is the correctness firewall between plan
morphing and execution.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..engine.profiler import QueryProfile
from ..errors import MutationError
from ..operators.aggregate import Aggregate
from ..operators.exchange import Pack
from ..operators.groupby import AggrMerge, GroupAggregate, merge_func_for
from ..operators.slice import FRACTION_UNITS, PartitionSlice
from ..operators.sort import Sort
from ..plan.analysis import AnalysisReport, PlanAnalysis, analyze_plan
from ..plan.graph import Plan, PlanNode
from .expensive import (
    PARTITIONED_INPUTS,
    MutationCandidate,
    candidates,
    mutation_scheme,
)

#: Paper Section 2.3: exchange unions with more inputs than this are not
#: removed by the medium mutation ("threshold in the current
#: implementation is 15 parameters").
DEFAULT_PACK_FANIN_LIMIT = 15

_SCALAR_KINDS = frozenset({"literal", "aggregate"})


def produces_scalar(node: PlanNode) -> bool:
    """Static shape analysis: does this node emit a scalar?"""
    if node.kind in _SCALAR_KINDS:
        return True
    if node.kind == "calc":
        return all(produces_scalar(child) for child in node.inputs)
    return False


@dataclass(frozen=True)
class MutationResult:
    """What a successful mutation did, for logging and tests."""

    scheme: str
    target_nid: int
    target_kind: str
    description: str
    clones: int


@dataclass(frozen=True)
class MutationRejection:
    """A mutation the analyzer rolled back, with the diagnostics why."""

    result: MutationResult
    report: AnalysisReport


#: Snapshot of the mutable plan structure: per-node input lists and
#: order keys, plus the output list.  Mutations only rewire edges and
#: create fresh nodes, so restoring this undoes any mutation (the fresh
#: nodes simply become unreachable).
_PlanSnapshot = tuple[list[tuple[PlanNode, list[PlanNode], int | None]], list[PlanNode]]


class _Readers:
    """Who reads each node of a plan (``nid`` -> consumer nodes).

    Built with one graph walk, in :meth:`Plan.consumers` order (plan
    topological), then kept current through the mutator's edits, which
    append new readers.  The mutator only depends on the order of lists
    it reads before the first edit of an attempt.
    """

    def __init__(self, plan: Plan) -> None:
        self.plan = plan
        self.lists: dict[int, list[PlanNode]] = {}
        for node in plan.nodes():  # topological: inputs are registered first
            self._register(node)

    def __call__(self, node: PlanNode) -> list[PlanNode]:
        return self.lists[node.nid]

    def _register(self, node: PlanNode) -> None:
        """Add a node entering the plan, and every fresh node it reads."""
        self.lists[node.nid] = []
        for child in node.inputs:
            if child.nid not in self.lists:
                self._register(child)
        for child in node.inputs:
            readers = self.lists[child.nid]
            if not readers or readers[-1] is not node:
                readers.append(node)

    def _prune(self, node: PlanNode) -> None:
        """Drop ``node`` once nothing reads it (unless it is an output);
        its inputs then lose a reader in turn."""
        if self.lists[node.nid] or node in self.plan.outputs:
            return
        del self.lists[node.nid]
        for child in dict.fromkeys(node.inputs):
            self.lists[child.nid].remove(node)
            self._prune(child)

    def spliced(self, pack: PlanNode, old: PlanNode, clones: list[PlanNode]) -> None:
        """``clones`` took ``old``'s slot among ``pack``'s inputs."""
        for clone in clones:
            if clone.nid not in self.lists:
                self._register(clone)
            self.lists[clone.nid].append(pack)
        self.lists[old.nid].remove(pack)
        self._prune(old)

    def replaced(self, old: PlanNode, new: PlanNode, consumers: list[PlanNode]) -> None:
        """``new`` took ``old``'s place for ``consumers`` and in the outputs."""
        if new.nid not in self.lists:
            self._register(new)
        self.lists[new.nid].extend(consumers)
        readers = self.lists[old.nid]
        for consumer in consumers:
            readers.remove(consumer)
        self._prune(old)


class PlanMutator:
    """Applies one mutation per call to :meth:`mutate`, in place.

    With ``analyze=True`` (the default) every applied mutation is
    checked by the static plan analyzer before it is accepted: if the
    mutated plan carries ``error`` diagnostics the mutation is rolled
    back, recorded in :attr:`rejections`, the target is blocked, and the
    next most expensive candidate is tried instead.
    """

    def __init__(
        self,
        plan: Plan,
        *,
        pack_fanin_limit: int = DEFAULT_PACK_FANIN_LIMIT,
        analyze: bool = True,
    ) -> None:
        self.plan = plan
        self.pack_fanin_limit = pack_fanin_limit
        self.analyze = analyze
        self.blocked: set[int] = set()
        self.suppressed_packs: set[int] = set()
        #: Mutations vetoed by the analyzer, in rejection order.
        self.rejections: list[MutationRejection] = []
        #: Analyzer report for the most recently *accepted* mutation.
        self.last_report: AnalysisReport | None = None
        #: The gate's per-node results, reused by the next analysis.
        self._analysis = PlanAnalysis()
        #: Consumer lists of ``plan``, built lazily once per mutate() call.
        self._readers: _Readers | None = None

    # ------------------------------------------------------------------
    def mutate(self, profile: QueryProfile) -> MutationResult | None:
        """Parallelize the most expensive mutable operator.

        Returns ``None`` when no operator in the plan can be mutated any
        further (the plan is fully parallelized or suppressed).
        """
        try:
            return self._mutate(profile)
        finally:
            self._readers = None  # valid for this call only

    def _mutate(self, profile: QueryProfile) -> MutationResult | None:
        for cand in candidates(self.plan, profile, blocked=self.blocked):
            snapshot = self._snapshot() if self.analyze else None
            result = self._apply(cand)
            if result is not None:
                if snapshot is None:
                    return result
                report = analyze_plan(
                    self.plan,
                    pack_fanin_limit=self.pack_fanin_limit,
                    reuse=self._analysis,
                )
                if not report.has_errors:
                    self.last_report = report
                    return result
                # The mutation broke a structural invariant: roll the
                # plan back and fall through to the next candidate.
                self._restore(snapshot)
                self.rejections.append(MutationRejection(result, report))
            self.blocked.add(cand.node.nid)
        return None

    def _reader_map(self) -> _Readers:
        """The consumer map of this mutate() call, built on first use."""
        if self._readers is None:
            self._readers = _Readers(self.plan)
        return self._readers

    def _consumers(self, node: PlanNode) -> list[PlanNode]:
        """Nodes that read ``node``."""
        return self._reader_map()(node)

    # ------------------------------------------------------------------
    def _snapshot(self) -> _PlanSnapshot:
        return (
            [(node, list(node.inputs), node.order_key) for node in self.plan.nodes()],
            list(self.plan.outputs),
        )

    def _restore(self, snapshot: _PlanSnapshot) -> None:
        saved, outputs = snapshot
        for node, inputs, order_key in saved:
            node.inputs = inputs
            node.order_key = order_key
        self.plan.outputs = outputs
        self._readers = None  # rebuilt from the restored plan on demand

    def _apply(self, cand: MutationCandidate) -> MutationResult | None:
        if cand.scheme == "basic":
            return self._apply_split(cand.node, combiner=None, scheme="basic")
        if cand.scheme == "advanced":
            return self._apply_split(
                cand.node, combiner=self._combiner_for(cand.node), scheme="advanced"
            )
        if cand.scheme == "medium":
            return self._apply_medium(cand.node)
        raise MutationError(f"unknown mutation scheme {cand.scheme!r}")

    # ------------------------------------------------------------------
    # Basic and advanced mutations (clone over a split input)
    # ------------------------------------------------------------------
    def _partitioned_indices(self, node: PlanNode) -> list[int] | None:
        if node.kind == "select":
            # A select with a candidate input processes only the
            # candidates: they are its partitioned input, and the column
            # slice stays shared (the clone restricts internally).  Only
            # the first select of a chain partitions the column itself.
            return [1] if len(node.inputs) == 2 else [0]
        spec = PARTITIONED_INPUTS.get(node.kind)
        if spec is None and node.kind not in PARTITIONED_INPUTS:
            return None
        if spec is not None:
            return list(spec)
        # "All vector inputs" (calc, groupby): scalar operands are shared.
        idxs = [
            i for i, child in enumerate(node.inputs) if not produces_scalar(child)
        ]
        return idxs or None

    def _apply_split(
        self, node: PlanNode, *, combiner, scheme: str
    ) -> MutationResult | None:
        part_idxs = self._partitioned_indices(node)
        if not part_idxs:
            return None
        # An expensive operator sitting directly behind an exchange union
        # is parallelized by *removing* the union and cloning the operator
        # per union input (the paper's second parallelization case:
        # "operator parallelization occurs as a result of ... the medium
        # mutation").  Splitting across the union instead would keep the
        # union as a barrier and freeze it in the plan.
        for idx in part_idxs:
            src = node.inputs[idx]
            if src.kind == "pack" and src.nid not in self.suppressed_packs:
                via_medium = self._apply_medium(src)
                if via_medium is not None:
                    return via_medium
        # A clone whose exchange union has reached the fan-in limit must
        # not grow that union further: once past the threshold the union
        # can never be removed (plan-explosion suppression) and ossifies
        # into a serial barrier.  Remove it *now*, while removal is still
        # allowed, and let the propagated clones keep evolving.
        consumers = self._consumers(node)
        if (
            node.order_key is not None
            and len(consumers) == 1
            and consumers[0].kind == "pack"
            and len(consumers[0].inputs) >= self.pack_fanin_limit
            and consumers[0].nid not in self.suppressed_packs
        ):
            via_medium = self._apply_medium(consumers[0])
            if via_medium is not None:
                return via_medium
        # When the partitioned input is produced by another mutable
        # operator, parallelize that producer first: range slices are only
        # ever laid over base data (or terminal intermediates), and the
        # parallelism then reaches this operator through the producer's
        # exchange union on a later run.  Slicing over a producer that
        # later turns into a union would freeze that union in the plan.
        for idx in part_idxs:
            src = node.inputs[idx]
            upstream = mutation_scheme(src.kind)
            if upstream == "basic":
                return self._apply_split(src, combiner=None, scheme="basic")
            if upstream == "advanced":
                return self._apply_split(
                    src, combiner=self._combiner_for(src), scheme="advanced"
                )
        # Establish the fraction bounds this operator currently covers.
        bounds: tuple[int, int] | None = None
        sources: dict[int, PlanNode] = {}
        for idx in part_idxs:
            src = node.inputs[idx]
            if src.kind == "slice" and self._consumers(src) == [node]:
                here = (src.op.lo, src.op.hi)
                sources[idx] = src.inputs[0]
            else:
                here = (0, FRACTION_UNITS)
                sources[idx] = src
            if bounds is None:
                bounds = here
            elif bounds != here:
                # Mixed partition lineages (e.g. one operand already
                # sliced, the other not) -- alignment cannot be preserved.
                return None
        assert bounds is not None
        lo, hi = bounds
        if hi - lo < 2:
            return None  # cannot split a single-unit range further
        mid = lo + (hi - lo) // 2
        left_inputs: list[PlanNode] = []
        right_inputs: list[PlanNode] = []
        for i, child in enumerate(node.inputs):
            if i in sources:
                base = sources[i]
                left_inputs.append(
                    PlanNode(PartitionSlice(lo, mid), [base], order_key=lo)
                )
                right_inputs.append(
                    PlanNode(PartitionSlice(mid, hi), [base], order_key=mid)
                )
            else:
                left_inputs.append(child)
                right_inputs.append(child)
        left = PlanNode(node.op.clone(), left_inputs, order_key=lo, label=node.label)
        right = PlanNode(node.op.clone(), right_inputs, order_key=mid, label=node.label)
        self._attach_clones(node, [left, right], combiner)
        return MutationResult(
            scheme=scheme,
            target_nid=node.nid,
            target_kind=node.kind,
            description=(
                f"{scheme}: split {node.describe()} at fraction "
                f"{mid / FRACTION_UNITS:.3f} of [{lo / FRACTION_UNITS:.3f}, "
                f"{hi / FRACTION_UNITS:.3f})"
            ),
            clones=2,
        )

    def _combiner_for(self, node: PlanNode):
        op = node.op
        if isinstance(op, GroupAggregate):
            return AggrMerge(merge_func_for(op.func))
        if isinstance(op, Aggregate):
            return Aggregate(merge_func_for(op.func))
        if isinstance(op, Sort):
            return Sort(descending=op.descending, by=op.by)
        raise MutationError(f"no combiner for operator kind {node.kind!r}")

    def _attach_clones(self, old: PlanNode, clones: list[PlanNode], combiner) -> PlanNode:
        """Wire clone outputs back into the plan.

        When ``old`` is itself a clone (it has an order key) whose sole
        consumer is an exchange union, the clones slot into that union at
        ``old``'s position -- this is how one union ends up combining all
        partitions of a dynamically partitioned operator.  Otherwise a
        new union (plus combiner for blocking operators) replaces ``old``.
        """
        readers = self._reader_map()
        consumers = readers(old)
        if (
            old.order_key is not None
            and len(consumers) == 1
            and consumers[0].kind == "pack"
            and consumers[0].inputs.count(old) == 1
            and old not in self.plan.outputs
        ):
            pack_node = consumers[0]
            slot = pack_node.inputs.index(old)
            pack_node.inputs[slot : slot + 1] = clones
            readers.spliced(pack_node, old, clones)
            return pack_node
        pack_node = PlanNode(Pack(), clones)
        top = pack_node
        if combiner is not None:
            top = PlanNode(combiner, [pack_node])
        # ``old``'s readers are known: rewire them directly rather than
        # through Plan.replace_node, which walks the plan to find them.
        consumers = list(consumers)
        for node in consumers:
            node.inputs = [top if child is old else child for child in node.inputs]
        self.plan.outputs = [top if out is old else out for out in self.plan.outputs]
        readers.replaced(old, top, consumers)
        return top

    # ------------------------------------------------------------------
    # Medium mutation (exchange union removal)
    # ------------------------------------------------------------------
    def _apply_medium(self, pack_node: PlanNode) -> MutationResult | None:
        fanin = len(pack_node.inputs)
        if fanin > self.pack_fanin_limit:
            self.suppressed_packs.add(pack_node.nid)
            return None
        if pack_node in self.plan.outputs:
            return None
        consumers = self._consumers(pack_node)
        if not consumers:
            return None
        plans = []
        for consumer in consumers:
            actions = self._plan_consumer_clones(pack_node, consumer)
            if actions is None:
                return None
            plans.append((consumer, actions))
        # All consumers can be rewritten: apply atomically.
        total_clones = 0
        for consumer, per_input in plans:
            clones = []
            for i in range(fanin):
                clone_inputs = []
                for slot, source in enumerate(per_input):
                    if source == "pack":
                        clone_inputs.append(pack_node.inputs[i])
                    elif source == "zip":
                        clone_inputs.append(consumer.inputs[slot].inputs[i])
                    else:  # shared
                        clone_inputs.append(consumer.inputs[slot])
                key = pack_node.inputs[i].order_key
                clones.append(
                    PlanNode(
                        consumer.op.clone(),
                        clone_inputs,
                        order_key=key if key is not None else i,
                        label=consumer.label,
                    )
                )
            combiner = None
            if consumer.kind in ("groupby", "aggregate", "sort"):
                combiner = self._combiner_for(consumer)
            # _attach_clones flattens: when the consumer is itself a
            # partial feeding an existing union, its clones slot into
            # that union (and the combiner above it already exists).
            self._attach_clones(consumer, clones, combiner)
            total_clones += fanin
        return MutationResult(
            scheme="medium",
            target_nid=pack_node.nid,
            target_kind="pack",
            description=(
                f"medium: removed pack #{pack_node.nid} (fan-in {fanin}), "
                f"cloned {len(plans)} consumer(s)"
            ),
            clones=total_clones,
        )

    def _plan_consumer_clones(
        self, pack_node: PlanNode, consumer: PlanNode
    ) -> list[str] | None:
        """Decide, per input slot of ``consumer``, how clones bind it.

        Returns a list of "pack" (this slot reads the removed union's
        i-th input), "zip" (this slot reads the i-th input of a
        *matching* union with identical partition boundaries), or
        "shared" (the clone shares the original input) -- or ``None``
        when the consumer cannot be cloned.
        """
        kind = consumer.kind
        slots: list[str] = []
        for slot, child in enumerate(consumer.inputs):
            if child is pack_node:
                slots.append("pack")
            elif self._matching_pack(pack_node, child):
                slots.append("zip")
            else:
                slots.append("shared")
        pack_slots = [i for i, s in enumerate(slots) if s == "pack"]
        if not pack_slots:
            return None
        if all(produces_scalar(child) for child in pack_node.inputs):
            # A union of scalar partials is already minimal: cloning its
            # combiner per scalar gains nothing and churns the plan.
            return None
        if kind == "select":
            # Only the candidate input (slot 1) may be partitioned.
            return slots if pack_slots == [1] else None
        if kind in ("fetch", "join", "semijoin", "mirror", "heads", "aggregate", "sort"):
            return slots if pack_slots == [0] else None
        if kind == "calc":
            # Every vector operand must be partition-aligned.
            for slot, s in enumerate(slots):
                if s == "shared" and not produces_scalar(consumer.inputs[slot]):
                    return None
            return slots
        if kind == "groupby":
            for slot, s in enumerate(slots):
                if s == "shared":
                    return None  # keys and values must both be partitioned
            return slots
        return None

    def _matching_pack(self, pack_node: PlanNode, other: PlanNode) -> bool:
        """True when ``other`` is a union with identical partition keys,
        so clone ``i`` may zip this union's ``i``-th input."""
        if other is pack_node:
            return True
        if other.kind != "pack" or len(other.inputs) != len(pack_node.inputs):
            return False
        keys_a = [child.order_key for child in pack_node.inputs]
        keys_b = [child.order_key for child in other.inputs]
        if any(k is None for k in keys_a) or any(k is None for k in keys_b):
            return False
        return keys_a == keys_b
