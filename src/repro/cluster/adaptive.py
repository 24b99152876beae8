"""Placement-aware adaptive parallelization for the cluster.

The paper's adaptive loop mutates one dimension: intra-node degree of
parallelism.  On a cluster a second dimension appears -- *where* each
shard's subplan runs -- and skewed shard maps make it the dominant one:
a node holding twice its fair share of rows finishes last and the whole
query waits on the straggler.

:class:`ClusterMutator` extends the mutation surface without touching
the paper's machinery.  Per invocation it first checks node balance on
the last run's profile (task spans carry sockets; sockets map to
nodes); when the busiest node exceeds the imbalance threshold it
re-homes one shard subplan from the hottest to the coolest node --
preferring the shard's replica (free, the data is already there) and
falling back to an :class:`~repro.operators.netexchange.Exchange` move
(paid, charged by the network model).  Once the nodes are balanced it
delegates to the inherited :class:`~repro.core.mutation.PlanMutator`,
so DOP mutations proceed exactly as on one machine.  Placement
mutations pass through the same analyzer firewall as DOP mutations:
a rewrite that breaks shard lineage is rolled back and recorded as a
rejection, never executed.

:class:`ClusterAdaptiveParallelizer` is the drop-in driver: the same
credit/debit (or bandit) loop and fault-retry runner, with each run
executed on a :class:`ClusterSimulator` (it overrides only ``_execute``).
"""

from __future__ import annotations

from ..config import SimulationConfig
from ..core.adaptive import AdaptiveParallelizer
from ..core.convergence import ConvergenceParams
from ..core.mutation import MutationRejection, MutationResult, PlanMutator
from ..engine.profiler import QueryProfile
from ..engine.scheduler import ExecutionResult
from ..errors import ClusterError
from ..plan.analysis import analyze_plan
from ..plan.graph import Plan
from ..storage.sharded import ShardMap
from .executor import cluster_execute
from .plans import move_shard, resolve_placements, shard_scans
from .spec import ClusterSpec

DEFAULT_IMBALANCE_THRESHOLD = 1.25


class ClusterMutator:
    """Placement mutations first, the paper's DOP mutations after.

    Duck-typed to :class:`~repro.core.mutation.PlanMutator`'s surface
    (``mutate`` / ``rejections`` / ``last_report``), which is all the
    adaptive driver touches.
    """

    def __init__(
        self,
        plan: Plan,
        dop: PlanMutator,
        cluster: ClusterSpec,
        shard_map: ShardMap,
        *,
        imbalance_threshold: float = DEFAULT_IMBALANCE_THRESHOLD,
        data_scale: float = 1.0,
    ) -> None:
        if imbalance_threshold <= 1.0:
            raise ClusterError(
                f"imbalance threshold must be > 1, got {imbalance_threshold}"
            )
        self.plan = plan
        self.dop = dop
        self.cluster = cluster
        self.shard_map = shard_map
        self.imbalance_threshold = imbalance_threshold
        self.data_scale = data_scale
        self._moved: set[int] = set()
        #: Shared with the inner DOP mutator: one rejection log.
        self.rejections: list[MutationRejection] = dop.rejections
        self.last_report = None
        #: Placement moves applied, for tests and result summaries.
        self.moves: list[MutationResult] = []
        self._seen_profile: QueryProfile | None = None
        self._busy: list[float] = []

    def mutate(self, profile: QueryProfile) -> MutationResult | None:
        placement = self._placement_mutation(profile)
        if placement is not None:
            return placement
        result = self.dop.mutate(profile)
        self.last_report = self.dop.last_report
        return result

    # ------------------------------------------------------------------
    def node_busy(self, profile: QueryProfile) -> list[float]:
        """Busy simulated seconds per node in the profiled run."""
        busy = [0.0] * self.cluster.nodes
        for record in profile.records:
            node = self.cluster.node_of_socket(record.socket_id)
            busy[node] += record.end - record.start
        return busy

    def _placement_mutation(
        self, profile: QueryProfile
    ) -> MutationResult | None:
        if self.cluster.nodes == 1:
            return None
        if profile is not self._seen_profile:
            self._seen_profile = profile
            self._busy = self.node_busy(profile)
        # The working copy survives across mutate() calls of one run
        # batch: several mutations are applied against the same profile,
        # so each accepted move updates the estimate in place.
        busy = self._busy
        mean = sum(busy) / len(busy)
        if mean <= 0.0:
            return None
        if max(busy) / mean <= self.imbalance_threshold:
            return None
        hot = busy.index(max(busy))
        pick = self._pick_move(hot, busy)
        if pick is None:
            return None
        shard, dst, transfer = pick
        scans = shard_scans(self.plan, shard.index)
        before = [
            (node.op, node.op.placement)
            for node in self.plan.nodes()
            if node.kind in ("scan", "exchange")
        ]
        snapshot = [
            (node, list(node.inputs)) for node in self.plan.nodes()
        ]
        outputs = list(self.plan.outputs)
        scheme = move_shard(self.plan, shard, dst)
        result = MutationResult(
            scheme=scheme,
            target_nid=scans[0].nid,
            target_kind="scan",
            description=(
                f"shard{shard.index} [{shard.lo},{shard.hi}) "
                f"n{hot} -> n{dst}"
            ),
            clones=0,
        )
        report = analyze_plan(self.plan)
        self.last_report = report
        if report.has_errors:
            # Same firewall as DOP mutations: roll back, record, and
            # let the DOP walk have this invocation instead.
            for op, placement in before:
                op.placement = placement
            for node, inputs in snapshot:
                node.inputs = inputs
            self.plan.outputs = outputs
            self.rejections.append(MutationRejection(result, report))
            fallback = self.dop.mutate(profile)
            self.last_report = self.dop.last_report
            return fallback
        self.moves.append(result)
        self._moved.add(shard.index)
        busy[hot] -= transfer
        busy[dst] += transfer
        return result

    def _shards_effectively_on(self, node_id: int):
        """Shards whose work currently runs on ``node_id``."""
        placements = resolve_placements(self.plan, self.cluster.nodes)
        found = []
        for shard in self.shard_map.shards:
            scans = shard_scans(self.plan, shard.index)
            if not scans:
                continue
            where = placements[scans[0].nid]
            # An exchange after the scan re-homes the shard's work even
            # though the scan itself stays with the data.
            for node in self.plan.nodes():
                if (
                    node.kind == "exchange"
                    and node.inputs
                    and node.inputs[0] is scans[0]
                ):
                    where = placements[node.nid]
                    break
            if where == node_id:
                found.append(shard)
        return found

    def _pick_move(self, hot: int, busy: list[float]):
        """Choose ``(shard, dst, transfer_estimate)`` off the hot node.

        A shard's busy contribution is estimated proportional to its
        rows.  A destination qualifies only when receiving the shard
        leaves it *strictly below* the hot node's current load -- the
        move must lower the max over its two endpoints, which rules out
        both overshooting and ping-pong.  Free moves (the destination
        already holds a copy of the shard) are preferred over paid ones
        (an exchange, whose estimated wire time is charged to the
        destination before it can qualify); among equals, the largest
        shard wins.  Each shard is re-homed at most once per search, so
        estimate error can never ping-pong a shard between two nodes.
        """
        candidates = [
            s
            for s in self._shards_effectively_on(hot)
            if s.index not in self._moved
        ]
        rows_on_hot = sum(len(s) for s in candidates)
        if not candidates or rows_on_hot == 0:
            return None
        coolest = busy.index(min(busy))
        best = None
        best_key = None
        for shard in candidates:
            transfer = busy[hot] * len(shard) / rows_on_hot
            dsts = [
                (True, d) for d in shard.holders() if d != hot
            ] + [(False, coolest)]
            for free, dst in dsts:
                if dst == hot:
                    continue
                inbound = (
                    transfer
                    if free
                    else transfer + self._wire_estimate(shard)
                )
                if busy[dst] + inbound >= busy[hot]:
                    continue
                key = (free, len(shard))
                if best_key is None or key > best_key:
                    best = (shard, dst, transfer)
                    best_key = key
                break  # first qualifying destination per shard
        return best

    def _wire_estimate(self, shard) -> float:
        """Seconds a paid move of ``shard`` spends on the wire."""
        scans = shard_scans(self.plan, shard.index)
        nbytes = len(shard) * 8 * max(len(scans), 1) * self.data_scale
        link = self.cluster.link
        return link.latency_s + nbytes / (link.bandwidth_gbps * 1e9)


class ClusterAdaptiveParallelizer(AdaptiveParallelizer):
    """The adaptive loop of the paper, running on a simulated cluster.

    ``config`` describes one node (defaults to a
    :class:`~repro.config.SimulationConfig` over ``cluster.node``); the
    convergence budget defaults to the *cluster-wide* thread count,
    since that is the DOP ceiling adaptive parallelization explores.
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        shard_map: ShardMap,
        config: SimulationConfig | None = None,
        *,
        imbalance_threshold: float = DEFAULT_IMBALANCE_THRESHOLD,
        **kwargs,
    ) -> None:
        if config is None:
            config = SimulationConfig(machine=cluster.node)
        elif config.machine != cluster.node:
            raise ClusterError(
                "config.machine must equal cluster.node "
                f"({cluster.node.name!r})"
            )
        kwargs.setdefault(
            "convergence",
            ConvergenceParams(number_of_cores=cluster.total_threads),
        )
        super().__init__(config, **kwargs)
        self.cluster = cluster
        self.shard_map = shard_map
        self.imbalance_threshold = imbalance_threshold

    def _make_mutator(self, working: Plan) -> ClusterMutator:
        return ClusterMutator(
            working,
            PlanMutator(working, pack_fanin_limit=self.pack_fanin_limit),
            self.cluster,
            self.shard_map,
            imbalance_threshold=self.imbalance_threshold,
            data_scale=self.config.data_scale,
        )

    def _execute(self, plan: Plan, config: SimulationConfig) -> ExecutionResult:
        return cluster_execute(
            plan,
            self.cluster,
            config,
            memo=self.memo,
            evalpool=self.evalpool,
            faults=self.faults,
            trace=self.observe,
        )
