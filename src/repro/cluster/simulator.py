"""The shared-nothing cluster simulator.

:class:`ClusterSimulator` extends the single-machine discrete-event
engine (:class:`~repro.engine.scheduler.Simulator`) with three things:

* **Placement-constrained dispatch.**  The flattened machine's socket
  group ``k`` is node ``k`` (:meth:`ClusterSpec.flatten`); dispatch
  claims threads only on an operator's effective node.  Collection
  order remains deterministic -- the ready queue is walked in order and
  the first entry whose node has a free thread wins -- so traces are a
  pure function of simulated state, never of host parallelism.

* **A network model.**  Cross-node transfers of the exchange-family
  operators (``exchange``/``gather``/``shuffle``) pay link latency once
  and then stream their bytes through the destination node's NIC, a
  processor-sharing resource: concurrent transfers toward one node
  split its ingress bandwidth evenly.  The transfer is a third work
  dimension on the task (next to cpu and memory): the operator
  completes only when all three are drained, so wire time flows through
  the same collect/evaluate/commit barrier and the same ``_advance``
  loop as every other cost -- bit-identical at any worker count or
  backend.

* **The node dimension.**  Multi-node runs stamp ``node`` on task spans
  and per-node counters on the metrics registry.  Single-node clusters
  emit *nothing* extra and delegate dispatch wholesale to the base
  engine: a ``nodes=1`` cluster run is byte-identical to the
  single-machine path, which the determinism matrix pins.

Chaos faults compose unchanged: an ``OPERATOR_EXCEPTION`` drawn against
an operator placed on node ``k`` *is* a node-``k`` failure (the
resilience layer maps it back through the placement table and retries
on the shard's replica), and a ``STRAGGLER`` on an exchange-family
operator also multiplies its wire bytes -- a slow link, not just a slow
core.
"""

from __future__ import annotations

import math

from ..analysis.sanitize import Sanitizer
from ..chaos.faults import FaultKind
from ..chaos.injector import FaultInjector
from ..config import SimulationConfig
from ..engine.evalpool import EvalPool
from ..engine.memo import IntermediateCache
from ..engine.scheduler import _EPS, Simulator, _PendingDispatch, _Task
from ..errors import ClusterError
from ..observe import Observer
from ..plan.graph import Plan
from .plans import NET_KINDS, resolve_placements
from .spec import ClusterSpec


class ClusterSimulator(Simulator):
    """A :class:`Simulator` over the flattened cluster machine."""

    def __init__(
        self,
        cluster: ClusterSpec,
        config: SimulationConfig,
        *,
        memo: IntermediateCache | None = None,
        evalpool: EvalPool | None = None,
        faults: FaultInjector | None = None,
        observe: Observer | None = None,
        sanitizer: Sanitizer | None = None,
    ) -> None:
        if config.machine != cluster.node:
            raise ClusterError(
                "config.machine must be the cluster's per-node spec "
                f"({cluster.node.name!r}), got {config.machine.name!r}"
            )
        super().__init__(
            cluster.sim_config(config),
            memo=memo,
            evalpool=evalpool,
            faults=faults,
            observe=observe,
            sanitizer=sanitizer,
        )
        self.cluster = cluster
        self._node_sockets = [
            cluster.sockets_of(i) for i in range(cluster.nodes)
        ]
        #: Effective placement per submission: sid -> {nid -> node}.
        self._placements: dict[int, dict[int, int]] = {}
        #: NIC ingress processor sharing: node -> active transfer count.
        self._link_demand: dict[int, int] = {}
        #: Running tasks with an active transfer (fast-path guard).
        self._net_count = 0

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def submit(self, plan: Plan, **kwargs) -> int:
        sid = super().submit(plan, **kwargs)
        if self.cluster.nodes > 1:
            sub = self._submissions[sid]
            if not sub.finished:
                self._placements[sid] = resolve_placements(
                    plan, self.cluster.nodes
                )
        return sid

    def node_of(self, sid: int, nid: int) -> int:
        """Effective node of plan node ``nid`` in submission ``sid``."""
        if self.cluster.nodes == 1:
            return 0
        return self._placements[sid][nid]

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _collect_dispatches(self) -> list[_PendingDispatch]:
        if self.cluster.nodes == 1:
            # Degenerate cluster: the base engine's exact collection
            # loop, preserving single-machine byte-identity.
            return super()._collect_dispatches()
        machine = self.machine
        total = len(machine.threads)
        node_sockets = self._node_sockets
        batch: list[_PendingDispatch] = []
        progress = True
        while progress:
            progress = False
            for sub in self._queue:
                if not sub.ready or sub.running >= sub.max_threads:
                    continue
                if machine.busy_count() == total:
                    return batch
                placements = self._placements[sub.sid]
                picked = -1
                # First ready operator whose node has a free thread; a
                # shard stalled behind a saturated node never blocks
                # work bound for an idle one.
                for i, node in enumerate(sub.ready):
                    thread = machine.pick_thread(
                        node_sockets[placements[node.nid]]
                    )
                    if thread is not None:
                        picked = i
                        break
                if picked < 0:
                    continue
                node = sub.ready[picked]
                del sub.ready[picked]
                machine.acquire(thread)
                sub.running += 1
                entry = _PendingDispatch(sub, node, thread)
                if self.faults is not None:
                    entry.fault = self.faults.draw_dispatch(
                        sid=sub.sid,
                        nid=sub.node_index[node.nid],
                        client=sub.client,
                        now=self.now,
                    )
                batch.append(entry)
                progress = True
        return batch

    def _commit_dispatch(self, entry, results) -> _Task | None:
        task = super()._commit_dispatch(entry, results)
        if task is None or self.cluster.nodes == 1:
            return task  # the dispatch failed, or the single-machine path
        kind = entry.sub.kind[entry.node.nid]
        if kind not in NET_KINDS:
            return task
        sub = entry.sub
        placements = self._placements[sub.sid]
        dst = placements[entry.node.nid]
        if kind == "shuffle":
            # A shuffle moves only the rows it keeps.
            src_remote = any(
                placements[child.nid] != dst for child in entry.node.inputs
            )
            output = sub.values.get(entry.node.nid)
            remote = output.nbytes if src_remote and output is not None else 0
        else:
            remote = sum(
                sub.values[child.nid].nbytes
                for child in entry.node.inputs
                if placements[child.nid] != dst
                and child.nid in sub.values
            )
        if remote <= 0:
            return task
        wire = remote * self.config.data_scale
        fault = entry.fault
        if fault is not None and fault.kind is FaultKind.STRAGGLER:
            # A straggler on an exchange-family operator is a slow
            # *link*: the wire bytes stretch with the same magnitude
            # the base engine applied to cpu/memory work.
            wire *= fault.magnitude
        task.net_rem = wire
        task.lat_rem = self.cluster.link.latency_s
        task.link = dst
        task.net_active = True
        self._link_demand[dst] = self._link_demand.get(dst, 0) + 1
        self._net_count += 1
        obs = self.observe
        if obs is not None:
            obs.metrics.counter(
                "repro_cluster_net_bytes_total",
                "simulated bytes crossing node links",
                node=f"n{dst}",
            ).inc(wire)
        return task

    # ------------------------------------------------------------------
    # Time advance (network-aware)
    # ------------------------------------------------------------------
    def _deactivate_net(self, task: _Task) -> None:
        task.net_active = False
        self._net_count -= 1
        demand = self._link_demand
        left = demand[task.link] - 1
        if left:
            demand[task.link] = left
        else:
            del demand[task.link]

    def _advance(self) -> None:
        if self._net_count == 0:
            # No transfer in flight: the base loop's float math, taken
            # verbatim -- identical rounding, identical traces.
            super()._advance()
            return
        tasks = self._tasks
        core_busy = self.machine._core_busy
        full_rate = self._full_rate
        ht_rate = self._ht_rate
        mem_rates = self._mem_rates
        link_bw = self.cluster.link.bandwidth_gbps * 1e9
        link_demand = self._link_demand
        eps = _EPS
        dt = math.inf
        for task in tasks:
            cpu_rate = full_rate if core_busy[task.core] == 1 else ht_rate
            mem_rate = mem_rates[task.rate_slot]
            cpu_rem = task.cpu_rem
            mem_rem = task.mem_rem
            cpu_t = cpu_rem / cpu_rate if cpu_rem > eps else 0.0
            mem_t = mem_rem / mem_rate if mem_rem > eps else 0.0
            horizon = cpu_t if cpu_t > mem_t else mem_t
            if task.net_active:
                net_rate = link_bw / link_demand[task.link]
                net_t = task.lat_rem + (
                    task.net_rem / net_rate if task.net_rem > eps else 0.0
                )
                if net_t > horizon:
                    horizon = net_t
                task.net_rate = net_rate
            task.cpu_rate = cpu_rate
            task.mem_rate = mem_rate
            task.horizon = horizon
            if horizon < dt:
                dt = horizon
        if self._timers:
            window = self._timers[0][0] - self.now
            if window < dt:
                dt = window if window > 0.0 else 0.0
        self.now += dt
        completed = []
        deadline = dt + eps
        for task in tasks:
            done = task.horizon <= deadline
            cpu_rem = task.cpu_rem - dt * task.cpu_rate
            mem_rem = task.mem_rem - dt * task.mem_rate
            if done:
                cpu_rem = 0.0
                mem_rem = 0.0
                completed.append(task)
            task.cpu_rem = cpu_rem if cpu_rem > 0.0 else 0.0
            task.mem_rem = mem_rem if mem_rem > 0.0 else 0.0
            if task.mem_active and mem_rem <= eps:
                self._deactivate_mem(task)
            if task.net_active:
                if done:
                    task.lat_rem = 0.0
                    task.net_rem = 0.0
                elif dt <= task.lat_rem:
                    # Still inside the latency window: no bytes flowed.
                    task.lat_rem -= dt
                else:
                    spill = dt - task.lat_rem
                    task.lat_rem = 0.0
                    net_rem = task.net_rem - spill * task.net_rate
                    task.net_rem = net_rem if net_rem > 0.0 else 0.0
                if done or (
                    task.lat_rem <= eps and task.net_rem <= eps
                ):
                    self._deactivate_net(task)
        for task in completed:
            self._complete(task)

    # ------------------------------------------------------------------
    # Observability (the node dimension)
    # ------------------------------------------------------------------
    def _task_span_attrs(self, task: _Task) -> dict:
        if self.cluster.nodes == 1:
            return {}
        return {"node": self.cluster.node_of_socket(task.socket)}

    def _complete(self, task: _Task) -> None:
        obs = self.observe
        sub = task.submission
        emit = (
            obs is not None
            and self.cluster.nodes > 1
            and sub.failed is None
        )
        node_id = (
            self.cluster.node_of_socket(task.socket) if emit else -1
        )
        super()._complete(task)
        if emit:
            obs.metrics.counter(
                "repro_cluster_node_tasks_total",
                "completed operator tasks per cluster node",
                node=f"n{node_id}",
            ).inc()
        if sub.finished:
            self._placements.pop(sub.sid, None)

    def _settle_failed(self, sub) -> None:
        super()._settle_failed(sub)
        self._placements.pop(sub.sid, None)
