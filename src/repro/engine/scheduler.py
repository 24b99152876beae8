"""The discrete-event data-flow scheduler.

Operators are dispatched once all their inputs are materialized and a
hardware thread is free (the paper's "data-flow graph based scheduling
policy").  Real results are computed eagerly at dispatch; the *duration*
of the operator is simulated with a roofline model:

* cpu work proceeds at the thread's compute rate (reduced when its
  hyperthread sibling is busy),
* memory work proceeds at the thread's bandwidth share -- a per-thread
  cap, further divided when the socket's sustained bandwidth is
  oversubscribed by concurrent memory-bound operators.

An operator finishes when *both* works are done.  Rates are recomputed at
every event, so resource contention from concurrent queries emerges
naturally -- this is what makes adaptively parallelized plans
"resource-contention aware" in the reproduction, as on real hardware.

Hot-path notes: the event loop runs once per operator dispatch and once
per completion, tens of thousands of times per adaptive instance, so the
per-event work is kept O(running tasks): ready queues are deques,
completed tasks are removed by swap-with-last, and the per-socket count
of memory-bound tasks (the bandwidth-sharing denominator) is maintained
incrementally instead of rescanning every task at every event.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

from ..analysis.sanitize import Sanitizer
from ..chaos.faults import FaultKind
from ..chaos.injector import FaultDecision, FaultInjector
from ..config import SimulationConfig
from ..costmodel.model import CostContext, compute_work, thread_bandwidth_cap
from ..errors import SchedulerError
from ..observe import Observer
from ..operators.base import Operator, WorkProfile
from ..plan.graph import Plan, PlanNode
from ..storage.column import Intermediate, intermediate_nbytes
from .evalpool import EvalFailure, EvalPool, settle_job
from .machine import HardwareThread, MachineState
from .memo import IntermediateCache
from .noise import NoiseModel
from .profiler import OpRecord, QueryProfile

_EPS = 1e-12


@dataclass
class ExecutionResult:
    """Values of a plan's output nodes plus the execution profile."""

    outputs: list[Intermediate]
    profile: QueryProfile

    @property
    def response_time(self) -> float:
        return self.profile.response_time


class PlanLayout:
    """The read-only scheduling skeleton of one plan.

    Everything a submission needs that depends on the plan alone: the
    initial input-wait and consumer counts, the consumer lists, the
    leaves, the output set and -- when the simulator needs them -- node
    fingerprints (memoization) and plan-relative node indices (fault
    injection).  A :class:`Simulator` builds one per distinct plan
    object and shares it between every submission of that plan, so a
    closed-loop client re-issuing a template pays two dict copies per
    submission instead of a plan copy and two graph walks.

    Submitted plans are therefore read-only: the scheduler keeps every
    per-execution value in the submission (keyed by ``nid``), never in
    the plan, and a plan must not be mutated while a simulator holds
    it.  Mutate a :meth:`~repro.plan.graph.Plan.copy` instead.
    """

    __slots__ = (
        "plan",
        "size",
        "waiting",
        "pending_consumers",
        "consumers",
        "is_output",
        "leaves",
        "fingerprints",
        "node_index",
    )

    def __init__(
        self, plan: Plan, *, fingerprints: bool = False, node_index: bool = False
    ) -> None:
        self.plan = plan
        nodes = plan.nodes()
        self.size = len(nodes)
        self.waiting: dict[int, int] = {}
        self.pending_consumers: dict[int, int] = {node.nid: 0 for node in nodes}
        self.consumers: dict[int, list[PlanNode]] = {}
        for node in nodes:
            self.waiting[node.nid] = len(node.inputs)
            for child in node.inputs:
                self.pending_consumers[child.nid] += 1
                self.consumers.setdefault(child.nid, []).append(node)
        self.is_output = frozenset(out.nid for out in plan.outputs)
        self.leaves = tuple(node for node in nodes if not node.inputs)
        # One shared O(nodes) walk; only needed when memoization is on.
        self.fingerprints: dict[int, bytes] = (
            plan.fingerprints(nodes) if fingerprints else {}
        )
        # Plan-relative node position (nid -> index in topological
        # order).  ``PlanNode.nid`` comes from a process-global counter,
        # so raw nids are not reproducible across runs; the fault
        # schedule records these stable indices instead.  Only needed
        # when fault injection is on.
        self.node_index: dict[int, int] = (
            {node.nid: i for i, node in enumerate(nodes)} if node_index else {}
        )


class _Submission:
    """One query instance inside the simulator.

    The plan-derived tables are shared with every other submission of
    the same plan through its :class:`PlanLayout`; only the two counter
    maps the event loop decrements are copied.
    """

    __slots__ = (
        "sid",
        "plan",
        "client",
        "max_threads",
        "on_complete",
        "on_failure",
        "failed",
        "profile",
        "values",
        "waiting",
        "pending_consumers",
        "remaining",
        "running",
        "ready",
        "is_output",
        "consumers",
        "live_bytes",
        "fingerprints",
        "node_index",
        "span",
    )

    def __init__(
        self,
        sid: int,
        layout: PlanLayout,
        submit_time: float,
        client: str,
        max_threads: int,
        on_complete: Callable[["_Submission"], None] | None,
        *,
        on_failure: Callable[[int, Exception], None] | None = None,
    ) -> None:
        self.sid = sid
        self.plan = layout.plan
        self.client = client
        self.max_threads = max_threads
        self.on_complete = on_complete
        self.on_failure = on_failure
        #: The exception that killed this submission (None while alive).
        self.failed: Exception | None = None
        self.profile = QueryProfile(submit_time=submit_time)
        self.values: dict[int, Intermediate] = {}
        self.waiting: dict[int, int] = dict(layout.waiting)
        self.pending_consumers: dict[int, int] = dict(layout.pending_consumers)
        self.is_output = layout.is_output
        self.consumers: dict[int, list[PlanNode]] = layout.consumers
        self.remaining = layout.size
        self.running = 0
        self.live_bytes = 0.0
        self.ready: deque[PlanNode] = deque(layout.leaves)
        self.fingerprints: dict[int, bytes] = layout.fingerprints
        self.node_index: dict[int, int] = layout.node_index
        #: Tracing span covering submit -> finish (None when unobserved).
        self.span = None

    @property
    def finished(self) -> bool:
        return self.remaining == 0

    def release_bookkeeping(self) -> None:
        """Drop execution-only state once the submission has finished.

        Long concurrent workloads complete many thousands of submissions
        on one simulator; only the output values and the profile must
        outlive execution.  The tables shared through the
        :class:`PlanLayout` cost nothing per submission and stay.
        """
        self.waiting = {}
        self.pending_consumers = {}
        self.ready = deque()


class _Task:
    """A running operator."""

    __slots__ = (
        "submission",
        "node",
        "thread",
        "cpu_rem",
        "mem_rem",
        "cpu_work",
        "mem_work",
        "start",
        "remote",
        "index",
        "mem_active",
        "net_rem",
        "lat_rem",
        "link",
        "net_active",
    )

    def __init__(
        self,
        submission: _Submission,
        node: PlanNode,
        thread: HardwareThread,
        cpu_work: float,
        mem_work: float,
        start: float,
        remote: bool = False,
    ) -> None:
        self.submission = submission
        self.node = node
        self.thread = thread
        self.cpu_work = cpu_work
        self.mem_work = mem_work
        self.cpu_rem = cpu_work
        self.mem_rem = mem_work
        self.start = start
        self.remote = remote
        #: Position in the simulator's running-task list (swap-removal).
        self.index = -1
        #: True while this task still counts toward its socket's
        #: memory-bandwidth demand.
        self.mem_active = mem_work > _EPS
        #: Cross-node transfer state (cluster simulation only): bytes
        #: left on the wire, latency left before the transfer starts,
        #: the NIC (destination node id) being shared, and whether the
        #: task still counts toward that NIC's processor-sharing
        #: demand.  Single-machine tasks never activate these.
        self.net_rem = 0.0
        self.lat_rem = 0.0
        self.link = -1
        self.net_active = False


class _PendingDispatch:
    """One collected dispatch awaiting evaluation and commit.

    ``_dispatch`` first *collects* every runnable (submission, node,
    thread) triple in deterministic scheduler order, then evaluates the
    batch (optionally on the host evaluation pool), then *commits* each
    entry strictly in collection order.  All simulated-state mutation --
    noise draws, memo counters, cost charging, NUMA homing -- happens at
    commit time on the main thread, which is what keeps results
    bit-identical for any host worker count.
    """

    __slots__ = (
        "sub",
        "node",
        "thread",
        "fingerprint",
        "peeked",
        "job_index",
        "fault",
    )

    def __init__(
        self, sub: _Submission, node: PlanNode, thread: HardwareThread
    ) -> None:
        self.sub = sub
        self.node = node
        self.thread = thread
        #: Plan fingerprint of ``node`` (only when memoization is on).
        self.fingerprint: bytes | None = None
        #: (value, profile) held from a lock-free memo peek; keeping the
        #: reference pins it even if a same-batch commit evicts it.
        self.peeked: tuple[Intermediate, WorkProfile] | None = None
        #: Index into the batch's evaluation-job results, -1 when the
        #: result comes from ``peeked`` instead.
        self.job_index = -1
        #: Injected-fault decision for this dispatch (chaos harness);
        #: drawn at collection time on the main thread so the schedule
        #: is deterministic for any host worker count.
        self.fault: FaultDecision | None = None


def _make_eval_job(
    op: Operator, inputs: list[Intermediate]
) -> Callable[[], tuple[Intermediate, WorkProfile]]:
    def job() -> tuple[Intermediate, WorkProfile]:
        output = op.evaluate(inputs)
        return output, op.work_profile(inputs, output)

    return job


class Simulator:
    """Shared simulated machine executing one or more plans.

    ``memo`` plugs in a cross-run :class:`~repro.engine.memo.IntermediateCache`:
    operators whose plan fingerprint is cached skip real evaluation and
    reuse the stored intermediate and work profile.  Simulated time is
    unaffected -- the roofline model still charges the same work -- only
    host wall-clock changes.

    ``evalpool`` plugs in an :class:`~repro.engine.evalpool.EvalPool`
    that evaluates each dispatch round's ready operators concurrently on
    host threads.  Results are committed in dispatch order regardless of
    host completion order, so simulated results are bit-identical with
    or without the pool, at any worker count.

    ``faults`` plugs in a :class:`~repro.chaos.injector.FaultInjector`:
    every committed dispatch consults it (in dispatch order, on the main
    thread) and may crash, slow down, or memory-starve the operator.
    Submissions killed by a fault -- injected or a genuine operator
    exception -- are cleaned up without poisoning the simulator: the
    thread is released, pending work is dropped, and the exception
    either goes to the submission's ``on_failure`` handler or is raised
    from :meth:`run` in dispatch order, after the machine state has been
    restored, so the same simulator keeps serving other submissions.
    """

    def __init__(
        self,
        config: SimulationConfig,
        *,
        memo: IntermediateCache | None = None,
        evalpool: EvalPool | None = None,
        faults: FaultInjector | None = None,
        observe: Observer | None = None,
        sanitizer: Sanitizer | None = None,
    ) -> None:
        self.config = config
        self.memo = memo
        self.evalpool = evalpool
        self.faults = faults
        # ``sanitizer`` plugs in a repro.analysis.sanitize.Sanitizer:
        # every dispatch round's input buffers are checksummed around
        # evaluation, the dispatch-order commit barrier is verified, and
        # committed values fold into a rolling trace fingerprint.  Host
        # cost only; simulated results are untouched.
        self.sanitizer = sanitizer
        # ``observe`` plugs in a repro.observe.Observer: one span per
        # submission and per completed operator task, instant events for
        # dispatch rounds, evaluation batches, and injected faults, and
        # metric counters for all of the above.  Every emission happens
        # on the main thread in dispatch/completion order, so the trace
        # is bit-identical for any host worker count.  When None (the
        # default), instrumentation costs one attribute check per site.
        self.observe = observe
        if observe is not None and faults is not None and faults.observe is None:
            faults.observe = observe
        if observe is not None and evalpool is not None and evalpool.observe is None:
            evalpool.observe = observe
        self.machine = MachineState(config.machine)
        self.cost_ctx = CostContext(machine=config.machine, data_scale=config.data_scale)
        self.noise = NoiseModel(config.noise, config.rng())
        self.now = 0.0
        self._sid_counter = itertools.count()
        self._submissions: dict[int, _Submission] = {}
        # One layout per submitted plan object (plans hash by identity).
        self._layouts: dict[Plan, PlanLayout] = {}
        self._queue: list[_Submission] = []  # FIFO across unfinished submissions
        self._tasks: list[_Task] = []
        self._thread_cap = thread_bandwidth_cap(config.machine, self.cost_ctx.params)
        self._last_profiles: dict[tuple[int, int], WorkProfile] = {}
        # Hash tables are cached on their build input (per submission):
        # the first join over an inner node pays the build, later clones
        # probe the shared table.  Keyed by sid so a finished
        # submission's entries can be dropped in one operation.
        self._hash_built: dict[int, set[int]] = {}
        # Home socket of each produced intermediate (strict-NUMA mode).
        self._home_socket: dict[int, dict[int, int]] = {}
        # Number of memory-bound running tasks per socket -- the
        # bandwidth-sharing denominator, maintained incrementally.
        self._socket_mem_demand: dict[int, int] = {}
        # Simulated-time timers: (when, seq, callback) heap.  The seq
        # tiebreak keeps same-instant callbacks firing in registration
        # order, which the determinism guarantees depend on.
        self._timers: list[tuple[float, int, Callable[[], None]]] = []
        self._timer_seq = itertools.count()
        # Exceptions of failed submissions without an on_failure handler,
        # in failure (dispatch) order, raised from the event loop once
        # the machine state is consistent again.
        self._pending_failures: deque[Exception] = deque()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def submit(
        self,
        plan: Plan,
        *,
        client: str = "client-0",
        max_threads: int | None = None,
        on_complete: Callable[[int], None] | None = None,
        on_failure: Callable[[int, Exception], None] | None = None,
    ) -> int:
        """Register a plan for execution at the current simulated time.

        Returns a submission id usable with :meth:`result`.
        ``on_complete`` (called with the submission id) may submit
        follow-up queries -- that is how closed-loop clients are built.
        ``on_failure`` (called with the submission id and the exception)
        absorbs operator failures -- injected or genuine -- instead of
        letting them propagate out of :meth:`run`; resilient workload
        layers use it to retry with backoff.

        The plan is read, never written: one plan object may be
        submitted any number of times, concurrently, and its
        :class:`PlanLayout` is built only on the first submission.  It
        must not be mutated while this simulator holds it.
        """
        limit = max_threads if max_threads is not None else self.config.effective_threads
        limit = min(limit, self.config.machine.hardware_threads)
        sid = next(self._sid_counter)
        wrapped = None
        if on_complete is not None:
            callback = on_complete

            def wrapped(sub: _Submission, _cb=callback) -> None:
                _cb(sub.sid)

        layout = self._layouts.get(plan)
        if layout is None:
            layout = self._layouts[plan] = PlanLayout(
                plan,
                fingerprints=self.memo is not None,
                node_index=self.faults is not None,
            )
        sub = _Submission(
            sid, layout, self.now, client, limit, wrapped, on_failure=on_failure
        )
        self._submissions[sid] = sub
        obs = self.observe
        if obs is not None:
            sub.span = obs.tracer.begin(
                f"query:{client}",
                "submission",
                self.now,
                sid=sid,
                client=client,
                nodes=sub.remaining,
            )
            obs.metrics.counter(
                "repro_submissions_total", "queries submitted to the simulator"
            ).inc()
        if sub.finished:  # degenerate empty plan
            sub.profile.finish_time = self.now
            if sub.span is not None:
                self.observe.tracer.end(sub.span, self.now)
        else:
            self._queue.append(sub)
        return sid

    def run(self) -> None:
        """Advance simulated time until no work remains.

        An unhandled submission failure raises here *after* the machine
        state has been restored; calling :meth:`run` again resumes the
        remaining submissions (and raises the next unhandled failure, in
        dispatch order, if there is one).
        """
        while True:
            self._fire_timers()
            self._dispatch()
            if not self._tasks:
                if self._timers:
                    # Idle until the next timer: jump simulated time.
                    when = self._timers[0][0]
                    if when > self.now:
                        self.now = when
                    self._fire_timers()
                    continue
                if self._queue:
                    stuck = [s.sid for s in self._queue]
                    raise SchedulerError(
                        f"deadlock: submissions {stuck} have pending work but "
                        "nothing is runnable"
                    )
                return
            self._advance()

    def schedule_at(self, when: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` at simulated time ``when`` (>= now).

        Timers fire on the main thread, between dispatch rounds;
        same-instant timers fire in registration order.  This is the
        primitive behind simulated-time backoff and client timeouts in
        the resilient workload layer.
        """
        if when < self.now - _EPS:
            raise SchedulerError(
                f"cannot schedule a timer in the past ({when} < {self.now})"
            )
        heapq.heappush(self._timers, (when, next(self._timer_seq), callback))

    def result(self, sid: int) -> ExecutionResult:
        sub = self._submissions[sid]
        if sub.failed is not None:
            raise sub.failed
        if not sub.finished:
            raise SchedulerError(f"submission {sid} has not finished")
        outputs = [sub.values[out.nid] for out in sub.plan.outputs]
        return ExecutionResult(outputs=outputs, profile=sub.profile)

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def _fire_timers(self) -> None:
        """Run every timer whose deadline has been reached."""
        timers = self._timers
        while timers and timers[0][0] <= self.now + _EPS:
            __, __, callback = heapq.heappop(timers)
            callback()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        batch = self._collect_dispatches()
        if batch:
            obs = self.observe
            if obs is not None:
                obs.tracer.event(
                    "dispatch", "dispatch", self.now, batch=len(batch)
                )
                obs.metrics.counter(
                    "repro_dispatch_rounds_total", "non-empty dispatch rounds"
                ).inc()
            results = self._evaluate_batch(batch)
            san = self.sanitizer
            if san is not None:
                # Each input's baseline is its at-commit checksum, so
                # verification needs no pre-evaluation snapshot: one
                # post-evaluation re-read per distinct input, compared
                # against the checksum recorded when it was committed;
                # the dispatch-order commit barrier is checked in the
                # same pass.
                san.verify_dispatch(batch, len(results))
            for entry in batch:
                self._commit_dispatch(entry, results)
                if san is not None and entry.sub.failed is None:
                    san.record_commit(
                        entry.sub.sid,
                        entry.node.nid,
                        entry.sub.values.get(entry.node.nid),
                    )
        if self._pending_failures:
            # Raised only after the whole batch committed, so every
            # thread claimed this round is accounted for and the
            # simulator stays consistent (and reusable).
            raise self._pending_failures.popleft()

    def _collect_dispatches(self) -> list[_PendingDispatch]:
        """Claim every runnable (submission, node, thread) triple.

        Thread acquisition and the per-submission running count advance
        here so the collection order is exactly the order the serial
        engine dispatched in; evaluation and all remaining bookkeeping
        are deferred to :meth:`_commit_dispatch`.
        """
        batch: list[_PendingDispatch] = []
        progress = True
        while progress:
            progress = False
            for sub in self._queue:
                if not sub.ready or sub.running >= sub.max_threads:
                    continue
                thread = self.machine.pick_thread()
                if thread is None:
                    return batch
                node = sub.ready.popleft()
                self.machine.acquire(thread)
                sub.running += 1
                entry = _PendingDispatch(sub, node, thread)
                if self.faults is not None:
                    # Drawn here, on the main thread, in collection
                    # order: the fault schedule is a pure function of
                    # simulated dispatch order, not host parallelism.
                    entry.fault = self.faults.draw_dispatch(
                        sid=sub.sid,
                        nid=sub.node_index[node.nid],
                        client=sub.client,
                        now=self.now,
                    )
                batch.append(entry)
                progress = True
        return batch

    def _evaluate_batch(
        self, batch: list[_PendingDispatch]
    ) -> list[tuple[Intermediate, WorkProfile]]:
        """Run the real operator work for a collected batch.

        With memoization on, each entry is first resolved against the
        cache without touching its counters (``peek``): already-cached
        nodes carry the peeked value, and same-batch duplicates (clones
        with equal fingerprints) share one evaluation -- the commit
        phase replays the exact hit/miss sequence the serial engine
        produces.  The remaining unique jobs run on the evaluation pool
        when one is attached, inline otherwise; either way the returned
        list is in job-submission order.
        """
        memo = self.memo
        jobs: list[Callable[[], tuple[Intermediate, WorkProfile]]] = []
        ops: list[Operator] = []
        job_inputs: list[list[Intermediate]] = []
        job_of_fp: dict[bytes, int] = {}
        for entry in batch:
            sub, node = entry.sub, entry.node
            fault = entry.fault
            if fault is not None and fault.kind is FaultKind.OPERATOR_EXCEPTION:
                # The operator will be killed at commit; evaluating it
                # would only waste host work.
                continue
            if memo is not None:
                fingerprint = sub.fingerprints[node.nid]
                entry.fingerprint = fingerprint
                peeked = memo.peek(fingerprint)
                if peeked is not None:
                    entry.peeked = peeked
                    continue
                shared = job_of_fp.get(fingerprint)
                if shared is not None:
                    entry.job_index = shared
                    continue
                job_of_fp[fingerprint] = len(jobs)
            entry.job_index = len(jobs)
            inputs = [sub.values[child.nid] for child in node.inputs]
            jobs.append(settle_job(_make_eval_job(node.op, inputs)))
            ops.append(node.op)
            job_inputs.append(inputs)
        obs = self.observe
        if obs is not None and jobs:
            # The job list is a pure function of dispatch order and memo
            # state -- identical with or without a pool -- so this event
            # and these counters are worker-invariant.
            obs.tracer.event("eval_batch", "pool", self.now, jobs=len(jobs))
            obs.metrics.counter(
                "repro_eval_batches_total", "operator evaluation batches"
            ).inc()
            obs.metrics.counter(
                "repro_eval_jobs_total", "real operator evaluations"
            ).inc(len(jobs))
        if not jobs:
            return []
        if self.evalpool is not None:
            return self.evalpool.run_batch(jobs, ops, job_inputs)
        return [job() for job in jobs]

    def _commit_dispatch(
        self,
        entry: _PendingDispatch,
        results: list[tuple[Intermediate, WorkProfile]],
    ) -> None:
        """Turn one evaluated dispatch into a running simulated task.

        Runs on the main thread in collection order -- the barrier that
        keeps memo counters, noise draws, and simulated time identical
        for any worker count.  Failures -- injected faults and genuine
        operator exceptions (settled into :class:`EvalFailure` slots by
        the evaluation phase) -- are resolved here too, in the same
        order, so "which submission died first" is deterministic.
        """
        sub, node, thread = entry.sub, entry.node, entry.thread
        if sub.failed is not None:
            # A same-batch entry already killed this submission; the
            # claimed thread is simply returned.
            self._drop_claim(sub, thread)
            return
        fault = entry.fault
        obs = self.observe
        if obs is not None and fault is not None:
            obs.tracer.event(
                fault.kind.value,
                "fault",
                self.now,
                parent=sub.span,
                node=sub.node_index[node.nid],
                magnitude=fault.magnitude,
            )
        if fault is not None and fault.kind is FaultKind.OPERATOR_EXCEPTION:
            assert self.faults is not None
            error = self.faults.error_for(
                sid=sub.sid, nid=sub.node_index[node.nid], now=self.now
            )
            self._fail_submission(sub, thread, error)
            return
        memo = self.memo
        if memo is not None:
            fingerprint = entry.fingerprint
            assert fingerprint is not None
            cached = memo.get(fingerprint)
            if cached is not None:
                # Equal fingerprint == bit-identical value and counters;
                # the real evaluate/work_profile calls were skipped.
                output, profile = cached
                if obs is not None:
                    obs.metrics.counter(
                        "repro_memo_hits_total", "memo cache hits"
                    ).inc()
            else:
                # First committer of this fingerprint (or a peeked entry
                # whose value a same-batch commit just evicted).
                if entry.job_index >= 0:
                    settled = results[entry.job_index]
                else:
                    peeked = entry.peeked
                    assert peeked is not None
                    settled = peeked
                if isinstance(settled, EvalFailure):
                    self._fail_submission(sub, thread, settled.error)
                    return
                output, profile = settled
                evicted = memo.put(fingerprint, output, profile)
                if obs is not None:
                    obs.metrics.counter(
                        "repro_memo_misses_total", "memo cache misses"
                    ).inc()
                    obs.metrics.counter(
                        "repro_memo_insertions_total", "memo cache insertions"
                    ).inc()
                    if evicted:
                        obs.metrics.counter(
                            "repro_memo_evictions_total", "memo cache evictions"
                        ).inc(evicted)
                        obs.tracer.event(
                            "evict", "memo", self.now, count=evicted
                        )
        else:
            settled = results[entry.job_index]
            if isinstance(settled, EvalFailure):
                self._fail_submission(sub, thread, settled.error)
                return
            output, profile = settled
        sub.values[node.nid] = output
        amortize = False
        if node.kind in ("join", "semijoin") and len(node.inputs) == 2:
            built = self._hash_built.setdefault(sub.sid, set())
            inner_nid = node.inputs[1].nid
            amortize = inner_nid in built
            built.add(inner_nid)
        work = compute_work(
            node.kind, profile, self.cost_ctx, amortize_build=amortize
        )
        self._last_profiles[(sub.sid, node.nid)] = profile
        # Memory claims: the new intermediate is now live.
        sub.live_bytes += intermediate_nbytes(output) * self.config.data_scale
        if sub.live_bytes > sub.profile.peak_memory_bytes:
            sub.profile.peak_memory_bytes = sub.live_bytes
        factor = self.noise.factor()
        mem_extra = 1.0
        if fault is not None:
            # Timing-only faults: the operator's *result* is untouched,
            # only its simulated duration grows.
            if fault.kind is FaultKind.STRAGGLER:
                factor *= fault.magnitude
            elif fault.kind is FaultKind.MEM_PRESSURE:
                mem_extra = fault.magnitude
        remote = False
        if not self.config.machine.numa_first_touch and node.inputs:
            # Strict NUMA: reading inputs homed on another socket is slow.
            homes_of_sub = self._home_socket.get(sub.sid)
            if homes_of_sub is None:
                homes_of_sub = {}
            homes = [
                homes_of_sub.get(child.nid, thread.socket_id)
                for child in node.inputs
            ]
            remote_count = sum(1 for h in homes if h != thread.socket_id)
            remote = remote_count * 2 > len(homes)
        # The thread was acquired (and ``sub.running`` advanced) at
        # collection time so the placement policy saw it as busy.
        task = _Task(
            sub,
            node,
            thread,
            cpu_work=max(work.cpu_cycles * factor, 1.0),
            mem_work=max(work.mem_bytes * factor * mem_extra, 0.0),
            start=self.now,
            remote=remote,
        )
        task.index = len(self._tasks)
        self._tasks.append(task)
        if task.mem_active:
            demand = self._socket_mem_demand
            socket = thread.socket_id
            demand[socket] = demand.get(socket, 0) + 1

    # ------------------------------------------------------------------
    # Submission failure
    # ------------------------------------------------------------------
    def _drop_claim(self, sub: _Submission, thread: HardwareThread) -> None:
        """Return a collected-but-uncommitted dispatch's thread."""
        self.machine.release(thread)
        sub.running -= 1
        if sub.failed is not None and sub.running == 0:
            self._settle_failed(sub)

    def _fail_submission(
        self, sub: _Submission, thread: HardwareThread, error: Exception
    ) -> None:
        """Kill ``sub``: drop its pending work, keep the machine sane.

        In-flight simulated tasks of the submission are left to finish
        (their threads are released on completion, results discarded);
        once the last one drains, the failure is settled -- delivered to
        the ``on_failure`` handler or queued for :meth:`run` to raise.
        """
        sub.failed = error
        if sub in self._queue:
            self._queue.remove(sub)
        sub.ready.clear()
        self._drop_claim(sub, thread)

    def _settle_failed(self, sub: _Submission) -> None:
        """Final bookkeeping once a failed submission has fully drained."""
        sub.profile.finish_time = self.now
        self._hash_built.pop(sub.sid, None)
        self._home_socket.pop(sub.sid, None)
        error = sub.failed
        assert error is not None
        obs = self.observe
        if obs is not None and sub.span is not None:
            obs.tracer.end(
                sub.span, self.now, failed=True, error=type(error).__name__
            )
            obs.metrics.counter(
                "repro_submissions_failed_total", "submissions killed by a failure"
            ).inc()
        on_failure = sub.on_failure
        sub.values = {}
        sub.live_bytes = 0.0
        sub.release_bookkeeping()
        if on_failure is not None:
            on_failure(sub.sid, error)
        else:
            self._pending_failures.append(error)

    # ------------------------------------------------------------------
    # Time advance
    # ------------------------------------------------------------------
    def _deactivate_mem(self, task: _Task) -> None:
        """Drop a task from its socket's memory-demand count."""
        task.mem_active = False
        demand = self._socket_mem_demand
        socket = task.thread.socket_id
        left = demand[socket] - 1
        if left:
            demand[socket] = left
        else:
            del demand[socket]

    def _advance(self) -> None:
        # The innermost simulator loop: runs once per event over every
        # running task, so the rate model is inlined (the cpu rate is
        # ``MachineState.compute_rate``'s math; memory bandwidth is shared
        # by the socket's memory-active tasks, capped per thread and
        # scaled for remote access) and per-task values are kept in
        # parallel lists instead of tuples.
        tasks = self._tasks
        spec = self.config.machine
        core_busy = self.machine._core_busy
        full_rate = spec.cycles_per_second
        ht_rate = full_rate * (spec.hyperthread_yield / 2.0)
        socket_demand = self._socket_mem_demand
        socket_bw = spec.mem_bandwidth_gbps * 1e9
        thread_cap = self._thread_cap
        remote_factor = spec.numa_remote_factor

        cpu_rates = []
        mem_rates = []
        finish_in = []
        dt = None
        for task in tasks:
            thread = task.thread
            # A running task's thread is busy, so a sibling is busy iff
            # more than one thread of the core is.
            cpu_rate = full_rate if core_busy[thread.core_id] == 1 else ht_rate
            n_mem = socket_demand.get(thread.socket_id, 0)
            if n_mem > 0:
                mem_rate = socket_bw / n_mem
                if thread_cap < mem_rate:
                    mem_rate = thread_cap
            else:
                mem_rate = thread_cap
            if task.remote:
                mem_rate *= remote_factor
            cpu_t = task.cpu_rem / cpu_rate if task.cpu_rem > _EPS else 0.0
            mem_t = task.mem_rem / mem_rate if task.mem_rem > _EPS else 0.0
            horizon = cpu_t if cpu_t > mem_t else mem_t
            cpu_rates.append(cpu_rate)
            mem_rates.append(mem_rate)
            finish_in.append(horizon)
            if dt is None or horizon < dt:
                dt = horizon
        if self._timers:
            # Never step past a timer deadline: the callback (a backoff
            # retry, a client timeout) must observe the machine at its
            # scheduled instant.
            window = self._timers[0][0] - self.now
            if window < dt:
                dt = window if window > 0.0 else 0.0
        self.now += dt
        completed = []
        deadline = dt + _EPS
        for i, task in enumerate(tasks):
            cpu_rem = task.cpu_rem - dt * cpu_rates[i]
            mem_rem = task.mem_rem - dt * mem_rates[i]
            if finish_in[i] <= deadline:
                cpu_rem = 0.0
                mem_rem = 0.0
                completed.append(task)
            task.cpu_rem = cpu_rem if cpu_rem > 0.0 else 0.0
            task.mem_rem = mem_rem if mem_rem > 0.0 else 0.0
            if task.mem_active and mem_rem <= _EPS:
                self._deactivate_mem(task)
        for task in completed:
            self._complete(task)

    def _remove_task(self, task: _Task) -> None:
        """O(1) removal: swap the last running task into ``task``'s slot."""
        tasks = self._tasks
        last = tasks.pop()
        if last is not task:
            tasks[task.index] = last
            last.index = task.index
        task.index = -1

    def _complete(self, task: _Task) -> None:
        self._remove_task(task)
        self.machine.release(task.thread)
        sub = task.submission
        if sub.failed is not None:
            # A task of an already-failed submission draining out: no
            # consumers to wake, no profile to record.
            self._last_profiles.pop((sub.sid, task.node.nid), None)
            sub.running -= 1
            if sub.running == 0:
                self._settle_failed(sub)
            return
        if not self.config.machine.numa_first_touch:
            self._home_socket.setdefault(sub.sid, {})[task.node.nid] = (
                task.thread.socket_id
            )
        sub.running -= 1
        sub.remaining -= 1
        node = task.node
        wp = self._last_profiles.pop((sub.sid, node.nid))
        sub.profile.records.append(
            OpRecord(
                node=node,
                kind=node.kind,
                describe=node.describe(),
                start=task.start,
                end=self.now,
                thread_id=task.thread.thread_id,
                socket_id=task.thread.socket_id,
                cpu_cycles=task.cpu_work,
                mem_bytes=task.mem_work,
                tuples_in=wp.tuples_in,
                tuples_out=wp.tuples_out,
            )
        )
        obs = self.observe
        if obs is not None:
            # One task span per OpRecord, same interval and affiliation
            # -- the 1:1 mapping the golden-trace suite asserts.
            obs.tracer.add(
                node.kind,
                "task",
                task.start,
                self.now,
                parent=sub.span,
                op=node.describe(),
                thread=task.thread.thread_id,
                socket=task.thread.socket_id,
                cpu_cycles=task.cpu_work,
                mem_bytes=task.mem_work,
                tuples_in=wp.tuples_in,
                tuples_out=wp.tuples_out,
                **self._task_span_attrs(task),
            )
            duration = self.now - task.start
            obs.metrics.counter(
                "repro_tasks_total", "completed operator tasks", kind=node.kind
            ).inc()
            obs.metrics.counter(
                "repro_task_sim_seconds_total",
                "simulated seconds by operator kind",
                kind=node.kind,
            ).inc(duration)
            obs.metrics.histogram(
                "repro_task_sim_seconds", help="simulated task durations"
            ).observe(duration)
        # Wake up consumers whose inputs are now complete.
        for consumer in self._consumers_of(sub, node):
            sub.waiting[consumer.nid] -= 1
            if sub.waiting[consumer.nid] == 0:
                sub.ready.append(consumer)
        self._release_value(sub, node)
        if sub.finished:
            sub.profile.finish_time = self.now
            self._queue.remove(sub)
            self._hash_built.pop(sub.sid, None)
            self._home_socket.pop(sub.sid, None)
            sub.release_bookkeeping()
            if obs is not None and sub.span is not None:
                obs.tracer.end(sub.span, self.now)
                obs.metrics.counter(
                    "repro_submissions_completed_total", "submissions that finished"
                ).inc()
            if sub.on_complete is not None:
                sub.on_complete(sub)

    def _task_span_attrs(self, task: _Task) -> dict:
        """Extra attributes for a completed task's span.

        The base simulator adds none, keeping single-machine traces
        byte-stable; the cluster simulator overrides this to stamp the
        node dimension on multi-node runs.
        """
        return {}

    def _consumers_of(self, sub: _Submission, node: PlanNode) -> Sequence[PlanNode]:
        return sub.consumers.get(node.nid, ())

    def _release_value(self, sub: _Submission, node: PlanNode) -> None:
        # Free input intermediates once their last consumer has finished.
        for child in node.inputs:
            sub.pending_consumers[child.nid] -= 1
            if (
                sub.pending_consumers[child.nid] == 0
                and child.nid not in sub.is_output
            ):
                freed = sub.values.pop(child.nid, None)
                if freed is not None:
                    sub.live_bytes -= (
                        intermediate_nbytes(freed) * self.config.data_scale
                    )
