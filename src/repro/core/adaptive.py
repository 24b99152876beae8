"""The adaptive parallelization driver (paper Figure 2 workflow).

``AdaptiveParallelizer.optimize`` repeatedly executes a query: run 0 is
the serial plan; before every further run the most expensive operator of
the previous run is parallelized (plan morphing); the convergence
policy decides when to stop and which run holds the global minimum
execution.  The loop's state lives in one :class:`AdaptiveStep`
(``next_plan()`` / ``observe(result)``), so the query session of
:mod:`repro.core.session` steps the same loop one invocation at a time.
The returned result carries the GME plan -- the plan a production
system would cache for future invocations of the query template.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

import os

from ..chaos.faults import FaultPlan
from ..chaos.injector import FaultInjector
from ..config import SimulationConfig
from ..engine.evalpool import EvalPool
from ..engine.executor import execute
from ..engine.memo import IntermediateCache
from ..engine.profiler import QueryProfile
from ..engine.scheduler import ExecutionResult
from ..errors import ConvergenceError, InjectedFaultError
from ..learn.bandit import (
    DEFAULT_CONFIDENCE_PULLS,
    BanditAdvisor,
    default_dop_arms,
)
from ..learn.fingerprint import config_signature, plan_signature
from ..learn.policy import (
    POLICY_BANDIT,
    POLICY_CREDIT_DEBIT,
    POLICY_WARMSTART,
    DopDecision,
    resolve_policy,
)
from ..learn.store import ExperienceRecord, ExperienceStore
from ..observe import Observer
from ..plan.analysis import AnalysisReport
from ..plan.graph import Plan
from ..storage.column import BAT, Candidates, ColumnSlice, Intermediate, Scalar
from .convergence import ConvergenceParams, ConvergenceTracker, RunRecord
from .history import PlanHistory
from .mutation import (
    DEFAULT_PACK_FANIN_LIMIT,
    MutationRejection,
    MutationResult,
    PlanMutator,
)

#: ``runner(plan, run_index) -> ExecutionResult`` -- how one adaptive run
#: is executed.  The default runs the plan alone on a fresh simulated
#: machine; concurrent-workload experiments inject a runner that executes
#: under background load, which is what makes the resulting plans
#: resource-contention aware.
Runner = Callable[[Plan, int], ExecutionResult]


def intermediates_equal(a: Intermediate, b: Intermediate) -> bool:
    """Value equality between two operator results (for verification)."""
    if isinstance(a, Scalar) and isinstance(b, Scalar):
        return bool(np.isclose(a.value, b.value, rtol=1e-9, atol=1e-9))
    if isinstance(a, Candidates) and isinstance(b, Candidates):
        return np.array_equal(a.oids, b.oids)
    if isinstance(a, BAT) and isinstance(b, BAT):
        return np.array_equal(a.head, b.head) and bool(
            np.allclose(a.tail, b.tail, rtol=1e-9, atol=1e-9)
        )
    if isinstance(a, ColumnSlice) and isinstance(b, ColumnSlice):
        return a.column is b.column and a.lo == b.lo and a.hi == b.hi
    return False


@dataclass
class AdaptiveResult:
    """Outcome of one adaptive parallelization instance."""

    best_plan: Plan
    serial_time: float
    gme_time: float
    gme_run: int
    total_runs: int
    history: list[RunRecord]
    mutations: list[MutationResult] = field(default_factory=list)
    final_plan: Plan | None = None
    #: Analyzer report after each accepted mutation (parallel to
    #: ``mutations``); ``None`` entries mean analysis was disabled.
    reports: list[AnalysisReport | None] = field(default_factory=list)
    #: Mutations the analyzer vetoed and rolled back along the way.
    rejections: list[MutationRejection] = field(default_factory=list)
    #: Runs re-executed after an injected operator exception (only
    #: nonzero when the instance runs under the chaos harness).
    fault_retries: int = 0
    #: Which convergence policy produced this result.
    policy: str = POLICY_CREDIT_DEBIT
    #: Per-run DOP decision provenance (``adapt --explain``).
    decisions: list[DopDecision] = field(default_factory=list)
    #: True when an experience record seeded the search.
    warm_start: bool = False
    #: Per-arm pull/reward table when the bandit policy ran.
    bandit_arms: list[dict] = field(default_factory=list)
    #: GME tolerance band used by :attr:`runs_to_gme` (the tracker's
    #: ``gme_threshold``: times within it count as "converged").
    gme_threshold: float = 0.0

    @property
    def runs_to_gme(self) -> int:
        """Runs spent until execution first entered the GME band.

        The learning cost: how many runs the policy needed before it
        produced a plan within ``gme_threshold`` of the eventual global
        minimum.  ``gme_run`` itself is the *location* of the minimum on
        the run axis -- under per-run noise a warm-started search sits
        on the optimum plateau from run 1 yet can still log its literal
        minimum hundreds of runs later, so the plateau-entry run is the
        meaningful convergence metric.
        """
        target = self.gme_time * (1.0 + self.gme_threshold)
        for record in self.history:
            if record.index > 0 and record.exec_time <= target:
                return record.index
        return self.gme_run

    @property
    def total_work(self) -> float:
        """Total simulated seconds across every adaptive run."""
        return sum(self.exec_times())

    @property
    def speedup(self) -> float:
        """Serial over GME execution time."""
        return self.serial_time / self.gme_time

    @property
    def best_time(self) -> float:
        """The minimum execution time over all runs.

        The GME is threshold-gated (Section 3.1 discards marginal new
        minima), so the raw trace minimum can be lower; the paper's
        operator-level speedup analyses (Tables 2/3) read "the best
        speedup obtained", which is this.
        """
        times = self.exec_times()
        if len(times) <= 1:
            return self.serial_time
        return min(min(times[1:]), self.serial_time)

    @property
    def best_speedup(self) -> float:
        """Serial over the best observed execution time."""
        return self.serial_time / self.best_time

    def exec_times(self) -> list[float]:
        return [record.exec_time for record in self.history]


class AdaptiveParallelizer:
    """Runs the adapt-execute-observe loop for one query plan."""

    def __init__(
        self,
        config: SimulationConfig | None = None,
        *,
        convergence: ConvergenceParams | None = None,
        pack_fanin_limit: int = DEFAULT_PACK_FANIN_LIMIT,
        verify: bool = False,
        runner: Runner | None = None,
        mutations_per_run: int = 1,
        memoize: bool = True,
        workers: int | None = None,
        backend: str | None = None,
        faults: FaultInjector | FaultPlan | None = None,
        fault_retries: int = 5,
        observe: Observer | None = None,
        policy: str | None = None,
        experience: ExperienceStore | str | os.PathLike | None = None,
        bandit_confidence: int = DEFAULT_CONFIDENCE_PULLS,
    ) -> None:
        if mutations_per_run < 1:
            raise ConvergenceError("mutations_per_run must be >= 1")
        if fault_retries < 0:
            raise ConvergenceError("fault_retries must be >= 0")
        self.config = config if config is not None else SimulationConfig()
        if convergence is None:
            convergence = ConvergenceParams(
                number_of_cores=self.config.effective_threads
            )
        self.convergence = convergence
        self.pack_fanin_limit = pack_fanin_limit
        self.verify = verify
        self.runner: Runner = runner if runner is not None else self._default_runner
        # Paper Section 4.3 ("How to lower number of convergence runs?"):
        # introducing more operators per invocation shortens convergence
        # at the cost of coarser plan-evolution feedback.  The paper uses
        # 1 to study the evolution; raise it to converge faster.
        self.mutations_per_run = mutations_per_run
        # Consecutive adaptive runs share almost their whole plan, so the
        # default runner memoizes operator results across runs (keyed by
        # structural fingerprint -- stale-free, no invalidation).  Only
        # host wall-clock changes; simulated times are bit-identical.
        self.memo: IntermediateCache | None = (
            IntermediateCache() if memoize else None
        )
        # Host evaluation pool: every run's simultaneously-ready
        # operators are evaluated on ``workers`` host workers of the
        # selected ``backend`` (thread or inline -- see
        # repro.engine.backends), with a dispatch-order commit barrier
        # keeping simulated results bit-identical for any worker count
        # and backend.  With neither argument the instance evaluates
        # inline; the pool is shared across all runs of the instance.
        self.evalpool: EvalPool | None = (
            EvalPool(workers, backend=backend)
            if backend is not None or (workers is not None and workers > 1)
            else None
        )
        # Chaos harness: the robustness experiment (Figure 18 under
        # faults) runs the whole adaptive loop with injected operator
        # exceptions, stragglers, and memory-pressure spikes.  Timing
        # faults only perturb the observed run times; an injected
        # exception makes the default runner re-execute that run, up to
        # ``fault_retries`` times per run.  The injector is a single
        # stream across all runs, so a fixed seed reproduces the exact
        # fault placement and hence the exact convergence trace.
        if isinstance(faults, FaultPlan):
            faults = FaultInjector(
                faults, seed=self.config.derive_seed("adaptive.chaos")
            )
        self.faults = faults
        self.fault_retries = fault_retries
        self._fault_retries_used = 0
        # Observability: when set, the whole adaptive instance is traced
        # onto one continuous timeline -- an ``adaptive`` root span, one
        # ``run`` span per execution (each run's simulator restarts at
        # t=0, so the tracer's ``time_base`` is advanced by the run's
        # response time), ``mutation`` events between runs, and all the
        # engine-level spans/metrics the executor emits.
        self.observe = observe
        # Learned DOP (see repro.learn): the convergence policy decides
        # how the DOP search moves, and the experience store transfers
        # converged DOPs between structurally identical plan templates.
        # A store passed as a path is owned (and closed) by this
        # instance; a store instance may be shared between parallelizers
        # and is only flushed, never closed, by close().
        self.policy = resolve_policy(policy)
        self._owns_experience = experience is not None and not isinstance(
            experience, ExperienceStore
        )
        self.experience: ExperienceStore | None = (
            experience
            if isinstance(experience, ExperienceStore) or experience is None
            else ExperienceStore(experience)
        )
        if bandit_confidence < 1:
            raise ConvergenceError("bandit_confidence must be >= 1")
        self.bandit_confidence = bandit_confidence

    def close(self) -> None:
        """Release pooled workers and persist experience (idempotent).

        Mirrors the ``EvalPool.close()`` contract: safe to call any
        number of times, safe from ``atexit``.  An owned experience
        store (constructed from a path) is closed; a shared store
        instance is flushed but left usable for its other owners.
        """
        if self.evalpool is not None:
            self.evalpool.close()
        if self.experience is not None and not self.experience.closed:
            if self._owns_experience:
                self.experience.close()
            else:
                self.experience.flush()

    def _make_mutator(self, working: Plan) -> PlanMutator:
        """Mutator factory for one optimization walk.

        Subclasses (the cluster layer) override this to return an
        extended mutator that chooses between the paper's DOP mutations
        and new dimensions (shard placement) while keeping the same
        ``mutate``/``rejections``/``last_report`` surface.
        """
        return PlanMutator(working, pack_fanin_limit=self.pack_fanin_limit)

    def _execute(self, plan: Plan, config: SimulationConfig) -> ExecutionResult:
        """Execute one attempt of a run (the cluster layer overrides this)."""
        return execute(
            plan,
            config,
            memo=self.memo,
            evalpool=self.evalpool,
            faults=self.faults,
            trace=self.observe,
        )

    def _default_runner(self, plan: Plan, run_index: int) -> ExecutionResult:
        # A distinct seed per run lets noise vary between runs while
        # keeping the whole adaptive instance reproducible.
        config = self.config.with_seed(self.config.seed + run_index)
        attempts = 1 + (self.fault_retries if self.faults is not None else 0)
        for attempt in range(attempts):
            try:
                return self._execute(plan, config)
            except InjectedFaultError as error:
                if attempt + 1 >= attempts:
                    raise ConvergenceError(
                        f"run {run_index} kept failing after "
                        f"{self.fault_retries} fault retries: {error}"
                    ) from error
                self._fault_retries_used += 1
                if self.observe is not None:
                    self.observe.metrics.counter(
                        "repro_fault_retries_total",
                        "adaptive runs re-executed after an injected fault",
                    ).inc()
        raise AssertionError("unreachable")

    # ------------------------------------------------------------------
    def _run_traced(self, working: Plan, run: int) -> ExecutionResult:
        """One adaptive run, wrapped in a ``run`` span on the timeline.

        Each run's simulator starts its own clock at t=0; the run span
        anchors at the tracer's current ``time_base`` and the base is
        advanced by the run's response time afterwards, chaining the
        runs onto one continuous simulated timeline.
        """
        obs = self.observe
        if obs is None:
            return self.runner(working, run)
        tracer = obs.tracer
        span = tracer.begin(f"run:{run}", "run", 0.0, run=run)
        try:
            with tracer.scope(span):
                result = self.runner(working, run)
        except Exception as error:
            tracer.end(span, 0.0, failed=True, error=type(error).__name__)
            raise
        tracer.end(span, result.response_time)
        tracer.advance(result.response_time)
        obs.metrics.counter(
            "repro_adaptive_runs_total", "adaptive loop runs executed"
        ).inc()
        return result

    def optimize(self, plan: Plan) -> AdaptiveResult:
        """Adaptively parallelize ``plan``; the input plan is not touched."""
        obs = self.observe
        if obs is None:
            return self._optimize(plan)
        tracer = obs.tracer
        span = tracer.begin("adaptive", "adaptive", 0.0)
        try:
            with tracer.scope(span):
                result = self._optimize(plan)
        finally:
            # t=0.0 means "the current time_base": the end of the last
            # run (clamped up if a fault-killed attempt overran it).
            tracer.end(span, 0.0)
        metrics = obs.metrics
        metrics.gauge(
            "repro_adaptive_serial_seconds", "run-0 (serial) response time"
        ).set(result.serial_time)
        metrics.gauge(
            "repro_adaptive_gme_seconds",
            "global minimum execution response time",
        ).set(result.gme_time)
        metrics.gauge(
            "repro_adaptive_gme_run", "run index holding the GME"
        ).set(float(result.gme_run))
        metrics.gauge(
            "repro_adaptive_total_runs", "total runs until convergence"
        ).set(float(result.total_runs))
        return result

    def _optimize(self, plan: Plan) -> AdaptiveResult:
        self._fault_retries_used = 0
        consult = self._consult(plan)
        policy = BanditStep if self.policy == POLICY_BANDIT else CreditDebitStep
        step = policy(self, plan, consult)
        while (working := step.next_plan()) is not None:
            step.observe(self._run_traced(working, step.run))
        result = step.result()
        self._remember(consult, result)
        return result

    # -- experience store plumbing -------------------------------------
    def _consult(self, plan: Plan) -> "_Consult | None":
        """Compute template keys and look up past experience.

        Returns ``None`` when no store is attached (the default path
        must not even pay for signature hashing).  With a store, the
        lookup itself only happens for the warm-capable policies --
        plain credit/debit uses the store write-only, which is how a
        first encounter seeds warm starts for everyone else.
        """
        if self.experience is None:
            return None
        plan_sig = plan_signature(plan)
        machine_sig = config_signature(self.config)
        record = None
        reason = ""
        if self.policy in (POLICY_WARMSTART, POLICY_BANDIT):
            before = self.experience.stats()
            record = self.experience.lookup(plan_sig, machine_sig)
            if record is None:
                after = self.experience.stats()
                reason = (
                    "machine-shape mismatch"
                    if after.shape_mismatches > before.shape_mismatches
                    else "no experience record"
                )
        return _Consult(plan_sig=plan_sig, machine_sig=machine_sig,
                        record=record, miss_reason=reason)

    def _remember(self, consult: "_Consult | None", result: AdaptiveResult) -> None:
        """Fold this instance's outcome back into the experience store."""
        if consult is None or self.experience is None or self.experience.closed:
            return
        # The transferable DOP: mutations accumulated by the time the
        # search first entered the GME band (not the literal-minimum
        # run, which drifts along the noise plateau and would make the
        # stored DOP creep upward on every re-encounter).
        cutoff = result.runs_to_gme
        dop = 0
        for decision in result.decisions:
            if decision.run <= cutoff:
                dop = max(dop, decision.dop)
        self.experience.record(
            ExperienceRecord(
                plan=consult.plan_sig,
                machine=consult.machine_sig,
                dop=dop,
                gme_run=result.gme_run,
                total_runs=result.total_runs,
                serial_ms=result.serial_time * 1000,
                gme_ms=result.gme_time * 1000,
                policy=self.policy,
            )
        )

    def explain(self, result: AdaptiveResult) -> list[str]:
        """Human-readable DOP provenance lines for ``adapt --explain``."""
        lines = [d.as_diagnostic().format() for d in result.decisions]
        for arm in result.bandit_arms:
            lines.append(
                f"[info] dop.bandit_arm: arm dop={arm['dop']}: "
                f"{arm['pulls']} pull(s), mean speedup {arm['mean_reward']:.4f}"
            )
        return lines


@dataclass(frozen=True)
class _Consult:
    """One experience-store consultation: keys plus the lookup outcome."""

    plan_sig: str
    machine_sig: str
    record: ExperienceRecord | None
    miss_reason: str = ""


class AdaptiveStep:
    """One adaptive instance, stepped one run at a time.

    The paper's adapt-execute-observe loop, shaped like a Cuttlefish
    tuner's ``choose()``/``observe(reward)``: :meth:`next_plan` returns
    the plan the next run executes -- the serial plan first -- or
    ``None`` once the policy has converged, and :meth:`observe` takes
    that run's :class:`ExecutionResult`.  :attr:`run` is the index of
    the plan :meth:`next_plan` handed out last.  The step owns a private
    copy of the plan, its mutator and the run bookkeeping; the caller
    owns execution, so :meth:`AdaptiveParallelizer.optimize` and
    :class:`~repro.core.session.AdaptiveSession` drive the same loop.

    Subclasses are the convergence policies, :class:`CreditDebitStep`
    (the paper's walk, optionally warm-started) and :class:`BanditStep`
    (UCB1 over DOP levels).  They set up on the serial run
    (``_start``), choose each later run's plan (``_next``), observe it
    (``_observe``) and build the :class:`AdaptiveResult` (``result``).
    """

    def __init__(
        self,
        owner: AdaptiveParallelizer,
        plan: Plan,
        consult: _Consult | None = None,
    ) -> None:
        self.owner = owner
        self.consult = consult
        #: The experience record the store returned, if any.
        self.warm = consult.record if consult is not None else None
        self.working = plan.copy()
        self.mutator = owner._make_mutator(self.working)
        self.history = PlanHistory()
        self.history.snapshot_serial(self.working)
        self.mutations: list[MutationResult] = []
        self.reports: list[AnalysisReport | None] = []
        self.decisions: list[DopDecision] = []
        self.run = 0
        #: Profile the next mutation targets; None until run 0 is observed.
        self.last_profile: QueryProfile | None = None
        self._reference: Sequence[Intermediate] | None = None

    @property
    def warm_start(self) -> bool:
        """True when an experience record seeds the search."""
        return self.warm is not None and self.warm.dop > 0

    def next_plan(self) -> Plan | None:
        if self.last_profile is None:
            return self.working  # the serial run comes first
        plan = self._next(self.run + 1)
        if plan is not None:
            self.run += 1
        return plan

    def observe(self, result: ExecutionResult) -> None:
        if self.run == 0:
            self._reference = result.outputs if self.owner.verify else None
            self._start(result)
            return
        if self._reference is not None:
            self._verify(result.outputs)
        self._observe(result)

    # -- policy hooks ---------------------------------------------------
    def _start(self, result: ExecutionResult) -> None:
        raise NotImplementedError

    def _next(self, run: int) -> Plan | None:
        raise NotImplementedError

    def _observe(self, result: ExecutionResult) -> None:
        raise NotImplementedError

    def result(self) -> AdaptiveResult:
        """The instance's outcome, once :meth:`next_plan` returned None."""
        raise NotImplementedError

    # -- shared machinery -----------------------------------------------
    def _mutate(self, run: int) -> bool:
        """Apply one mutation ahead of ``run``; False when none is left."""
        assert self.last_profile is not None
        mutation = self.mutator.mutate(self.last_profile)
        if mutation is None:
            return False  # fully parallelized (or suppressed)
        self.mutations.append(mutation)
        self.reports.append(self.mutator.last_report)
        obs = self.owner.observe
        if obs is not None:
            obs.tracer.event(
                "mutation",
                "mutation",
                0.0,
                run=run,
                description=mutation.description,
            )
            obs.metrics.counter(
                "repro_mutations_total", "plan mutations accepted"
            ).inc()
        return True

    def _decide(self, run: int, source: str, dop: int, detail: str = "") -> None:
        """Record why ``run`` executes at ``dop`` (and trace it).

        Decisions are always collected (``adapt --explain`` works for
        the plain credit/debit policy too); the observability events are
        only emitted when the learned-DOP layer may change behaviour (a
        non-default policy or an experience store), so the default
        policy's canonical trace bytes stay identical to the pre-learn
        engine (the golden fixtures pin it).
        """
        self.decisions.append(DopDecision(run, source, dop, detail=detail))
        owner = self.owner
        obs = owner.observe
        if obs is None or (
            owner.policy == POLICY_CREDIT_DEBIT and owner.experience is None
        ):
            return
        obs.tracer.event(
            "dop_decision",
            "policy",
            0.0,
            run=run,
            source=source,
            dop=dop,
        )
        obs.metrics.counter(
            "repro_dop_decisions_total",
            "per-run DOP decisions by provenance",
            source=source,
        ).inc()

    def _verify(self, outputs: Sequence[Intermediate]) -> None:
        reference = self._reference
        assert reference is not None
        run = self.run
        if len(reference) != len(outputs):
            raise ConvergenceError(
                f"run {run}: output arity changed ({len(outputs)} vs "
                f"{len(reference)})"
            )
        for i, (ref, out) in enumerate(zip(reference, outputs)):
            if not intermediates_equal(ref, out):
                raise ConvergenceError(
                    f"run {run}: output {i} differs from the serial plan -- "
                    "mutation broke the plan"
                )

    def _result(
        self, gme_time: float, gme_run: int, records: list[RunRecord]
    ) -> AdaptiveResult:
        serial_time = records[0].exec_time
        history = self.history
        if history.best_plan is None or gme_time >= serial_time:
            # Parallelism never beat serial: keep the serial plan.
            history.snapshot_best(history.serial_plan, 0)
            gme_time, gme_run = serial_time, 0
        owner = self.owner
        return AdaptiveResult(
            best_plan=history.choose(),
            serial_time=serial_time,
            gme_time=gme_time,
            gme_run=gme_run,
            total_runs=len(records),
            history=records,
            mutations=self.mutations,
            final_plan=self.working,
            reports=self.reports,
            rejections=list(self.mutator.rejections),
            fault_retries=owner._fault_retries_used,
            policy=owner.policy,
            decisions=list(self.decisions),
            warm_start=self.warm_start,
            gme_threshold=owner.convergence.gme_threshold,
        )


class CreditDebitStep(AdaptiveStep):
    """The paper's walk: mutate before every run until credit runs out.

    With the warm-start policy and a usable experience record, the
    converged mutation count is replayed in as few runs as possible
    before handing over to the paper's algorithm.  Each warm round
    applies every mutation the current profile affords (the mutator
    targets operators from the *last executed* plan's profile, so a
    fresh run is needed between batches), which collapses ~dop
    single-mutation runs into a handful.  The credit/debit tracker
    still sees every run and keeps exploring afterwards, so a stale or
    collided transfer degrades into the cold walk, never a wrong answer.
    """

    def _start(self, result: ExecutionResult) -> None:
        self.tracker = ConvergenceTracker(self.owner.convergence)
        self._observe(result)
        if self.owner.policy == POLICY_WARMSTART and not self.warm_start:
            consult = self.consult
            detail = (
                consult.miss_reason
                if consult is not None and consult.miss_reason
                else "record has dop=0"
                if self.warm is not None
                else "no experience store"
            )
            self._decide(0, "cold_fallback", 0, detail)
        self._decide(0, "serial", 0)

    def _next(self, run: int) -> Plan | None:
        if not self.tracker.should_continue():
            return None
        budget = self.owner.mutations_per_run
        source, detail = "credit_debit", ""
        warm = self.warm
        if warm is not None and warm.dop > len(self.mutations):
            budget = max(warm.dop - len(self.mutations), budget)
            source = "warm_start"
            detail = (
                f"experience dop={warm.dop} from {warm.updates} "
                f"instance(s), recorded gme_run={warm.gme_run}"
            )
        if not self._mutate(run):
            return None
        for __ in range(budget - 1):
            if not self._mutate(run):
                break
        self._decide(run, source, len(self.mutations), detail)
        return self.working

    def _observe(self, result: ExecutionResult) -> None:
        tracker = self.tracker
        record = tracker.observe(result.response_time)
        if (
            self.run > 0
            and record.gme_run == self.run
            and record.gme_time < tracker.serial_time
        ):
            self.history.snapshot_best(self.working, self.run)
        self.last_profile = result.profile

    def result(self) -> AdaptiveResult:
        tracker = self.tracker
        records = list(tracker.history)
        if self.run == 0:
            return self._result(tracker.serial_time, 0, records)
        return self._result(tracker.gme_time, tracker.gme_run, records)


class BanditStep(AdaptiveStep):
    """A seeded UCB sweep over DOP arms instead of the credit/debit walk.

    The mutation ladder is shared with the paper's machinery: arm ``k``
    executes the working plan after ``k`` accepted mutations, extended
    lazily with the most recent deepest-run profile (the
    ``mutations_per_run`` batching precedent).  The bandit pulls arms
    out of DOP order, but mutations only move forward, so the step
    keeps one frozen copy per depth (``rungs``): extending to a new
    deepest arm mutates the live working plan, whose profile feeds the
    next extension, while re-pulling a shallower arm executes that
    depth's copy.  Simulated run times depend only on plan structure,
    so a copy and the working plan at the same depth time identically.
    All advisor randomness is seeded and drawn in run order, so traces
    are bit-reproducible.
    """

    def _start(self, result: ExecutionResult) -> None:
        owner, warm = self.owner, self.warm
        assert self.history.serial_plan is not None
        self.rungs: dict[int, Plan] = {0: self.history.serial_plan}
        self.exhausted = False
        arms = default_dop_arms(owner.convergence.number_of_cores)
        self.advisor = BanditAdvisor(
            arms,
            seed=owner.config.derive_seed("learn.bandit"),
            confidence_pulls=owner.bandit_confidence,
            warm_arm=warm.dop if warm is not None and warm.dop > 0 else None,
        )
        self.max_rounds = min(
            owner.convergence.max_runs,
            len(arms) * (owner.bandit_confidence + 2),
        )
        serial_time = result.response_time
        self.records = [
            RunRecord(0, serial_time, 0.0, 0.0, 0.0, False, 0, serial_time)
        ]
        self.gme_time: float | None = None
        self.gme_run = 0
        self.last_profile = result.profile
        # Run 0 is arm dop=0's first pull (reward: speedup 1.0).
        self.advisor.observe(self.advisor.nearest_arm(0), 1.0)
        detail = f"bandit arms {list(arms)}"
        if warm is not None:
            detail += f", warm arm dop={warm.dop}"
        self._decide(0, "serial", 0, detail)

    def _next(self, run: int) -> Plan | None:
        advisor = self.advisor
        if advisor.total_pulls >= self.max_rounds or advisor.converged():
            return None
        index = advisor.select()
        target = advisor.arms[index].dop
        while len(self.mutations) < target and not self.exhausted:
            if not self._mutate(run):
                self.exhausted = True
                break
            self.rungs[len(self.mutations)] = self.working.copy()
        depth = len(self.mutations)
        if self.exhausted and depth == 0:
            return None  # nothing in this plan can be parallelized
        actual = min(target, depth)
        self._pull = (index, actual)
        self._decide(
            run,
            "bandit_arm",
            actual,
            f"arm dop={target}"
            + (f" capped at {actual}" if actual < target else "")
            + f", pull {advisor.arms[index].pulls + 1}",
        )
        return self.working if actual == depth else self.rungs[actual]

    def _observe(self, result: ExecutionResult) -> None:
        index, actual = self._pull
        exec_time = result.response_time
        serial_time = self.records[0].exec_time
        if actual == len(self.mutations):
            self.last_profile = result.profile
        self.advisor.observe(index, serial_time / exec_time)
        if self.gme_time is None or exec_time < self.gme_time:
            self.gme_time, self.gme_run = exec_time, self.run
            if exec_time < serial_time:
                self.history.snapshot_best(self.rungs[actual], self.run)
        prev = self.records[-1].exec_time
        roi = (prev - exec_time) / max(exec_time, prev)
        self.records.append(
            RunRecord(
                self.run, exec_time, roi, 0.0, 0.0, False, self.gme_run, self.gme_time
            )
        )

    def result(self) -> AdaptiveResult:
        gme_time = self.records[0].exec_time if self.gme_time is None else self.gme_time
        result = self._result(gme_time, self.gme_run, self.records)
        result.bandit_arms = self.advisor.summary()
        return result
