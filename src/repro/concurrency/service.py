"""Closed-loop client services on one shared simulated machine.

The paper's concurrent experiments (Figures 1 and 16) run 32 clients
re-issuing random TPC-H queries in a closed loop, saturating the box;
contention between clients is emergent from the shared scheduler.
:func:`run_closed_loop` is that loop, for every simulated-time front
end: :class:`ResilientWorkload` (FIFO admission, chaos, disconnects),
:class:`ConcurrentWorkload` (the plain loop, and the runner adaptive
parallelization observes contention with) and
:class:`~repro.serve.service.TenantLoadService` (think times and
weighted-fair admission).  The loop has the service disciplines a
production front end has:

* **per-submission timeout** -- the client gives up on an attempt; the
  work still drains (the simulator has no preemptive cancel, like most
  real engines), but the late response is discarded,
* **bounded retry with exponential backoff** -- failed or timed-out
  queries re-enter admission after ``backoff_base * backoff_factor**k``
  simulated seconds, at most ``max_retries`` times,
* **graceful degradation** -- each retry halves the submission's
  thread cap, so a struggling query stops amplifying the overload,
* **admission control** -- excess queries wait in the admission queue,
  or are rejected when it is full.

Everything runs in *simulated* time on the simulator's main thread, in
event order, so a fixed seed gives bit-identical traces, fault
schedules and reports at any host ``workers`` count.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from ..chaos.faults import FaultPlan
from ..chaos.injector import FaultInjector
from ..config import SimulationConfig
from ..engine.evalpool import EvalPool
from ..engine.scheduler import ExecutionResult, Simulator
from ..errors import InjectedFaultError, ReproError
from ..observe import Observer
from ..plan.graph import Plan
from .client import ClientSpec


@dataclass(frozen=True)
class ResilienceConfig:
    """Service-level knobs of the resilient workload layer."""

    #: Client-side timeout per submission attempt, simulated seconds
    #: (None = wait forever).
    timeout: float | None = None
    #: Maximum re-submissions of one query after faults or timeouts.
    max_retries: int = 3
    #: First backoff delay, simulated seconds.
    backoff_base: float = 0.02
    #: Multiplier applied to the backoff per further retry.
    backoff_factor: float = 2.0
    #: Concurrent-submission cap (admission control); None = twice the
    #: machine's hardware threads -- enough to keep every thread busy,
    #: small enough to bound queueing amplification under overload.
    max_in_flight: int | None = None
    #: Halve a submission's thread cap on every retry (graceful
    #: degradation): a struggling query should stop amplifying overload.
    shed_dop: bool = True
    #: Delay before a disconnected client reconnects, simulated seconds.
    reconnect_delay: float = 0.05

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise ReproError("timeout must be positive (or None)")
        if self.max_retries < 0:
            raise ReproError("max_retries must be >= 0")
        if self.backoff_base < 0 or self.backoff_factor < 1.0:
            raise ReproError(
                "backoff_base must be >= 0 and backoff_factor >= 1"
            )
        if self.max_in_flight is not None and self.max_in_flight < 1:
            raise ReproError("max_in_flight must be >= 1 (or None)")
        if self.reconnect_delay < 0:
            raise ReproError("reconnect_delay must be >= 0")

    def backoff(self, retry_index: int) -> float:
        """Delay before retry number ``retry_index`` (0-based)."""
        return self.backoff_base * self.backoff_factor**retry_index


@dataclass
class WorkloadReport:
    """Per-client response-time and resilience statistics of one run."""

    horizon: float
    by_client: dict[str, list[float]] = field(default_factory=dict)
    #: Simulated time of the last completed query (0.0 when none
    #: completed).  Runs that end early -- every client exhausted its
    #: ``max_queries`` budget -- stop well before ``horizon``, so rates
    #: are computed over this span, not the configured horizon.
    last_completion: float = 0.0
    #: Resilience counters, summed over clients.
    retries: int = 0
    timeouts: int = 0
    disconnects: int = 0
    shed_dop: int = 0
    abandoned: int = 0
    faults_injected: int = 0
    admission_waits: int = 0
    peak_in_flight: int = 0
    peak_queue_depth: int = 0
    #: The injected fault schedule, as plain tuples (see
    #: :meth:`repro.chaos.faults.FaultEvent.as_tuple`) -- part of the
    #: bit-reproducibility surface.
    fault_schedule: tuple = ()

    def completed(self, client: str | None = None) -> int:
        """Queries completed, for one client or in total."""
        if client is not None:
            return len(self.by_client.get(client, []))
        return sum(len(v) for v in self.by_client.values())

    def mean_response(self, client: str) -> float:
        """Mean response time of one client's completed queries."""
        times = self.by_client.get(client)
        if not times:
            raise ReproError(f"client {client!r} completed no queries")
        return float(np.mean(times))

    def response_percentile(self, q: float) -> float:
        """The q-th percentile (0-100) response time over all clients."""
        times = [t for values in self.by_client.values() for t in values]
        if not times:
            raise ReproError("no queries completed")
        return float(np.percentile(times, q))

    @property
    def p50_response(self) -> float:
        """Median response time over all clients."""
        return self.response_percentile(50.0)

    @property
    def p99_response(self) -> float:
        """99th-percentile response time over all clients."""
        return self.response_percentile(99.0)

    @property
    def elapsed(self) -> float:
        """The span rates are computed over.

        The actual last-completion time when the run produced any
        completions (a ``max_queries``-bounded run can end long before
        the horizon); the configured horizon otherwise.
        """
        if self.last_completion > 0.0:
            return self.last_completion
        return self.horizon

    def throughput(self) -> float:
        """Completed queries per simulated second, across all clients."""
        span = self.elapsed
        if span <= 0:
            return 0.0
        return self.completed() / span

    def as_dict(self) -> dict:
        """A plain-data projection, the bit-reproducibility surface.

        Two runs with the same seed must produce *equal* dictionaries
        (including every individual response time), at any host worker
        count -- the chaos property tests compare exactly this.
        """
        return {
            "horizon": self.horizon,
            "by_client": {k: list(v) for k, v in sorted(self.by_client.items())},
            "last_completion": self.last_completion,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "disconnects": self.disconnects,
            "shed_dop": self.shed_dop,
            "abandoned": self.abandoned,
            "faults_injected": self.faults_injected,
            "admission_waits": self.admission_waits,
            "peak_in_flight": self.peak_in_flight,
            "peak_queue_depth": self.peak_queue_depth,
            "fault_schedule": tuple(self.fault_schedule),
        }


@dataclass(eq=False)
class Lane:
    """One population of closed-loop clients, and its tally.

    Every client of a lane draws its queries from the lane's plan mix
    and follows the lane's limits; the counters are what the front ends
    build their reports from.
    """

    name: str
    #: Plan templates, drawn uniformly per query (the simulator only
    #: reads a plan, so every submission shares the template).
    plans: Sequence[Plan]
    clients: int = 1
    #: Mean of the seeded exponential think time between one client's
    #: queries, simulated seconds; 0 re-issues at once.
    think_mean: float = 0.0
    max_threads: int | None = None
    #: Stop issuing after this many queries (None = until the horizon).
    max_queries: int | None = None
    timeout: float | None = None
    max_retries: int = 3
    issued: int = 0
    rejected: int = 0
    completed: int = 0
    retries: int = 0
    timeouts: int = 0
    abandoned: int = 0
    admission_waits: int = 0
    disconnects: int = 0
    shed_dop: int = 0
    #: Client-perceived response times, simulated seconds, completion
    #: order (every retry and backoff wait included).
    response_times: list[float] = field(default_factory=list)


class FifoAdmission:
    """First-come admission under one in-flight cap.

    The :class:`~repro.serve.scheduler.FairScheduler` interface over a
    single unbounded queue, so no offer is rejected and no client
    starves.  The peak queue depth is taken after :meth:`pump`: only
    queries that really wait count.
    """

    def __init__(self, cap: int) -> None:
        self.cap = cap
        self.queue: deque[tuple[str, Any]] = deque()
        self.in_flight = 0
        self.peak_in_flight = 0
        self.peak_queue_depth = 0

    def offer(self, tenant: str, item: Any) -> bool:
        self.queue.append((tenant, item))
        return True

    def pump(self) -> list[tuple[str, Any]]:
        admitted = []
        while self.queue and self.in_flight < self.cap:
            admitted.append(self.queue.popleft())
            self.in_flight += 1
        self.peak_in_flight = max(self.peak_in_flight, self.in_flight)
        self.peak_queue_depth = max(self.peak_queue_depth, len(self.queue))
        return admitted

    def release(self, tenant: str) -> None:
        self.in_flight -= 1

    def queued_depth(self, tenant: str) -> int:
        return len(self.queue)


@dataclass(slots=True, eq=False)
class _Query:
    """One client query's journey through the service, across retries."""

    lane: Lane
    client: int
    plan: Plan
    #: First-issue time: response times are client-perceived, so they
    #: include every retry and backoff wait.
    t0: float
    #: Thread cap of the *next* submission (shed on retries).
    max_threads: int | None
    #: Retries consumed so far.
    tries: int = 0
    #: Set once admission hands the query to the machine.
    submitted: bool = False


@dataclass(slots=True, eq=False)
class _Attempt:
    """One submission attempt of a :class:`_Query`.

    A timed-out attempt keeps draining inside the simulator while its
    retry is already running, so the verdict lives per attempt: the
    first of completion, failure and timeout decides, and the others
    find ``decided`` set and drop out.
    """

    query: _Query
    disconnected: bool
    decided: bool = False


def _ignore(kind: str, lane: Lane, **attrs) -> None:
    """The default ``note`` hook: record nothing."""


def run_closed_loop(
    simulator: Simulator,
    arrivals: Iterable[tuple[float, Lane, int]],
    *,
    admission,
    rng: np.random.Generator,
    horizon: float,
    resilience: ResilienceConfig,
    disconnects: FaultInjector | None = None,
    note: Callable[..., None] = _ignore,
) -> float:
    """Run closed-loop clients on ``simulator`` until every query settles.

    ``arrivals`` holds each client's first issue, ``(when, lane,
    client)``.  An issue inside the horizon draws a plan from the lane's
    mix and offers the query to ``admission`` (:class:`FifoAdmission`
    or a :class:`~repro.serve.scheduler.FairScheduler`); after the
    verdict the client issues again, at once or after a think time
    drawn from ``rng``.  ``disconnects`` (an injector) decides per
    submission whether the client drops the response and reconnects.
    ``note(kind, lane, **attrs)`` hears every decision: ``issue``,
    ``reject``, ``admission_wait``, ``retry``, ``shed_dop``,
    ``timeout``, ``abandon``, ``disconnect`` and ``complete``.
    Returns the simulated time of the last completion (0.0 if none).
    """
    effective = simulator.config.effective_threads
    last_completion = 0.0

    def submit(query: _Query) -> None:
        lane = query.lane
        query.submitted = True
        disconnected = disconnects is not None and disconnects.draw_disconnect(
            sid=-1, client=lane.name, now=simulator.now
        )
        attempt = _Attempt(query, disconnected)
        simulator.submit(
            query.plan,
            client=lane.name,
            max_threads=query.max_threads,
            on_complete=lambda _sid: on_complete(attempt),
            on_failure=lambda _sid, error: on_failure(attempt, error),
        )
        if lane.timeout is not None:
            simulator.schedule_at(
                simulator.now + lane.timeout, lambda: on_timeout(attempt)
            )

    def pump() -> None:
        for _tenant, query in admission.pump():
            submit(query)

    def offer(query: _Query) -> bool:
        lane = query.lane
        query.submitted = False
        if not admission.offer(lane.name, query):
            return False
        pump()
        if not query.submitted:
            lane.admission_waits += 1
            note("admission_wait", lane, depth=admission.queued_depth(lane.name))
        return True

    def issue(lane: Lane, client: int) -> None:
        if simulator.now >= horizon or (
            lane.max_queries is not None and lane.issued >= lane.max_queries
        ):
            return
        lane.issued += 1
        note("issue", lane)
        plan = lane.plans[int(rng.integers(0, len(lane.plans)))]
        if not offer(_Query(lane, client, plan, simulator.now, lane.max_threads)):
            lane.rejected += 1
            note("reject", lane)
            next_issue(lane, client)

    def next_issue(lane: Lane, client: int) -> None:
        if lane.think_mean == 0:
            issue(lane, client)
            return
        when = simulator.now + float(rng.exponential(lane.think_mean))
        if when < horizon:
            simulator.schedule_at(when, lambda: issue(lane, client))

    def retry_or_abandon(query: _Query) -> None:
        lane = query.lane
        if query.tries >= lane.max_retries:
            abandon(query)
            return
        lane.retries += 1
        backoff = resilience.backoff(query.tries)
        query.tries += 1
        note("retry", lane, attempt=query.tries)
        cap = query.max_threads if query.max_threads is not None else effective
        if resilience.shed_dop and cap > 1:
            query.max_threads = cap // 2
            lane.shed_dop += 1
            note("shed_dop", lane, threads=cap // 2)

        def readmit() -> None:
            if not offer(query):
                abandon(query)  # the retry found the queue full

        simulator.schedule_at(simulator.now + backoff, readmit)

    def abandon(query: _Query) -> None:
        query.lane.abandoned += 1
        note("abandon", query.lane)
        next_issue(query.lane, query.client)

    def on_complete(attempt: _Attempt) -> None:
        nonlocal last_completion
        query = attempt.query
        lane = query.lane
        admission.release(lane.name)
        pump()
        if attempt.decided:
            # The client already gave up on this attempt; the late
            # result is discarded (the timeout path moved on).
            return
        attempt.decided = True
        if attempt.disconnected:
            lane.disconnects += 1
            note("disconnect", lane)
            simulator.schedule_at(
                simulator.now + resilience.reconnect_delay,
                lambda: issue(lane, query.client),
            )
            return
        lane.completed += 1
        elapsed = simulator.now - query.t0
        lane.response_times.append(elapsed)
        last_completion = max(last_completion, simulator.now)
        note("complete", lane, seconds=elapsed)
        next_issue(lane, query.client)

    def on_failure(attempt: _Attempt, error: Exception) -> None:
        admission.release(attempt.query.lane.name)
        pump()
        if not isinstance(error, InjectedFaultError):
            # A genuine engine bug must never be retried into silence
            # -- propagate out of Simulator.run().
            raise error
        if attempt.decided:
            return  # the timeout path already decided what happens
        attempt.decided = True
        retry_or_abandon(attempt.query)

    def on_timeout(attempt: _Attempt) -> None:
        if attempt.decided:
            return  # completed/failed before the deadline
        attempt.decided = True
        lane = attempt.query.lane
        lane.timeouts += 1
        note("timeout", lane)
        retry_or_abandon(attempt.query)

    for when, lane, client in arrivals:
        simulator.schedule_at(
            when, lambda _lane=lane, _client=client: issue(_lane, _client)
        )
    simulator.run()
    return last_completion


#: The loop decisions :class:`ResilientWorkload` traces as ``service``
#: events and counts as ``repro_service_<kind>_total``.
SERVICE_EVENTS = frozenset(
    ("admission_wait", "retry", "shed_dop", "abandon", "disconnect", "timeout")
)


class ResilientWorkload:
    """Closed-loop multi-client workload that survives injected chaos.

    Set-up and report around :func:`run_closed_loop`: one lane per
    client, re-issuing at once after each verdict until the horizon,
    under the disciplines of :class:`ResilienceConfig`, FIFO admission
    and optional fault injection and client disconnects.
    """

    def __init__(
        self,
        config: SimulationConfig,
        clients: list[ClientSpec],
        *,
        horizon: float = 30.0,
        faults: FaultInjector | FaultPlan | None = None,
        resilience: ResilienceConfig | None = None,
        workers: int | None = None,
        backend: str | None = None,
        observe: Observer | None = None,
    ) -> None:
        if horizon <= 0:
            raise ReproError("horizon must be positive")
        if not clients:
            raise ReproError("need at least one client")
        self.config = config
        self.clients = clients
        self.horizon = horizon
        self.resilience = resilience if resilience is not None else ResilienceConfig()
        if isinstance(faults, FaultPlan):
            faults = FaultInjector(faults, seed=config.derive_seed("chaos"))
        self.faults = faults
        self.workers = workers
        self.backend = backend
        # Observability: service-level decisions (retries, timeouts,
        # disconnect handling, DOP shedding, admission waits) become
        # ``service`` events and ``repro_service_*`` metrics, on top of
        # everything the simulator emits.  All decisions happen on the
        # simulator main thread in simulated-event order, so the trace
        # is bit-identical at any host ``workers`` count.
        self.observe = observe

    def _client_seed(self) -> int:
        """Seed of the clients' plan-draw RNG."""
        return self.config.derive_seed("service.clients")

    # ------------------------------------------------------------------
    def run(self) -> WorkloadReport:
        """Run the workload to completion and report.

        Completion means: the horizon has passed, every admitted
        submission has drained, and every pending retry has resolved --
        the simulator's event loop decides, there is no host-side
        polling.  Repeated calls are independent and identical: the
        fault injector is re-spawned fresh each time.
        """
        return self._run(lambda simulator: None)

    def _run(self, prepare: Callable[[Simulator], None]) -> WorkloadReport:
        """Run with ``prepare(simulator)`` called before the first event."""
        injector = self.faults.spawn() if self.faults is not None else None
        res = self.resilience
        pool = (
            EvalPool(self.workers, backend=self.backend)
            if self.backend is not None
            or (self.workers is not None and self.workers > 1)
            else None
        )
        obs = self.observe
        simulator = Simulator(
            self.config, evalpool=pool, faults=injector, observe=obs
        )
        prepare(simulator)

        def note(kind: str, lane: Lane, **attrs) -> None:
            """One service-level decision as an instant event + counter."""
            if obs is None or kind not in SERVICE_EVENTS:
                return
            obs.tracer.event(kind, "service", simulator.now, client=lane.name, **attrs)
            obs.metrics.counter(
                f"repro_service_{kind}_total",
                f"service-level {kind} decisions",
            ).inc()

        lanes = [
            Lane(
                spec.name,
                spec.plans,
                max_threads=spec.max_threads,
                max_queries=spec.max_queries,
                timeout=res.timeout,
                max_retries=res.max_retries,
            )
            for spec in self.clients
        ]
        admission = FifoAdmission(
            res.max_in_flight
            if res.max_in_flight is not None
            else 2 * self.config.machine.hardware_threads
        )
        pool_stats = None
        try:
            last_completion = run_closed_loop(
                simulator,
                [(0.0, lane, 0) for lane in lanes],
                admission=admission,
                rng=np.random.default_rng(self._client_seed()),
                horizon=self.horizon,
                resilience=res,
                disconnects=injector,
                note=note,
            )
        finally:
            if pool is not None:
                # Snapshot before close: backend-specific counters are
                # dropped once the backend is released.
                pool_stats = pool.stats()
                pool.close()
        report = WorkloadReport(
            horizon=self.horizon,
            by_client={lane.name: list(lane.response_times) for lane in lanes},
            last_completion=last_completion,
            peak_in_flight=admission.peak_in_flight,
            peak_queue_depth=admission.peak_queue_depth,
            **{
                counter: sum(getattr(lane, counter) for lane in lanes)
                for counter in ("retries", "timeouts", "disconnects",
                                "shed_dop", "abandoned", "admission_waits")
            },
        )
        if obs is not None:
            obs.metrics.gauge(
                "repro_service_peak_in_flight",
                "maximum concurrent submissions observed",
            ).set(float(report.peak_in_flight))
            obs.metrics.gauge(
                "repro_service_peak_queue_depth",
                "maximum admission-queue depth observed",
            ).set(float(report.peak_queue_depth))
            if pool_stats is not None:
                obs.record_pool(pool_stats)
        if injector is not None:
            report.faults_injected = injector.stats.total
            report.fault_schedule = tuple(
                event.as_tuple() for event in injector.schedule
            )
        return report


class ConcurrentWorkload(ResilientWorkload):
    """Closed-loop multi-client workload on a shared machine.

    :class:`ResilientWorkload` without faults, and with one admission
    slot per client, so the cap never binds: every client re-submits
    straight into the machine after each completion.  It also serves
    as the runner for *adaptive parallelization under load*:
    :meth:`measure_plan` executes a probe plan while the background
    clients keep hammering the machine, which is how AP plans become
    resource-contention aware.
    """

    def __init__(
        self,
        config: SimulationConfig,
        clients: list[ClientSpec],
        *,
        horizon: float = 30.0,
    ) -> None:
        super().__init__(config, clients, horizon=horizon)
        self.resilience = ResilienceConfig(max_in_flight=len(clients))

    def _client_seed(self) -> int:
        return self.config.seed + 7_919

    def measure_plan(
        self, plan: Plan, *, max_threads: int | None = None, warmup: float = 1.0
    ) -> ExecutionResult:
        """Execute ``plan`` once under full background load.

        The background clients run for ``warmup`` simulated seconds
        first so the machine is saturated when the probe is submitted --
        this is the runner adaptive parallelization uses to observe
        contention.
        """
        probe: list[tuple[Simulator, int]] = []

        def prepare(simulator: Simulator) -> None:
            # The event loop never steps past a timer's deadline, so the
            # probe goes in at exactly ``warmup``.
            simulator.schedule_at(
                warmup,
                lambda: probe.append((simulator, simulator.submit(
                    plan, client="probe", max_threads=max_threads
                ))),
            )

        self._run(prepare)
        simulator, sid = probe[0]
        return simulator.result(sid)
