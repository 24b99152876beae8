"""The multi-tenant service core, in simulated time.

This is the same service stack the asyncio front-end exposes --
weighted-fair admission (:class:`~repro.serve.scheduler.FairScheduler`),
per-class timeouts and bounded retries, DOP shedding, chaos tolerance
-- but driven entirely by the simulator's event loop, so thousands of
concurrent clients and their full latency distributions are computed
deterministically: one seed gives a byte-identical
:class:`~repro.serve.report.ServeReport` at any host worker count,
with any evaluation backend, on any machine.

The load generator (:mod:`repro.serve.loadgen`) builds its SLO reports
on this class; the asyncio server shares the scheduler and tenant
machinery but runs them against the host clock instead.

Mechanics (mirroring :class:`~repro.concurrency.service.ResilientWorkload`,
which pioneered the simulated-time service pattern):

* every client is a closed loop -- issue, wait for the verdict, think
  (seeded exponential), issue again -- with its first arrival drawn
  uniformly over the horizon, so load ramps realistically instead of
  stampeding at t=0;
* admission is the fair scheduler's job: a query the tenant's queue
  cannot hold is *rejected* (shed, counted, and the client moves on),
  a queued query waits for a fair-share slot;
* per-attempt timeouts and fault retries follow the tenant's SLO
  class; retries re-enter admission like any other query, with
  exponential backoff and optional DOP shedding;
* every RNG draw happens on the simulator main thread in event order,
  which is what makes the whole thing reproducible.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from ..chaos.faults import FaultPlan
from ..chaos.injector import FaultInjector
from ..concurrency.service import ResilienceConfig
from ..config import SimulationConfig
from ..engine.evalpool import EvalPool
from ..engine.memo import IntermediateCache
from ..engine.scheduler import Simulator
from ..errors import InjectedFaultError, ReproError, ServeError
from ..observe.metrics import MetricsRegistry
from ..plan.graph import Plan
from .report import ServeReport, TenantOutcome
from .scheduler import FairScheduler
from .tenants import TenantDirectory, TenantSpec


@dataclass(frozen=True)
class TenantLoad:
    """One tenant's offered load: clients re-issuing a plan mix."""

    tenant: str
    clients: int
    #: Plan templates the tenant's clients draw from (every submission
    #: executes the shared template; the simulator never mutates it).
    plans: tuple[Plan, ...]
    #: Mean think time between one client's queries, simulated seconds.
    think_mean: float = 0.25

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ServeError(f"tenant {self.tenant!r} needs >= 1 client")
        if not self.plans:
            raise ServeError(f"tenant {self.tenant!r} needs >= 1 plan")
        if self.think_mean < 0:
            raise ServeError(f"tenant {self.tenant!r}: think_mean must be >= 0")


class _SQuery:
    """One client query across its retries (simulated path)."""

    __slots__ = ("load", "spec", "template", "t0", "tries", "max_threads",
                 "client", "submitted")

    def __init__(self, load: TenantLoad, spec: TenantSpec, template: Plan,
                 t0: float, client: int) -> None:
        self.load = load
        self.spec = spec
        self.template = template
        self.t0 = t0
        self.tries = 0
        self.max_threads = spec.max_threads
        self.client = client
        #: Set when the fair scheduler hands the query to the machine;
        #: queries still unset after the offer's pump waited in queue.
        self.submitted = False


class _SAttempt:
    """One submission attempt of a :class:`_SQuery`."""

    __slots__ = ("query", "timed_out", "settled")

    def __init__(self, query: _SQuery) -> None:
        self.query = query
        self.timed_out = False
        self.settled = False


class TenantLoadService:
    """Deterministic multi-tenant load run on one shared machine."""

    def __init__(
        self,
        config: SimulationConfig,
        directory: TenantDirectory,
        loads: list[TenantLoad],
        *,
        horizon: float = 2.0,
        faults: FaultInjector | FaultPlan | None = None,
        resilience: ResilienceConfig | None = None,
        max_in_flight: int | None = None,
        workers: int | None = None,
        backend: str | None = None,
        memoize: bool = True,
        chaos_label: str | None = None,
        metrics: MetricsRegistry | None = None,
        metrics_lock: threading.Lock | None = None,
    ) -> None:
        if horizon <= 0:
            raise ServeError("horizon must be positive")
        if not loads:
            raise ServeError("need at least one tenant load")
        seen = set()
        for load in loads:
            directory.get(load.tenant)  # raises on unknown tenants
            if load.tenant in seen:
                raise ServeError(f"duplicate load for tenant {load.tenant!r}")
            seen.add(load.tenant)
        self.config = config
        self.directory = directory
        self.loads = loads
        self.horizon = horizon
        if isinstance(faults, FaultPlan):
            faults = FaultInjector(faults, seed=config.derive_seed("chaos"))
        self.faults = faults
        if chaos_label is not None:
            self.chaos_label = chaos_label
        else:
            self.chaos_label = "none" if faults is None else "injected"
        self.resilience = resilience if resilience is not None else ResilienceConfig()
        self.max_in_flight = (
            max_in_flight
            if max_in_flight is not None
            else 2 * config.machine.hardware_threads
        )
        self.workers = workers
        self.backend = backend
        self.memoize = memoize
        # Live metrics (optional): scraped by the asyncio /metrics
        # endpoint *while* the run progresses on another thread, hence
        # the shared lock.  Pure bookkeeping -- the report never reads
        # from here, so determinism is untouched.
        self.metrics = metrics
        self.metrics_lock = metrics_lock if metrics_lock is not None else threading.Lock()

    # ------------------------------------------------------------------
    def _metric_inc(self, name: str, tenant: str, help_text: str) -> None:
        if self.metrics is None:
            return
        with self.metrics_lock:
            self.metrics.counter(
                f"repro_serve_{name}_total", help_text, tenant=tenant
            ).inc()

    def _metric_latency(self, tenant: str, seconds: float) -> None:
        if self.metrics is None:
            return
        with self.metrics_lock:
            self.metrics.histogram(
                "repro_serve_latency_seconds",
                help="client-perceived simulated latency",
                tenant=tenant,
            ).observe(seconds)

    # ------------------------------------------------------------------
    def run(self, *, seed: int | None = None) -> ServeReport:
        """Run the load to completion and report.

        ``seed`` stamps the report and reseeds the client arrival RNG;
        when ``None``, the config's own seed drives everything.
        Repeated calls with the same seed are independent and
        byte-identical.
        """
        config = self.config if seed is None else self.config.with_seed(seed)
        injector = self.faults.spawn() if self.faults is not None else None
        res = self.resilience
        pool = (
            EvalPool(self.workers, backend=self.backend)
            if self.backend is not None
            or (self.workers is not None and self.workers > 1)
            else None
        )
        memo = IntermediateCache() if self.memoize else None
        simulator = Simulator(config, evalpool=pool, faults=injector, memo=memo)
        rng = np.random.default_rng(config.derive_seed("serve.clients"))
        scheduler = FairScheduler(
            self.directory, max_in_flight=self.max_in_flight
        )

        report = ServeReport(
            seed=config.seed,
            horizon=self.horizon,
            chaos=self.chaos_label,
        )
        for load in self.loads:
            spec = self.directory.get(load.tenant)
            report.tenants[load.tenant] = TenantOutcome(
                spec=spec, clients=load.clients
            )

        # ---- service mechanics, innermost first -----------------------
        def submit(query: _SQuery) -> None:
            query.submitted = True
            attempt = _SAttempt(query)
            simulator.submit(
                query.template,
                client=query.spec.name,
                max_threads=query.max_threads,
                on_complete=lambda _sid, _a=attempt: on_complete(_a),
                on_failure=lambda _sid, error, _a=attempt: on_failure(_a, error),
            )
            timeout = query.spec.slo.timeout
            if timeout is not None:
                simulator.schedule_at(
                    simulator.now + timeout,
                    lambda _a=attempt: on_timeout(_a),
                )

        def pump() -> None:
            for _spec, query in scheduler.pump():
                submit(query)

        def offer(query: _SQuery, *, retry: bool = False) -> bool:
            outcome = report.tenants[query.load.tenant]
            accepted = scheduler.offer(query.spec.name, query)
            if not accepted:
                if not retry:
                    outcome.rejected += 1
                    self._metric_inc(
                        "rejected", query.spec.name, "admission-rejected queries"
                    )
                return False
            pump()
            if not query.submitted:
                outcome.admission_waits += 1
            return True

        def release(query: _SQuery) -> None:
            scheduler.release(query.spec.name)
            pump()

        def think(load: TenantLoad, client: int) -> None:
            """Schedule the client's next arrival, if inside the horizon."""
            delay = (
                float(rng.exponential(load.think_mean))
                if load.think_mean > 0
                else 0.0
            )
            when = simulator.now + delay
            if when >= self.horizon:
                return
            simulator.schedule_at(
                when, lambda _l=load, _c=client: issue(_l, _c)
            )

        def issue(load: TenantLoad, client: int) -> None:
            if simulator.now >= self.horizon:
                return
            outcome = report.tenants[load.tenant]
            outcome.issued += 1
            self._metric_inc("queries", load.tenant, "queries issued")
            spec = self.directory.get(load.tenant)
            index = int(rng.integers(0, len(load.plans)))
            query = _SQuery(load, spec, load.plans[index], simulator.now, client)
            if not offer(query):
                # Shed load: the client backs off and tries later.
                think(load, client)

        def retry(query: _SQuery) -> None:
            outcome = report.tenants[query.load.tenant]
            outcome.retries += 1
            self._metric_inc("retries", query.spec.name, "query retries")
            retry_index = query.tries
            query.tries += 1
            if res.shed_dop:
                shed = res.shed_threads(
                    query.max_threads, self.config.effective_threads
                )
                if shed is not None:
                    query.max_threads = shed

            def readmit(_q=query) -> None:
                _q.submitted = False
                if not offer(_q, retry=True):
                    # The retry found the tenant queue full: shed it.
                    abandon(_q)

            simulator.schedule_at(
                simulator.now + res.backoff(retry_index), readmit
            )

        def abandon(query: _SQuery) -> None:
            outcome = report.tenants[query.load.tenant]
            outcome.abandoned += 1
            self._metric_inc("abandoned", query.spec.name, "abandoned queries")
            think(query.load, query.client)

        def on_complete(attempt: _SAttempt) -> None:
            query = attempt.query
            release(query)
            if attempt.timed_out:
                return  # the client gave up on this attempt already
            attempt.settled = True
            outcome = report.tenants[query.load.tenant]
            outcome.completed += 1
            elapsed = simulator.now - query.t0
            outcome.response_times.append(elapsed)
            if simulator.now > report.last_completion:
                report.last_completion = simulator.now
            self._metric_inc("completed", query.spec.name, "completed queries")
            self._metric_latency(query.spec.name, elapsed)
            think(query.load, query.client)

        def on_failure(attempt: _SAttempt, error: Exception) -> None:
            query = attempt.query
            release(query)
            if not isinstance(error, InjectedFaultError):
                raise error  # genuine engine bugs must surface
            if attempt.timed_out:
                return
            attempt.settled = True
            if query.tries < query.spec.slo.max_retries:
                retry(query)
            else:
                abandon(query)

        def on_timeout(attempt: _SAttempt) -> None:
            if attempt.settled:
                return
            attempt.timed_out = True
            query = attempt.query
            outcome = report.tenants[query.load.tenant]
            outcome.timeouts += 1
            self._metric_inc("timeouts", query.spec.name, "client timeouts")
            if query.tries < query.spec.slo.max_retries:
                retry(query)
            else:
                abandon(query)

        # ---- seed the arrivals and run --------------------------------
        try:
            for load in self.loads:
                # First arrivals, uniform over the horizon, drawn in one
                # deterministic batch per tenant.
                arrivals = rng.uniform(0.0, self.horizon, size=load.clients)
                for client, when in enumerate(arrivals):
                    simulator.schedule_at(
                        float(when),
                        lambda _l=load, _c=client: issue(_l, _c),
                    )
            simulator.run()
        finally:
            if pool is not None:
                pool.close()

        # ---- finalize -------------------------------------------------
        for load in self.loads:
            outcome = report.tenants[load.tenant]
            stats = scheduler.stats(load.tenant)
            outcome.peak_in_flight = stats.peak_in_flight
            outcome.peak_queue_depth = stats.peak_queue_depth
            # Cross-check the scheduler's view against the client-side
            # accounting: every offer is an issue or a retry readmit,
            # every reject is a client reject or a shed retry.
            expected = outcome.issued + outcome.retries
            if stats.offered != expected:  # pragma: no cover - invariant
                raise ReproError(
                    f"tenant {load.tenant!r}: scheduler saw {stats.offered} "
                    f"offers, clients made {expected}"
                )
        if injector is not None:
            report.faults_injected = injector.stats.total
            report.fault_schedule = tuple(
                event.as_tuple() for event in injector.schedule
            )
        return report
