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

Each tenant is one :class:`~repro.concurrency.service.Lane` of the
shared closed loop, :func:`~repro.concurrency.service.run_closed_loop`:

* every client issues, waits for the verdict, thinks (seeded
  exponential), and issues again, with its first arrival drawn
  uniformly over the horizon, so load ramps realistically instead of
  stampeding at t=0;
* admission is the fair scheduler's job: a query the tenant's queue
  cannot hold is *rejected* (shed, counted, and the client moves on),
  a queued query waits for a fair-share slot;
* per-attempt timeouts and fault retries follow the tenant's SLO
  class; retries re-enter admission like any other query, with
  exponential backoff and optional DOP shedding.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from ..chaos.faults import FaultPlan
from ..chaos.injector import FaultInjector
from ..concurrency.service import Lane, ResilienceConfig, run_closed_loop
from ..config import SimulationConfig
from ..engine.evalpool import EvalPool
from ..engine.memo import IntermediateCache
from ..engine.scheduler import Simulator
from ..errors import ReproError, ServeError
from ..observe.metrics import MetricsRegistry
from ..plan.graph import Plan
from .report import ServeReport, TenantOutcome
from .scheduler import FairScheduler
from .tenants import TenantDirectory

#: The loop decisions counted as ``repro_serve_<name>_total{tenant}``:
#: decision kind -> (metric name, help text).
SERVE_COUNTERS = {
    "issue": ("queries", "queries issued"),
    "reject": ("rejected", "admission-rejected queries"),
    "retry": ("retries", "query retries"),
    "timeout": ("timeouts", "client timeouts"),
    "abandon": ("abandoned", "abandoned queries"),
    "complete": ("completed", "completed queries"),
}


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


class TenantLoadService:
    """Deterministic multi-tenant load run on one shared machine.

    Set-up and report around :func:`run_closed_loop`: one lane per
    tenant, the fair scheduler as admission, the live metrics as the
    loop's ``note`` hook.
    """

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
        # Live metrics (optional): scraped by the asyncio /metrics
        # endpoint *while* the run progresses on another thread, hence
        # the shared lock.  Pure bookkeeping -- the report never reads
        # from here, so determinism is untouched.
        self.metrics = metrics
        self.metrics_lock = metrics_lock if metrics_lock is not None else threading.Lock()

    # ------------------------------------------------------------------
    def _note(self, kind: str, lane: Lane, *, seconds: float = 0.0, **_attrs) -> None:
        """Count one loop decision in the live ``repro_serve_*`` metrics."""
        counter = SERVE_COUNTERS.get(kind)
        if counter is None or self.metrics is None:
            return
        name, help_text = counter
        with self.metrics_lock:
            self.metrics.counter(
                f"repro_serve_{name}_total", help_text, tenant=lane.name
            ).inc()
            if kind == "complete":
                self.metrics.histogram(
                    "repro_serve_latency_seconds",
                    help="client-perceived simulated latency",
                    tenant=lane.name,
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
        pool = (
            EvalPool(self.workers, backend=self.backend)
            if self.backend is not None
            or (self.workers is not None and self.workers > 1)
            else None
        )
        simulator = Simulator(
            config, evalpool=pool, faults=injector, memo=IntermediateCache()
        )
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
                name=load.tenant,
                plans=load.plans,
                clients=load.clients,
                think_mean=load.think_mean,
                max_threads=spec.max_threads,
                timeout=spec.slo.timeout,
                max_retries=spec.slo.max_retries,
                spec=spec,
            )
        lanes = list(report.tenants.values())
        # First arrivals, uniform over the horizon, drawn in one
        # deterministic batch per tenant.
        arrivals = [
            (float(when), lane, client)
            for lane in lanes
            for client, when in enumerate(
                rng.uniform(0.0, self.horizon, size=lane.clients)
            )
        ]
        try:
            report.last_completion = run_closed_loop(
                simulator,
                arrivals,
                admission=scheduler,
                rng=rng,
                horizon=self.horizon,
                resilience=self.resilience,
                note=self._note,
            )
        finally:
            if pool is not None:
                pool.close()

        for lane in lanes:
            stats = scheduler.stats(lane.name)
            lane.peak_in_flight = stats.peak_in_flight
            lane.peak_queue_depth = stats.peak_queue_depth
            # Cross-check the scheduler's view against the client-side
            # accounting: every offer is an issue or a retry readmit.
            if stats.offered != lane.issued + lane.retries:  # pragma: no cover
                raise ReproError(
                    f"tenant {lane.name!r}: scheduler saw {stats.offered} "
                    f"offers, clients made {lane.issued + lane.retries}"
                )
        if injector is not None:
            report.faults_injected = injector.stats.total
            report.fault_schedule = tuple(
                event.as_tuple() for event in injector.schedule
            )
        return report
