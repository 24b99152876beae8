"""Resilient concurrent workload service: chaos-tolerant closed loops.

The plain :class:`~repro.concurrency.runner.ConcurrentWorkload` assumes
every submission succeeds.  Under the chaos harness
(:mod:`repro.chaos`), operators crash, straggle, and clients disconnect
-- the paper's concurrent experiments (Figures 1, 16) and convergence
robustness claim (Figure 18) are only credible if the workload layer
survives all of that.  :class:`ResilientWorkload` adds the service
disciplines a production front-end would have:

* **per-submission timeout** -- a client gives up on a query after
  ``timeout`` simulated seconds; the in-flight work still drains (the
  simulator has no preemptive cancel, like most real engines), but the
  late response is discarded and the query retried,
* **bounded retry with exponential backoff** -- failed or timed-out
  queries are re-submitted after ``backoff_base * backoff_factor**k``
  simulated seconds, at most ``max_retries`` times,
* **graceful degradation** -- each retry sheds DOP (halves the
  submission's hardware-thread cap) so a struggling query stops
  amplifying the overload that is likely killing it,
* **admission control / backpressure** -- at most ``max_in_flight``
  submissions run concurrently; excess queries wait in a FIFO admission
  queue, which also guarantees no client starves.

Everything above runs in *simulated* time on the simulator's main
thread, so a fixed seed gives bit-identical traces, fault schedules,
and :class:`~repro.concurrency.runner.WorkloadReport`s at any host
``workers`` count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..chaos.faults import FaultPlan
from ..chaos.injector import FaultInjector
from ..config import SimulationConfig
from ..engine.evalpool import EvalPool
from ..engine.scheduler import Simulator
from ..errors import InjectedFaultError, ReproError
from ..observe import Observer
from .client import ClientSpec, ClientState
from .runner import WorkloadReport


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

    def shed_threads(
        self, current: int | None, effective: int
    ) -> int | None:
        """The halved thread cap of a retried submission, or ``None``.

        ``None`` means no shedding happens: the policy is disabled or
        the cap is already at the floor of one thread.  ``current`` is
        the submission's present cap (``None`` = the machine default,
        ``effective``).  Shared by :class:`ResilientWorkload` and the
        multi-tenant serve layer so both degrade identically.
        """
        if not self.shed_dop:
            return None
        cap = current if current is not None else effective
        shed = max(1, cap // 2)
        return shed if shed < cap else None


class _Query:
    """One client query's journey through the service, across retries."""

    __slots__ = ("state", "template", "t0", "tries", "max_threads")

    def __init__(
        self, state: ClientState, template, t0: float, max_threads: int | None
    ) -> None:
        self.state = state
        #: The drawn plan template; every (re-)submission executes it.
        self.template = template
        #: First-issue time: response times are client-perceived, so
        #: they include every retry and backoff wait.
        self.t0 = t0
        #: Retries consumed so far.
        self.tries = 0
        #: Thread cap of the *next* submission (shed on retries).
        self.max_threads = max_threads


class _Try:
    """One submission attempt of a :class:`_Query`.

    A timed-out attempt keeps draining inside the simulator while its
    retry is already running; the two must not share verdict flags,
    which is why these live per-attempt, not per-query.
    """

    __slots__ = ("query", "timed_out", "disconnected", "settled")

    def __init__(self, query: _Query, disconnected: bool) -> None:
        self.query = query
        self.timed_out = False
        self.disconnected = disconnected
        #: True once this attempt reached a verdict (completed or
        #: failed) -- guards the timeout timer.
        self.settled = False


class ResilientWorkload:
    """Closed-loop multi-client workload that survives injected chaos.

    The same shape as :class:`ConcurrentWorkload` -- every client
    re-issues immediately after each completion until the horizon --
    plus the resilience disciplines of :class:`ResilienceConfig` and
    optional fault injection.
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

    # ------------------------------------------------------------------
    def run(self) -> WorkloadReport:
        """Run the workload to completion and report.

        Completion means: the horizon has passed, every admitted
        submission has drained, and every pending retry has resolved --
        the simulator's event loop decides, there is no host-side
        polling.  Repeated calls are independent and identical: the
        fault injector is re-spawned fresh each time.
        """
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
        rng = np.random.default_rng(self.config.derive_seed("service.clients"))

        def note(name: str, **attrs) -> None:
            """One service-level decision as an instant event + counter."""
            if obs is None:
                return
            obs.tracer.event(name, "service", simulator.now, **attrs)
            obs.metrics.counter(
                f"repro_service_{name}_total",
                f"service-level {name} decisions",
            ).inc()

        states = [ClientState(spec) for spec in self.clients]
        cap = res.max_in_flight
        if cap is None:
            cap = 2 * self.config.machine.hardware_threads

        report = WorkloadReport(horizon=self.horizon)
        in_flight = 0
        admission_queue: list[_Query] = []

        # ---- service mechanics, innermost first -----------------------
        def submit(query: _Query) -> None:
            nonlocal in_flight
            in_flight += 1
            if in_flight > report.peak_in_flight:
                report.peak_in_flight = in_flight
            disconnected = False
            if injector is not None:
                disconnected = injector.draw_disconnect(
                    sid=-1, client=query.state.spec.name, now=simulator.now
                )
            attempt = _Try(query, disconnected)
            simulator.submit(
                query.template,
                client=query.state.spec.name,
                max_threads=query.max_threads,
                on_complete=lambda _sid, _a=attempt: on_complete(_a),
                on_failure=lambda _sid, error, _a=attempt: on_failure(_a, error),
            )
            if res.timeout is not None:
                simulator.schedule_at(
                    simulator.now + res.timeout,
                    lambda _a=attempt: on_timeout(_a),
                )

        def admit(query: _Query) -> None:
            if in_flight < cap:
                submit(query)
                return
            report.admission_waits += 1
            admission_queue.append(query)
            if len(admission_queue) > report.peak_queue_depth:
                report.peak_queue_depth = len(admission_queue)
            note(
                "admission_wait",
                client=query.state.spec.name,
                depth=len(admission_queue),
            )

        def release_slot() -> None:
            nonlocal in_flight
            in_flight -= 1
            if admission_queue and in_flight < cap:
                submit(admission_queue.pop(0))

        def retry(query: _Query) -> None:
            report.retries += 1
            retry_index = query.tries
            query.tries += 1
            note("retry", client=query.state.spec.name, attempt=query.tries)
            shed = res.shed_threads(
                query.max_threads, self.config.effective_threads
            )
            if shed is not None:
                query.max_threads = shed
                report.shed_dop += 1
                note(
                    "shed_dop",
                    client=query.state.spec.name,
                    threads=shed,
                )
            simulator.schedule_at(
                simulator.now + res.backoff(retry_index),
                lambda _q=query: admit(_q),
            )

        def abandon(query: _Query) -> None:
            report.abandoned += 1
            note("abandon", client=query.state.spec.name)
            issue(query.state)

        def on_complete(attempt: _Try) -> None:
            release_slot()
            if attempt.timed_out:
                # The client already gave up on this attempt; the late
                # result is discarded (the timeout path moved on).
                return
            attempt.settled = True
            query = attempt.query
            if attempt.disconnected:
                report.disconnects += 1
                note("disconnect", client=query.state.spec.name)
                state = query.state
                simulator.schedule_at(
                    simulator.now + res.reconnect_delay,
                    lambda _s=state: issue(_s),
                )
                return
            state = query.state
            state.completed += 1
            state.response_times.append(simulator.now - query.t0)
            if simulator.now > report.last_completion:
                report.last_completion = simulator.now
            issue(state)

        def on_failure(attempt: _Try, error: Exception) -> None:
            release_slot()
            if not isinstance(error, InjectedFaultError):
                # A genuine engine bug must never be retried into
                # silence -- propagate out of Simulator.run().
                raise error
            if attempt.timed_out:
                return  # the timeout path already decided what happens
            attempt.settled = True
            query = attempt.query
            if query.tries < res.max_retries:
                retry(query)
            else:
                abandon(query)

        def on_timeout(attempt: _Try) -> None:
            if attempt.settled:
                return  # completed/failed before the deadline
            attempt.timed_out = True
            report.timeouts += 1
            query = attempt.query
            note("timeout", client=query.state.spec.name)
            if query.tries < res.max_retries:
                retry(query)
            else:
                abandon(query)

        def issue(state: ClientState) -> None:
            if simulator.now >= self.horizon or state.done():
                return
            template = state.next_plan(rng)
            admit(_Query(state, template, simulator.now, state.spec.max_threads))

        # ---- run ------------------------------------------------------
        pool_stats = None
        try:
            for state in states:
                issue(state)
            simulator.run()
        finally:
            if pool is not None:
                # Snapshot before close: backend-specific counters are
                # dropped once the backend is released.
                pool_stats = pool.stats()
                pool.close()
        for state in states:
            report.by_client[state.spec.name] = list(state.response_times)
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
