"""Concurrent workload execution on one shared simulated machine.

The paper's concurrent experiments (Figures 1 and 16) run 32 clients
re-issuing random TPC-H queries in a closed loop, saturating the box.
Here the same shape: every client immediately re-submits after each
completion; contention for cores and memory bandwidth between clients is
emergent from the shared scheduler.

``ConcurrentWorkload`` also serves as the runner for *adaptive
parallelization under load*: :meth:`measure_plan` executes a probe plan
while the background clients keep hammering the machine, which is how
AP plans become resource-contention aware.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import SimulationConfig
from ..engine.scheduler import ExecutionResult, Simulator
from ..errors import ReproError
from ..plan.graph import Plan
from .client import ClientSpec, ClientState


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
    #: Resilience counters (populated by :class:`ResilientWorkload`;
    #: zero for the plain closed-loop runner).
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


class ConcurrentWorkload:
    """Closed-loop multi-client workload on a shared machine."""

    def __init__(
        self,
        config: SimulationConfig,
        clients: list[ClientSpec],
        *,
        horizon: float = 30.0,
    ) -> None:
        if horizon <= 0:
            raise ReproError("horizon must be positive")
        self.config = config
        self.clients = clients
        self.horizon = horizon

    # ------------------------------------------------------------------
    def run(self) -> WorkloadReport:
        """Run all clients until the simulated-time horizon."""
        simulator, states = self._start()
        simulator.run()
        return self._report(states)

    # Set by the resubmit/on_complete closures during a run.
    _last_completion: float = 0.0

    def measure_plan(
        self, plan: Plan, *, max_threads: int | None = None, warmup: float = 1.0
    ) -> ExecutionResult:
        """Execute ``plan`` once under full background load.

        The background clients run for ``warmup`` simulated seconds
        first so the machine is saturated when the probe is submitted --
        this is the runner adaptive parallelization uses to observe
        contention.
        """
        simulator, states = self._start()
        # Advance the shared machine to the probe's submit time.
        self._run_until(simulator, warmup)
        sid = simulator.submit(plan, client="probe", max_threads=max_threads)
        simulator.run()
        return simulator.result(sid)

    # ------------------------------------------------------------------
    def _start(self) -> tuple[Simulator, list[ClientState]]:
        simulator = Simulator(self.config)
        rng = np.random.default_rng(self.config.seed + 7_919)
        states = [ClientState(spec) for spec in self.clients]
        self._last_completion = 0.0

        def resubmit(state: ClientState) -> None:
            if simulator.now >= self.horizon or state.done():
                return
            plan = state.next_plan(rng)
            submitted_at = simulator.now

            def on_complete(_sid: int, _state=state, _t0=submitted_at) -> None:
                _state.completed += 1
                _state.response_times.append(simulator.now - _t0)
                if simulator.now > self._last_completion:
                    self._last_completion = simulator.now
                resubmit(_state)

            simulator.submit(
                plan,
                client=state.spec.name,
                max_threads=state.spec.max_threads,
                on_complete=on_complete,
            )

        for state in states:
            resubmit(state)
        return simulator, states

    def _run_until(self, simulator: Simulator, when: float) -> None:
        # The simulator has no external pause API; emulate one by
        # submitting a sentinel plan at time 0 whose single no-op we do
        # not need -- instead simply run the event loop until the global
        # clock passes ``when`` by stepping dispatch/advance manually.
        while simulator.now < when and simulator._tasks or simulator.now == 0.0:
            simulator._dispatch()
            if not simulator._tasks:
                break
            simulator._advance()
            if simulator.now >= when:
                break

    def _report(self, states: list[ClientState]) -> WorkloadReport:
        report = WorkloadReport(
            horizon=self.horizon, last_completion=self._last_completion
        )
        for state in states:
            report.by_client[state.spec.name] = list(state.response_times)
        return report
