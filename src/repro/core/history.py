"""Plan history administration (paper Section 2, infrastructure b).

Keeps snapshots of the interesting plans -- the serial baseline and the
current global-minimum plan -- so the driver can answer "which plan
should future invocations of this query use?".  Per-run execution times
live in the convergence records (:class:`~repro.core.convergence.RunRecord`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConvergenceError
from ..plan.graph import Plan


@dataclass
class PlanHistory:
    """Snapshots of the serial and GME plans."""

    serial_plan: Plan | None = None
    best_plan: Plan | None = None
    best_run: int = 0

    def snapshot_serial(self, plan: Plan) -> None:
        self.serial_plan = plan.copy()

    def snapshot_best(self, plan: Plan, run: int) -> None:
        self.best_plan = plan.copy()
        self.best_run = run

    def choose(self) -> Plan:
        """The plan future invocations should use: the GME plan, falling
        back to the serial plan when parallelism never helped."""
        if self.best_plan is not None:
            return self.best_plan
        if self.serial_plan is not None:
            return self.serial_plan
        raise ConvergenceError("history is empty; nothing to choose from")
