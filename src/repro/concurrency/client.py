"""Closed-loop clients for concurrent workload simulation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..plan.graph import Plan


@dataclass
class ClientSpec:
    """One simulated client: a stream of query plans to re-issue.

    ``plans`` are serial or parallel plan templates, submitted as they
    are: the simulator only reads a plan, so concurrent instances of one
    template share it (see :class:`~repro.engine.scheduler.PlanLayout`).
    The client draws the next plan at random (the paper's "32 clients
    invoke random simple and complex queries repeatedly").
    """

    name: str
    plans: Sequence[Plan]
    max_threads: int | None = None
    #: Stop issuing after this many completed queries (None = run until
    #: the workload's time horizon).
    max_queries: int | None = None

    def __post_init__(self) -> None:
        if not self.plans:
            raise ValueError(f"client {self.name!r} needs at least one plan")


@dataclass
class ClientState:
    """Progress bookkeeping for one client during a run."""

    spec: ClientSpec
    issued: int = 0
    completed: int = 0
    response_times: list[float] = field(default_factory=list)

    def next_plan(self, rng: np.random.Generator) -> Plan:
        """Draw the next plan template and count the issue."""
        index = int(rng.integers(0, len(self.spec.plans)))
        self.issued += 1
        return self.spec.plans[index]

    def done(self) -> bool:
        """True when the client hit its max_queries budget."""
        limit = self.spec.max_queries
        return limit is not None and self.issued >= limit


#: A hook called after each completed client query, e.g. to record
#: per-query measurements: ``hook(client_name, response_time)``.
CompletionHook = Callable[[str, float], None]
