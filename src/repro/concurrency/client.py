"""Closed-loop clients for concurrent workload simulation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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
    #: Stop issuing after this many queries (None = run until the
    #: workload's time horizon).
    max_queries: int | None = None

    def __post_init__(self) -> None:
        if not self.plans:
            raise ValueError(f"client {self.name!r} needs at least one plan")
