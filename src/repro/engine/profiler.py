"""Execution profiling: the feedback channel adaptive parallelization reads.

Every completed operator leaves an :class:`OpRecord` (execution interval,
thread affiliation, memory claims) -- the same per-operator data the
paper's profiler collects (Section 2, "Run-time environment").
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from ..plan.graph import PlanNode


@dataclass(slots=True)
class OpRecord:
    """Profile of one operator execution.

    One is made per completed task, so it is a plain slotted record:
    not frozen (a frozen ``__init__`` pays a ``object.__setattr__`` per
    field) and, having ``__eq__`` but no ``__hash__``, not hashable.
    Treat it as read-only.
    """

    node: PlanNode
    kind: str
    describe: str
    start: float
    end: float
    thread_id: int
    socket_id: int
    cpu_cycles: float
    mem_bytes: float
    tuples_in: int = 0
    tuples_out: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class QueryProfile:
    """All records of one query execution, plus the wall-clock span."""

    submit_time: float
    records: list[OpRecord] = field(default_factory=list)
    finish_time: float | None = None
    #: Peak bytes of live intermediates (actual bytes x data_scale), the
    #: "memory claims" track of the paper's tomograph (Figures 19/20).
    peak_memory_bytes: float = 0.0

    @property
    def response_time(self) -> float:
        if self.finish_time is None:
            raise ValueError("query has not finished")
        return self.finish_time - self.submit_time

    # ------------------------------------------------------------------
    # Feedback used by the adaptive parallelizer
    # ------------------------------------------------------------------
    def duration_of(self, node: PlanNode) -> float:
        total = 0.0
        for record in self.records:
            if record.node is node:
                total += record.duration
        return total

    def durations_by_node(self) -> dict[int, float]:
        result: dict[int, float] = defaultdict(float)
        for record in self.records:
            result[record.node.nid] += record.duration
        return dict(result)

    def ranked(self) -> list[OpRecord]:
        """Records sorted by duration, most expensive first."""
        return sorted(self.records, key=lambda r: r.duration, reverse=True)

    # ------------------------------------------------------------------
    # Utilization metrics (paper Section 4.2.5)
    # ------------------------------------------------------------------
    def busy_core_seconds(self) -> float:
        return sum(record.duration for record in self.records)

    def multicore_utilization(self, hardware_threads: int) -> float:
        """Fraction of available core time actually used during the span.

        The paper's "parallelism usage": total per-operator core time
        divided by (span x available threads).  Degenerate profiles --
        no records, an unfinished query, or a zero-duration span (every
        operator memoized or free) -- report 0.0 rather than dividing
        by zero.
        """
        if hardware_threads <= 0:
            raise ValueError(
                f"hardware_threads must be positive, got {hardware_threads}"
            )
        if not self.records:
            return 0.0
        if self.finish_time is None or self.finish_time <= self.submit_time:
            return 0.0
        span = self.finish_time - self.submit_time
        return self.busy_core_seconds() / (span * hardware_threads)

    def threads_used(self) -> int:
        return len({record.thread_id for record in self.records})

    def records_by_thread(self) -> dict[int, list[OpRecord]]:
        out: dict[int, list[OpRecord]] = defaultdict(list)
        for record in self.records:
            out[record.thread_id].append(record)
        for records in out.values():
            records.sort(key=lambda r: r.start)
        return dict(out)

    def time_by_kind(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for record in self.records:
            out[record.kind] += record.duration
        return dict(out)
