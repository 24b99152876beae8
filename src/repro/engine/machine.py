"""Runtime hardware state: threads, cores, sockets.

The static description lives in :class:`repro.config.MachineSpec`; this
module tracks which hardware threads are busy during a simulation and
implements the placement policy (fill idle physical cores before
hyperthread siblings, spread across sockets to aggregate bandwidth).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import MachineSpec
from ..errors import SchedulerError


@dataclass
class HardwareThread:
    """One schedulable hardware thread."""

    thread_id: int
    core_id: int
    socket_id: int
    busy: bool = False


@dataclass
class MachineState:
    """Mutable occupancy state of a machine during simulation.

    Occupancy is tracked incrementally (per-core and per-socket busy
    counts maintained by :meth:`acquire`/:meth:`release`), so the
    placement policy and rate model stay O(threads) per *dispatch*, not
    O(threads^2) -- this sits on the simulator's hottest path.
    """

    spec: MachineSpec
    threads: list[HardwareThread] = field(default_factory=list)
    _core_busy: list[int] = field(default_factory=list, repr=False)
    _socket_busy: list[int] = field(default_factory=list, repr=False)
    _busy_total: int = field(default=0, repr=False)
    _score_base: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.threads:
            tid = 0
            for core in range(self.spec.physical_cores):
                socket = self.spec.socket_of_core(core)
                for __ in range(self.spec.threads_per_core):
                    self.threads.append(HardwareThread(tid, core, socket))
                    tid += 1
        n_sockets = 1 + max(t.socket_id for t in self.threads)
        n_cores = 1 + max(t.core_id for t in self.threads)
        self._core_busy = [0] * n_cores
        self._socket_busy = [0] * n_sockets
        self._busy_total = 0
        # A core or socket never has more busy threads than the machine.
        self._score_base = len(self.threads) + 1
        for t in self.threads:  # honour pre-set busy flags
            if t.busy:
                self._core_busy[t.core_id] += 1
                self._socket_busy[t.socket_id] += 1
                self._busy_total += 1

    # ------------------------------------------------------------------
    def siblings(self, thread: HardwareThread) -> list[HardwareThread]:
        return [
            t
            for t in self.threads
            if t.core_id == thread.core_id and t.thread_id != thread.thread_id
        ]

    def core_occupancy(self, core_id: int) -> int:
        return self._core_busy[core_id]

    def socket_busy_threads(self, socket_id: int) -> int:
        return self._socket_busy[socket_id]

    def idle_threads(self) -> list[HardwareThread]:
        return [t for t in self.threads if not t.busy]

    def busy_count(self) -> int:
        return self._busy_total

    # ------------------------------------------------------------------
    def pick_thread(
        self, sockets: "range | frozenset[int] | None" = None
    ) -> HardwareThread | None:
        """Choose the best idle thread, or None when fully loaded.

        Policy: prefer threads on fully idle physical cores (full compute
        rate), then spread across the least-loaded socket so concurrent
        memory-bound operators aggregate bandwidth across sockets.

        ``sockets`` restricts the search to a socket subset -- the
        cluster simulator maps each simulated node to a socket group and
        places shard-local operators with this filter.  ``None`` (the
        single-machine default) considers every socket.
        """
        if self._busy_total == len(self.threads):
            return None
        core_busy = self._core_busy
        socket_busy = self._socket_busy
        # (core occupancy, socket occupancy) ranked lexicographically as
        # one integer; both counts stay below ``_score_base``.
        base = self._score_base
        best: HardwareThread | None = None
        best_score = 0
        for t in self.threads:
            if t.busy:
                continue
            if sockets is not None and t.socket_id not in sockets:
                continue
            score = core_busy[t.core_id] * base + socket_busy[t.socket_id]
            if score == 0:
                # An idle core on an idle socket: nothing ranks lower.
                return t
            if best is None or score < best_score:
                # thread_id ascends, so the first minimum wins the tie.
                best = t
                best_score = score
        return best

    def acquire(self, thread: HardwareThread) -> None:
        if thread.busy:
            raise SchedulerError(f"thread {thread.thread_id} already busy")
        thread.busy = True
        self._core_busy[thread.core_id] += 1
        self._socket_busy[thread.socket_id] += 1
        self._busy_total += 1

    def release(self, thread: HardwareThread) -> None:
        if not thread.busy:
            raise SchedulerError(f"thread {thread.thread_id} already idle")
        thread.busy = False
        self._core_busy[thread.core_id] -= 1
        self._socket_busy[thread.socket_id] -= 1
        self._busy_total -= 1

    # ------------------------------------------------------------------
    def compute_rate(self, thread: HardwareThread) -> float:
        """Cycles/second this thread currently delivers.

        A thread alone on its physical core runs at full speed; with a
        busy hyperthread sibling, the core's total throughput is
        ``hyperthread_yield`` split evenly.
        """
        occupancy = self._core_busy[thread.core_id]
        sibling_busy = occupancy > (1 if thread.busy else 0)
        factor = self.spec.hyperthread_yield / 2.0 if sibling_busy else 1.0
        return self.spec.cycles_per_second * factor
