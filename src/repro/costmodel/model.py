"""Translate operator work profiles into simulated cpu and memory work.

The engine's roofline model then overlaps the two: an operator finishes
when both its cycles have been executed (at the thread's compute rate)
and its bytes have been moved (at the thread's current bandwidth share).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..config import MachineSpec
from ..operators.base import WorkProfile
from .params import CostParams, DEFAULT_PARAMS


@dataclass(slots=True)
class Work:
    """Simulated work for one operator execution.

    Made once per dispatched operator, so it is a plain slotted record
    (not frozen, not hashable); treat it as read-only.
    """

    cpu_cycles: float
    mem_bytes: float

    def scaled(self, factor: float) -> "Work":
        return Work(self.cpu_cycles * factor, self.mem_bytes * factor)


@dataclass(frozen=True)
class CostContext:
    """Everything the cost model needs besides the profile itself."""

    machine: MachineSpec
    data_scale: float
    params: CostParams = DEFAULT_PARAMS
    #: Machine constants :func:`compute_work` reads on every call,
    #: derived once: the shared L3 size in bytes and the fixed
    #: per-operator dispatch overhead in cycles.
    l3_bytes: int = field(init=False, repr=False, compare=False)
    dispatch_cycles: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "l3_bytes", self.machine.l3_bytes)
        object.__setattr__(
            self,
            "dispatch_cycles",
            self.params.dispatch_seconds * self.machine.cycles_per_second,
        )


def compute_work(
    kind: str,
    profile: WorkProfile,
    ctx: CostContext,
    *,
    amortize_build: bool = False,
) -> Work:
    """Cycles and bytes for one execution of an operator of ``kind``.

    ``profile`` counts *actual* numpy tuples/bytes; everything is scaled
    by ``ctx.data_scale`` so the simulation behaves as if the data were
    paper-sized.  ``amortize_build`` skips the hash-build component of
    joins: hash tables are cached on their build input (as MonetDB
    caches them on BATs), so clones probing the same inner input build
    it only once.
    """
    p = ctx.params
    scale = ctx.data_scale
    n_in = profile.tuples_in * scale
    n_out = profile.tuples_out * scale

    cycles = _base_cycles(kind, p, n_in, n_out, profile, scale)
    if amortize_build and kind in ("join", "semijoin"):
        build_tuples = (profile.tuples_in - profile.random_reads) * scale
        cycles -= build_tuples * p.join_build_cycles
    mem_bytes = (profile.bytes_read + profile.bytes_written) * scale

    # Cache-fit effect: random probes of a structure larger than the
    # shared L3 miss to DRAM, costing one cache line of *memory traffic*
    # per probe -- which is why spilling hash joins are bandwidth-bound
    # and scale worse than L3-resident ones (Figure 15 / Table 3).
    build_bytes = profile.build_bytes * scale
    if build_bytes > ctx.l3_bytes and profile.random_reads > 0:
        misses = profile.random_reads * scale
        mem_bytes += misses * p.miss_line_bytes

    # Fixed interpretation/scheduling overhead per operator execution.
    cycles += ctx.dispatch_cycles
    return Work(cpu_cycles=cycles, mem_bytes=mem_bytes)


def _base_cycles(
    kind: str,
    p: CostParams,
    n_in: float,
    n_out: float,
    profile: WorkProfile,
    scale: float,
) -> float:
    if kind == "scan":
        return 0.0
    if kind == "select":
        per_tuple = (
            p.select_candidate_cycles if profile.random_reads else p.select_cycles
        )
        return n_in * per_tuple + n_out * p.select_out_cycles
    if kind == "fetch":
        return n_in * p.fetch_cycles
    if kind == "mirror":
        return n_in * p.mirror_cycles
    if kind in ("join", "semijoin"):
        # tuples_in counts both sides; random_reads counts only probes.
        build = (profile.tuples_in - profile.random_reads) * scale
        probe = profile.random_reads * scale
        return (
            build * p.join_build_cycles
            + probe * p.join_probe_cycles
            + n_out * p.join_emit_cycles
        )
    if kind == "groupby":
        return n_in * p.groupby_cycles + n_out * p.groupby_emit_cycles
    if kind == "aggr_merge":
        return n_in * p.aggr_merge_cycles
    if kind == "aggregate":
        return n_in * p.aggregate_cycles
    if kind == "calc":
        return n_in * p.calc_cycles
    if kind in ("pack", "gather", "shuffle", "exchange"):
        # Exchange-family operators are pure data movement: per-tuple
        # copy cycles here; any *cross-node* wire time is charged
        # separately by the cluster simulator's network model.
        return n_in * p.pack_cycles
    if kind == "sort":
        return n_in * p.sort_cycles * math.log2(max(n_in, 2.0))
    if kind == "topn":
        return n_out * p.topn_cycles
    if kind in ("cand_union", "cand_intersect"):
        return n_in * p.cand_setop_cycles
    # Unknown operators default to a calc-like per-tuple cost.
    return n_in * p.calc_cycles


def thread_bandwidth_cap(machine: MachineSpec, params: CostParams = DEFAULT_PARAMS) -> float:
    """Bytes/second one thread can pull on its own (bandwidth roofline)."""
    return machine.mem_bandwidth_gbps * 1e9 * params.single_thread_bw_fraction
