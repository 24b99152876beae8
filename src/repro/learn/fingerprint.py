"""Cross-process plan and machine signatures for the experience store.

The engine-level fingerprints (:meth:`repro.plan.graph.PlanNode.fingerprint`)
bottom out in :class:`~repro.storage.column.Column` *identity* -- a
process-wide uid -- which makes them perfect memoization keys and useless
persistence keys: the same query template hashes differently in every
process.  The experience store therefore keys on a **template signature**
built from the same structural walk but with
:meth:`~repro.operators.base.Operator.template_params` at the leaves
(column name, dtype, length instead of uid).

Two plans share a template signature iff they apply the same operator
DAG to structurally identical columns.  Distinct datasets that happen to
match structurally collide by design: a transferred DOP is a warm-start
*hint* that at worst costs a few extra convergence runs, never a
correctness input.  Machine shape is deliberately NOT part of the plan
signature -- it is a separate key so a mismatch can be detected,
counted, and refused (a DOP learned on a 96-thread box must not seed a
16-thread one).
"""

from __future__ import annotations

from hashlib import blake2b

from ..config import MachineSpec, SimulationConfig
from ..plan.graph import Plan

#: Digest width of template signatures (hex-encoded in store files).
_SIGNATURE_BYTES = 16


def plan_signature(plan: Plan) -> str:
    """Hex template signature of ``plan``, stable across processes.

    One pass over :meth:`Plan.nodes` (inputs before consumers), so cost
    is O(nodes) regardless of sharing: a node's digest covers its own
    key and its inputs' digests.
    """
    memo: dict[int, bytes] = {}
    for node in plan.nodes():
        h = blake2b(digest_size=_SIGNATURE_BYTES)
        key = (
            type(node.op).__name__,
            node.op.kind,
            node.op.template_params(),
            node.order_key,
        )
        h.update(repr(key).encode("utf-8"))
        for child in node.inputs:
            h.update(memo[child.nid])
        memo[node.nid] = h.digest()
    h = blake2b(digest_size=_SIGNATURE_BYTES)
    for out in plan.outputs:
        h.update(memo[out.nid])
    return h.hexdigest()


def machine_signature(
    machine: MachineSpec, max_threads: int | None = None
) -> str:
    """Compact topology key: sockets x cores x SMT (+ thread cap).

    A converged DOP is only transferable between machines with the same
    core/socket topology and the same per-query thread cap; everything
    else about the machine (clock, cache sizes, bandwidth) shifts run
    *times* but not the structural meaning of "N-way parallel plan".
    """
    sig = (
        f"{machine.sockets}s{machine.cores_per_socket}c"
        f"{machine.threads_per_core}t"
    )
    if max_threads is not None:
        sig += f"-cap{max_threads}"
    return sig


def config_signature(config: SimulationConfig) -> str:
    """The machine signature of one simulation configuration."""
    return machine_signature(config.machine, config.max_threads)
