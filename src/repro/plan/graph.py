"""Query plans as operator DAGs.

A :class:`Plan` is a directed acyclic graph of :class:`PlanNode` objects,
each wrapping one physical operator; edges carry intermediates.  This is
the structure adaptive parallelization morphs between invocations: nodes
are replaced by cloned copies over partitioned inputs, packs are inserted
and removed, and the whole graph stays executable after every step.
"""

from __future__ import annotations

import itertools
from hashlib import blake2b
from typing import Callable, Iterable, Iterator, Sequence

from ..errors import PlanError
from ..operators.base import Operator

_node_counter = itertools.count(1)

#: Digest width of plan fingerprints (collision odds are negligible at
#: 16 bytes while keys stay cheap to hash and compare).
_FINGERPRINT_BYTES = 16


#: What :func:`_fingerprint_into` remembers per node id for reuse: (op
#: uid, order key, operator header bytes, concatenated input digests,
#: digest).
_DigestEntry = tuple[int, int | None, bytes, bytes, bytes]


def _fingerprint_into(
    roots: Sequence["PlanNode"],
    memo: dict[int, bytes],
    reuse: dict[int, _DigestEntry] | None = None,
    order: Sequence["PlanNode"] | None = None,
) -> dict[int, _DigestEntry]:
    """Fill the empty ``memo`` (nid -> digest) for every node reachable
    from ``roots``.

    Nodes are digested in topological order (``order``, when the caller
    already walked it), children before their consumers, so every node
    is hashed once however the DAG shares it.

    Returns the reuse table of the nodes digested here.  Passed back as
    ``reuse``, it lets a node whose op uid, order key and input digests
    are all unchanged keep its digest without re-hashing, so only the
    cone above a plan edit is hashed again (and there, a node whose op
    and order key are unchanged skips re-encoding its cache key).
    Operators are immutable once in a plan (``placement`` aside, which
    digests exclude), so the op uid stands for its cache key.
    """
    table: dict[int, _DigestEntry] = {}
    previous = reuse or {}
    for node in _topological(roots) if order is None else order:
        nid = node.nid
        # The digest mixes the operator's cache key, the order key, and
        # the input digests in input order; fixed-width child digests
        # keep the encoding unambiguous.
        uid = node.op.uid
        order_key = node.order_key
        inputs = b"".join([memo[child.nid] for child in node.inputs])
        entry = previous.get(nid)
        if entry is None or entry[0] != uid or entry[1] != order_key:
            header = repr((node.op.cache_key(), order_key)).encode()
            entry = (uid, order_key, header, inputs, _digest(header, inputs))
        elif entry[3] != inputs:
            header = entry[2]
            entry = (uid, order_key, header, inputs, _digest(header, inputs))
        memo[nid] = entry[4]
        table[nid] = entry
    return table


def _digest(header: bytes, inputs: bytes) -> bytes:
    return blake2b(header + inputs, digest_size=_FINGERPRINT_BYTES).digest()


def _topological(roots: Sequence["PlanNode"]) -> list["PlanNode"]:
    """Every node reachable from ``roots``, inputs before consumers.

    Iterative DFS with the exact visit order of the recursive
    formulation (children in input order, post-order append), so deep
    partitioned plans neither recurse to the limit nor pay a Python
    call per node.
    """
    order: list[PlanNode] = []
    done: set[int] = set()
    visiting: set[int] = set()
    for root in roots:
        if root.nid in done:
            continue
        visiting.add(root.nid)
        stack = [(root, iter(root.inputs))]
        while stack:
            node, pending = stack[-1]
            for child in pending:
                nid = child.nid
                if nid in done:
                    continue
                if nid in visiting:
                    cycle = " -> ".join(n.describe() for n, __ in stack[-4:])
                    raise PlanError(f"plan contains a cycle near: {cycle}")
                visiting.add(nid)
                stack.append((child, iter(child.inputs)))
                break
            else:
                done.add(node.nid)
                order.append(node)
                stack.pop()
    return order


class PlanNode:
    """One operator instance in a plan.

    ``order_key`` records the base-column position of the partition this
    node works on; packs keep their inputs sorted by it so that packed
    results follow the serial order (paper Section 2.3).
    """

    __slots__ = ("nid", "op", "inputs", "order_key", "label")

    def __init__(
        self,
        op: Operator,
        inputs: Sequence["PlanNode"] = (),
        *,
        order_key: int | None = None,
        label: str | None = None,
    ) -> None:
        self.nid = next(_node_counter)
        self.op = op
        self.inputs: list[PlanNode] = list(inputs)
        self.order_key = order_key
        self.label = label

    @property
    def kind(self) -> str:
        return self.op.kind

    def fingerprint(self) -> bytes:
        """Structural fingerprint of the value this node computes.

        Derived from the operator's :meth:`~repro.operators.base.Operator.cache_key`,
        the ``order_key``, and the input fingerprints (in input order);
        leaves bottom out in :meth:`repro.storage.column.Column.cache_key`
        identity.  Two nodes with equal fingerprints compute bit-identical
        intermediates -- even across independent :meth:`Plan.copy` clones
        or adaptive-run mutations -- which is what makes cross-run result
        memoization (:mod:`repro.engine.memo`) stale-free by construction.
        """
        memo: dict[int, bytes] = {}
        _fingerprint_into([self], memo)
        return memo[self.nid]

    def describe(self) -> str:
        text = self.op.describe()
        if self.label:
            text = f"{text} <{self.label}>"
        return text

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PlanNode(#{self.nid} {self.describe()})"


class Plan:
    """An executable operator DAG with named output nodes."""

    def __init__(self, outputs: Sequence[PlanNode] | None = None) -> None:
        self.outputs: list[PlanNode] = list(outputs) if outputs else []
        # Digests of the last fingerprints() walk, reused by the next.
        self._digests: dict[int, _DigestEntry] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add(
        self,
        op: Operator,
        inputs: Sequence[PlanNode] = (),
        *,
        order_key: int | None = None,
        label: str | None = None,
    ) -> PlanNode:
        """Create a node; it becomes part of the plan once reachable from
        an output (the graph is defined by reachability)."""
        return PlanNode(op, inputs, order_key=order_key, label=label)

    def set_outputs(self, outputs: Sequence[PlanNode]) -> None:
        self.outputs = list(outputs)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def nodes(self) -> list[PlanNode]:
        """All nodes reachable from the outputs, in topological order
        (inputs before consumers).

        This runs on every mutation, analysis, and submission; see
        :func:`_topological` for the walk.
        """
        return _topological(self.outputs)

    def __len__(self) -> int:
        return len(self.nodes())

    def __iter__(self) -> Iterator[PlanNode]:
        return iter(self.nodes())

    def fingerprints(self, nodes: Sequence[PlanNode] | None = None) -> dict[int, bytes]:
        """Fingerprint of every reachable node, keyed by ``nid``.

        One shared post-order walk, so the whole plan costs O(nodes)
        regardless of DAG sharing; see :meth:`PlanNode.fingerprint`.
        Digests of the previous call are reused for nodes whose op,
        order key and inputs' digests did not change, so between adaptive
        runs only what a mutation touched is hashed again.  ``nodes``
        spares the walk when the caller just took :meth:`nodes`.
        """
        memo: dict[int, bytes] = {}
        # Swapped whole, never edited in place: concurrent callers of a
        # shared plan template at worst redo each other's hashing.
        self._digests = _fingerprint_into(self.outputs, memo, self._digests, nodes)
        return memo

    def consumers(self, target: PlanNode) -> list[PlanNode]:
        """Nodes that read ``target``'s output."""
        return [node for node in self.nodes() if target in node.inputs]

    def find(self, predicate: Callable[[PlanNode], bool]) -> list[PlanNode]:
        return [node for node in self.nodes() if predicate(node)]

    def count_kind(self, kind: str) -> int:
        return sum(1 for node in self.nodes() if node.kind == kind)

    # ------------------------------------------------------------------
    # Mutation primitives
    # ------------------------------------------------------------------
    def replace_node(self, old: PlanNode, new: PlanNode) -> None:
        """Redirect every consumer of ``old`` (and the output list) to
        ``new``; ``old`` drops out of the plan by unreachability.  Only
        the nodes that read ``old`` are rewritten."""
        for node in self.consumers(old):
            node.inputs = [new if child is old else child for child in node.inputs]
        self.outputs = [new if out is old else out for out in self.outputs]

    def splice_input(self, consumer: PlanNode, old: PlanNode, new: PlanNode) -> None:
        """Replace one input edge of ``consumer``."""
        if old not in consumer.inputs:
            raise PlanError(
                f"node #{consumer.nid} does not read #{old.nid}"
            )
        consumer.inputs = [new if child is old else child for child in consumer.inputs]

    # ------------------------------------------------------------------
    # Copying
    # ------------------------------------------------------------------
    def copy(self) -> "Plan":
        """Deep-copy the graph structure; operators are cloned so the new
        plan can be mutated independently (plan history administration)."""
        mapping: dict[int, PlanNode] = {}
        for node in self.nodes():  # topological: inputs exist before use
            clone = PlanNode(
                node.op.clone(),
                [mapping[child.nid] for child in node.inputs],
                order_key=node.order_key,
                label=node.label,
            )
            mapping[node.nid] = clone
        return Plan([mapping[out.nid] for out in self.outputs])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Plan(nodes={len(self)}, outputs={len(self.outputs)})"


def iter_edges(plan: Plan) -> Iterable[tuple[PlanNode, PlanNode]]:
    """All (producer, consumer) edges of a plan."""
    for node in plan.nodes():
        for child in node.inputs:
            yield child, node
