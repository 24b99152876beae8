"""Hash equi-join (MAL ``algebra.join``).

The paper parallelizes the hash join by range-partitioning only the
*outer* (probe, larger) input while every clone probes a hash table built
on the full inner input (Section 2.1, Figure 4).  Accordingly ``Join``
takes ``[outer, inner]`` and reports the inner build size in its work
profile, so the cost model can apply the L3-cache-fit probe discount the
paper measures in Figure 15 / Table 3.

The numpy implementation picks one of two equivalent paths from the
inputs alone.  Unique integer build keys that pass the dense-key rule
(:func:`~repro.operators.base.dense_key_range`: a span of at most the
build row count plus a small slack) are written into a slot table
indexed by ``key - lo`` and probed with one gather -- a direct-address
hash table.  Anything else (float keys, wide spans, duplicate build
keys) is matched with a sort + binary search on the build side.  Both
yield the same (outer oid, inner oid) pairs in outer order, bit for bit.
``SemiJoin`` applies the same rule to its probe side through
:func:`~repro.operators.base.member_mask`.
Simulated *time* comes from hash-join cost formulas, not from the numpy
runtime.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import OperatorError
from ..storage.column import BAT, ColumnSlice, Intermediate
from ..storage.dtypes import OID, OID_DTYPE
from .base import (
    Operator,
    WorkProfile,
    dense_key_range,
    dictionary_of,
    dtype_of,
    full_column_bounds,
    is_int64_exact,
    member_mask,
    pairs_of,
)


def _no_pairs() -> tuple[np.ndarray, np.ndarray]:
    empty = np.empty(0, dtype=np.int64)
    return empty, empty


def hash_join_pairs(
    outer_heads: np.ndarray,
    outer_values: np.ndarray,
    inner_heads: np.ndarray,
    inner_values: np.ndarray,
    *,
    inner_bounds: tuple[int, int] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """All (outer head, inner head) pairs with equal values.

    Pairs are emitted in outer order; ties on the inner side follow the
    inner side's sorted order (deterministic).  Unique integer build
    keys under the dense-key rule are probed through a slot table; other
    inputs take the sort + binary search of :func:`_sorted_join_pairs`,
    which returns the same arrays.  ``inner_bounds``, when known, is
    ``(inner_values.min(), inner_values.max())``.
    """
    key_range = dense_key_range(inner_values, inner_bounds)
    if key_range is not None and is_int64_exact(outer_values.dtype):
        pairs = _direct_join_pairs(
            outer_heads, outer_values, inner_heads, inner_values, *key_range
        )
        if pairs is not None:
            return pairs
    return _sorted_join_pairs(outer_heads, outer_values, inner_heads, inner_values)


def _direct_join_pairs(
    outer_heads: np.ndarray,
    outer_values: np.ndarray,
    inner_heads: np.ndarray,
    inner_values: np.ndarray,
    lo: int,
    hi: int,
) -> tuple[np.ndarray, np.ndarray] | None:
    """The direct-address path; None when a build key repeats.

    When every probe lies inside ``[lo, hi]`` (foreign keys probing their
    primary key), the slot table is read at ``probe - lo`` directly,
    with no range mask or row gather; output heads are fresh arrays
    either way, never a view of ``outer_heads``.
    """
    slots = np.full(hi - lo + 1, -1, dtype=np.intp)
    slots[inner_values.astype(np.intp, copy=False) - lo] = np.arange(len(inner_values))
    if np.count_nonzero(slots >= 0) < len(inner_values):
        return None
    probe = outer_values.astype(np.int64, copy=False)
    if len(probe) and lo <= probe.min() and probe.max() <= hi:
        inner_rows = slots[probe - lo] if lo else slots[probe]
        hit = inner_rows >= 0
        hits = int(np.count_nonzero(hit))
        if hits == 0:
            return _no_pairs()
        if hits == len(probe):
            return outer_heads.copy(), inner_heads[inner_rows]
        return outer_heads[hit], inner_heads[inner_rows[hit]]
    # Range-check before subtracting, so far-off probes cannot wrap around.
    outer_rows = np.flatnonzero((probe >= lo) & (probe <= hi))
    inner_rows = slots[probe[outer_rows] - lo]
    hit = inner_rows >= 0
    if not hit.any():
        return _no_pairs()
    return outer_heads[outer_rows[hit]], inner_heads[inner_rows[hit]]


def _sorted_join_pairs(
    outer_heads: np.ndarray,
    outer_values: np.ndarray,
    inner_heads: np.ndarray,
    inner_values: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The sort + binary search path of :func:`hash_join_pairs`."""
    if len(outer_values) == 0 or len(inner_values) == 0:
        return _no_pairs()
    order = np.argsort(inner_values, kind="stable")
    sorted_vals = inner_values[order]
    sorted_heads = inner_heads[order]
    starts = np.searchsorted(sorted_vals, outer_values, side="left")
    stops = np.searchsorted(sorted_vals, outer_values, side="right")
    counts = stops - starts
    total = int(counts.sum())
    if total == 0:
        return _no_pairs()
    out_left = np.repeat(outer_heads, counts)
    # Build flat indices into sorted_heads for every match run.
    offsets = np.repeat(starts, counts)
    within = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    out_right = sorted_heads[offsets + within]
    return out_left, out_right


class Join(Operator):
    """Inner equi-join; output is a BAT of (outer oid, inner oid) pairs."""

    kind = "join"
    partitionable = True

    def evaluate(self, inputs: Sequence[Intermediate]) -> BAT:
        if len(inputs) != 2:
            raise OperatorError(f"join takes 2 inputs, got {len(inputs)}")
        outer_heads, outer_values = pairs_of(inputs[0], what="join outer")
        inner_heads, inner_values = pairs_of(inputs[1], what="join inner")
        left, right = hash_join_pairs(
            outer_heads,
            outer_values,
            inner_heads,
            inner_values,
            inner_bounds=full_column_bounds(inputs[1]),
        )
        return BAT(left, right, OID)

    def work_profile(
        self, inputs: Sequence[Intermediate], output: Intermediate
    ) -> WorkProfile:
        outer, inner = inputs
        n_outer = len(outer)
        n_inner = len(inner)
        return WorkProfile(
            tuples_in=n_outer + n_inner,
            tuples_out=len(output),
            bytes_read=outer.nbytes + inner.nbytes,
            bytes_written=len(output) * 16,
            # The probed structure is dominated by the build column (the
            # paper treats a 16 MB inner as L3-resident on a 20 MB L3).
            build_bytes=inner.nbytes,
            random_reads=n_outer,
        )

    def describe(self) -> str:
        return "hashjoin"


class SemiJoin(Operator):
    """Outer tuples with at least one inner match (EXISTS / IN-subquery).

    Output is a BAT of (outer oid, outer value) for the qualifying outer
    tuples, preserving outer order; ``negate`` keeps the tuples with no
    match (anti-join, NOT IN).  Membership comes from
    :func:`~repro.operators.base.member_mask`, which reads it from a
    direct table over the outer values' range when they pass the
    dense-key rule.
    """

    kind = "semijoin"
    partitionable = True

    def __init__(self, *, negate: bool = False) -> None:
        super().__init__()
        self.negate = negate

    def evaluate(self, inputs: Sequence[Intermediate]) -> BAT:
        if len(inputs) != 2:
            raise OperatorError(f"semijoin takes 2 inputs, got {len(inputs)}")
        outer = inputs[0]
        sliced = isinstance(outer, ColumnSlice)
        if sliced:
            outer_values = outer.values
        else:
            outer_heads, outer_values = pairs_of(outer, what="semijoin outer")
        __, inner_values = pairs_of(inputs[1], what="semijoin inner")
        rows = np.flatnonzero(
            member_mask(
                outer_values,
                inner_values,
                invert=self.negate,
                bounds=full_column_bounds(outer),
            )
        )
        values = outer_values[rows]
        if sliced:
            # A slice's heads are its rows plus ``lo``: offset the fresh
            # rows in place instead of gathering from ``outer.oids()``.
            heads = rows if rows.dtype == OID_DTYPE else rows.astype(OID_DTYPE)
            if outer.lo:
                heads += outer.lo
        else:
            heads = outer_heads[rows]
        return BAT(heads, values, dtype_of(outer), dictionary_of(outer))

    def params(self) -> tuple:
        return (self.negate,)

    def work_profile(
        self, inputs: Sequence[Intermediate], output: Intermediate
    ) -> WorkProfile:
        outer, inner = inputs
        return WorkProfile(
            tuples_in=len(outer) + len(inner),
            tuples_out=len(output),
            bytes_read=outer.nbytes + inner.nbytes,
            bytes_written=output.nbytes,
            build_bytes=inner.nbytes,
            random_reads=len(outer),
        )

    def describe(self) -> str:
        return "antijoin" if self.negate else "semijoin"
