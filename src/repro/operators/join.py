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
:func:`~repro.operators.base.member_mask`, unless one of its sides is a
whole dense base column: then it reads that column's kept index (see
``SemiJoin``), as MonetDB probes the hash table kept on a persistent BAT.
Simulated *time* comes from hash-join cost formulas, not from the numpy
runtime.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import OperatorError
from ..storage.column import BAT, Column, ColumnSlice, Intermediate
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


#: The largest share of its probe column's rows that a semi-join gathers
#: from the column's posting index; a larger output scans the column.
#: Half the measured break-even of about 1/8 on the sf=100 ``l_partkey``
#: column (600,000 rows, 20,000 values; docs/perf.md, "Whole-column
#: membership").
POSTINGS_MAX_SHARE = 1 / 16


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


def _whole_dense_column(value: Intermediate) -> Column | None:
    """The base column of a slice over a whole column under the dense-key
    rule, else None."""
    bounds = full_column_bounds(value)
    if bounds is None or dense_key_range(value.values, bounds) is None:
        return None
    return value.column


def _keys_of(inner: Intermediate) -> np.ndarray:
    """A semi-join's key values; a slice's own, without building its oids."""
    if isinstance(inner, ColumnSlice):
        return inner.values
    return pairs_of(inner, what="semijoin inner")[1]


def _posting_heads(column: Column, keys: np.ndarray) -> np.ndarray | None:
    """The sorted rows of ``column`` whose value is one of ``keys``,
    gathered from its posting index as fresh int64; None when they would
    reach :data:`POSTINGS_MAX_SHARE` of the column, where a scan is
    cheaper.

    A first check from the mean rows per value turns large key sets away
    before any sort; the exact row count of the distinct in-range keys
    decides the rest.
    """
    if not is_int64_exact(keys.dtype):
        return None
    lo, hi = column.int_bounds()  # type: ignore[misc]
    limit = len(column) * POSTINGS_MAX_SHARE
    if len(keys) * (len(column) // (hi - lo + 1) + 1) >= limit:
        return None
    offsets = np.unique(keys[(keys >= lo) & (keys <= hi)]).astype(np.intp) - lo
    rows, starts = column.postings()  # type: ignore[misc]
    begins = starts[offsets]
    counts = starts[offsets + 1] - begins
    total = int(counts.sum())
    if total >= limit:
        return None
    # Each key's run rows[begin:begin + count], laid end to end.
    shift = np.repeat(begins - (np.cumsum(counts) - counts), counts)
    heads = rows[np.arange(total) + shift]
    heads.sort()
    return heads.astype(OID_DTYPE, copy=False)


def _presence_mask(column: Column, values: np.ndarray, invert: bool) -> np.ndarray:
    """``np.isin(values, column.values, invert=invert)``, read from the
    column's presence table; values outside its ``[lo, hi]`` are absent."""
    table = column.presence()
    lo, hi = column.int_bounds()  # type: ignore[misc]
    if len(values) and lo <= values.min() and values.max() <= hi:
        mask = table[np.subtract(values, lo, dtype=np.intp)]
    else:
        inside = (values >= lo) & (values <= hi)
        mask = np.zeros(len(values), dtype=bool)
        mask[inside] = table[np.subtract(values[inside], lo, dtype=np.intp)]
    if invert:
        np.logical_not(mask, out=mask)
    return mask


class SemiJoin(Operator):
    """Outer tuples with at least one inner match (EXISTS / IN-subquery).

    Output is a BAT of (outer oid, outer value) for the qualifying outer
    tuples, preserving outer order; ``negate`` keeps the tuples with no
    match (anti-join, NOT IN).  Three paths give the same output, bit for
    bit, chosen from the inputs alone:

    - the outer (probe) side is a whole dense base column, the join is
      not negated, and the inner keys hit less than
      :data:`POSTINGS_MAX_SHARE` of its rows: the rows of the distinct
      in-range keys are gathered from the column's
      :meth:`~repro.storage.column.Column.postings` and sorted;
    - the inner (key) side is a whole dense base column: each outer value
      is looked up in the column's
      :meth:`~repro.storage.column.Column.presence` table;
    - otherwise membership comes from
      :func:`~repro.operators.base.member_mask`, which reads it from a
      direct table over the outer values' range when they pass the
      dense-key rule.

    Both column structures are built by the first call that needs them
    and kept with the column.
    """

    kind = "semijoin"
    partitionable = True

    def __init__(self, *, negate: bool = False) -> None:
        super().__init__()
        self.negate = negate

    def evaluate(self, inputs: Sequence[Intermediate]) -> BAT:
        if len(inputs) != 2:
            raise OperatorError(f"semijoin takes 2 inputs, got {len(inputs)}")
        outer, inner = inputs
        probed = None if self.negate else _whole_dense_column(outer)
        if probed is not None:
            heads = _posting_heads(probed, _keys_of(inner))
            if heads is not None:
                return BAT(heads, probed.values[heads], probed.dtype, probed.dictionary)
        sliced = isinstance(outer, ColumnSlice)
        if sliced:
            outer_values = outer.values
        else:
            outer_heads, outer_values = pairs_of(outer, what="semijoin outer")
        keyed = _whole_dense_column(inner)
        if keyed is not None and is_int64_exact(outer_values.dtype):
            mask = _presence_mask(keyed, outer_values, self.negate)
        else:
            mask = member_mask(
                outer_values,
                _keys_of(inner),
                invert=self.negate,
                bounds=full_column_bounds(outer),
            )
        rows = np.flatnonzero(mask)
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
