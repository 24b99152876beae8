"""Grouped aggregation and the AP-aware partial-aggregate merge.

The paper's *advanced mutation* (Section 2.1, Figure 6) parallelizes a
group-by by cloning it over range partitions, cloning the downstream
aggregation, packing the per-partition results, and combining them.  Here
the group-by + aggregate pair is fused into :class:`GroupAggregate` (an
"adaptive-parallelization-aware operator" in the sense of Section 2.2's
plan rewriting), and :class:`AggrMerge` is the combiner inserted above the
exchange union.

A grouped result is a BAT whose *head holds the group key* (cast to
int64) and whose tail holds the aggregate; heads are sorted by key so
results are deterministic and mergeable.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import OperatorError
from ..storage.column import BAT, Intermediate
from ..storage.dtypes import DBL, LNG, DataType
from .base import Operator, WorkProfile, dense_key_range, dtype_of, pairs_of

#: Aggregate function name -> (grouped reducer, merge function name).
AGG_FUNCS = {
    "sum": ("sum", "sum"),
    "count": ("count", "sum"),
    "min": ("min", "min"),
    "max": ("max", "max"),
}


def merge_func_for(func: str) -> str:
    """The function that combines partial aggregates of ``func``."""
    try:
        return AGG_FUNCS[func][1]
    except KeyError:
        raise OperatorError(
            f"unknown aggregate {func!r}; known: {sorted(AGG_FUNCS)}"
        ) from None


def _group_index(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted unique keys (int64) and each row's group number.

    What ``np.unique(keys, return_inverse=True)`` returns.  Keys under
    the dense-key rule (:func:`~repro.operators.base.dense_key_range`)
    take one ``np.bincount`` over ``key - lo`` instead of a sort: the
    occupied offsets are the unique keys, and their ranks the groups.
    """
    key_range = dense_key_range(keys)
    if key_range is None:
        unique_keys, inverse = np.unique(keys, return_inverse=True)
        return unique_keys.astype(np.int64), inverse
    lo = key_range[0]
    offsets = keys.astype(np.intp, copy=False) - lo
    occupied = np.bincount(offsets) > 0
    unique_offsets = np.flatnonzero(occupied)
    if len(unique_offsets) < len(occupied):  # holes: offsets -> ranks
        offsets = (np.cumsum(occupied) - 1)[offsets]
    return unique_offsets + lo, offsets


def _reduce_by_group(
    keys: np.ndarray, values: np.ndarray | None, func: str
) -> tuple[np.ndarray, np.ndarray]:
    """Per-group reduction; returns (sorted unique keys, aggregates)."""
    unique_keys, inverse = _group_index(keys)
    n_groups = len(unique_keys)
    if func == "count":
        agg = np.bincount(inverse, minlength=n_groups).astype(np.int64)
    elif func == "sum" and values is not None and np.issubdtype(values.dtype, np.integer):
        # Exact: float64 weights would round sums past 2**53.
        agg = np.zeros(n_groups, dtype=np.int64)
        np.add.at(agg, inverse, values.astype(np.int64, copy=False))
    elif func == "sum":
        agg = np.bincount(inverse, weights=values, minlength=n_groups)
    elif func in ("min", "max"):
        order = np.argsort(inverse, kind="stable")
        sorted_vals = values[order]
        boundaries = np.searchsorted(inverse[order], np.arange(n_groups), side="left")
        reducer = np.minimum if func == "min" else np.maximum
        agg = reducer.reduceat(sorted_vals, boundaries)
    else:
        raise OperatorError(f"unknown aggregate {func!r}")
    return unique_keys, agg


def _agg_dtype(func: str, value_dtype: DataType | None) -> DataType:
    if func == "count":
        return LNG
    if value_dtype is None:
        raise OperatorError(f"aggregate {func!r} requires a value input")
    return DBL if value_dtype is DBL else LNG


class GroupAggregate(Operator):
    """Group by a key column and aggregate a value column.

    Inputs: ``[keys]`` for ``count``, else ``[keys, values]``; both are
    BATs or slices whose heads must line up tuple-for-tuple.
    """

    kind = "groupby"
    partitionable = True
    blocking = True

    def __init__(self, func: str) -> None:
        super().__init__()
        if func not in AGG_FUNCS:
            raise OperatorError(f"unknown aggregate {func!r}; known: {sorted(AGG_FUNCS)}")
        self.func = func

    def evaluate(self, inputs: Sequence[Intermediate]) -> BAT:
        if self.func == "count":
            if len(inputs) != 1:
                raise OperatorError("grouped count takes 1 input (keys)")
            key_heads, key_values = pairs_of(inputs[0], what="groupby keys")
            value_values = None
        else:
            if len(inputs) != 2:
                raise OperatorError(f"grouped {self.func} takes 2 inputs (keys, values)")
            key_heads, key_values = pairs_of(inputs[0], what="groupby keys")
            value_heads, value_values = pairs_of(inputs[1], what="groupby values")
            if len(key_heads) != len(value_heads):
                raise OperatorError(
                    f"groupby keys ({len(key_heads)}) and values "
                    f"({len(value_heads)}) are not aligned"
                )
        keys, agg = _reduce_by_group(
            key_values.astype(np.int64, copy=False), value_values, self.func
        )
        value_dtype = None
        if self.func != "count":
            value_dtype = dtype_of(inputs[1])
        return BAT(keys, agg, _agg_dtype(self.func, value_dtype))

    def work_profile(
        self, inputs: Sequence[Intermediate], output: Intermediate
    ) -> WorkProfile:
        n = len(inputs[0])
        read = sum(v.nbytes for v in inputs)
        return WorkProfile(
            tuples_in=n,
            tuples_out=len(output),
            bytes_read=read,
            bytes_written=output.nbytes,
            build_bytes=len(output) * 24,  # per-group hash entries
            random_reads=n,
        )

    def params(self) -> tuple:
        return (self.func,)

    def describe(self) -> str:
        return f"groupby({self.func})"


class AggrMerge(Operator):
    """Combine packed per-partition (key, partial) pairs by key.

    Cheap because its input cardinality is the number of groups times the
    number of partitions -- the high "filtering property" the paper relies
    on to keep the exchange union above aggregations inexpensive.
    """

    kind = "aggr_merge"

    def __init__(self, func: str) -> None:
        super().__init__()
        if func not in ("sum", "min", "max"):
            raise OperatorError(f"merge function must be sum/min/max, got {func!r}")
        self.func = func

    def evaluate(self, inputs: Sequence[Intermediate]) -> BAT:
        if len(inputs) != 1:
            raise OperatorError(f"aggr_merge takes 1 input, got {len(inputs)}")
        partials = inputs[0]
        if not isinstance(partials, BAT):
            raise OperatorError(
                f"aggr_merge input must be a BAT, got {type(partials).__name__}"
            )
        keys, agg = _reduce_by_group(partials.head, partials.tail, self.func)
        return BAT(keys, agg, partials.dtype)

    def work_profile(
        self, inputs: Sequence[Intermediate], output: Intermediate
    ) -> WorkProfile:
        n = len(inputs[0])
        return WorkProfile(
            tuples_in=n,
            tuples_out=len(output),
            bytes_read=inputs[0].nbytes,
            bytes_written=output.nbytes,
            build_bytes=len(output) * 24,
        )

    def params(self) -> tuple:
        return (self.func,)

    def describe(self) -> str:
        return f"aggr_merge({self.func})"
