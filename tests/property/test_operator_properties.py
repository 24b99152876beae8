"""Property-based tests on operator identities.

The central invariant of the whole system: for every operator, running
it per-partition and packing the partition outputs equals running it
serially (candidates keep their order; aggregates merge exactly).

The dense-key kernels get their own identities: the direct-address
group index equals ``np.unique(keys, return_inverse=True)`` and the
direct-address join equals the sort + binary search path (values and
dtypes), and both equal a plain-Python dict reference.  The membership
table equals ``np.isin`` on every integer dtype, and the semijoin,
anti-join, IN and LIKE kernels built on it equal a Python-set reference
or ``np.isin``.
"""

from __future__ import annotations

import unittest.mock
from collections import defaultdict

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.operators import (
    Aggregate,
    AggrMerge,
    Fetch,
    GroupAggregate,
    InPredicate,
    Join,
    LikePredicate,
    Pack,
    RangePredicate,
    Select,
    SemiJoin,
    join,
    member_mask,
    merge_func_for,
)
from repro.operators.base import (
    DENSE_KEY_SLACK,
    dense_key_range,
    full_column_bounds,
    is_int64_exact,
)
from repro.operators.groupby import _group_index, _reduce_by_group
from repro.operators.join import _sorted_join_pairs, hash_join_pairs
from repro.storage import BAT, DBL, INT, LNG, OID, STR, Candidates, Column, DataType

small_ints = st.integers(min_value=-1000, max_value=1000)
arrays = st.lists(small_ints, min_size=1, max_size=250)


def as_column(values: list[int], name: str = "c") -> Column:
    return Column(name, LNG, np.asarray(values, dtype=np.int64))


@st.composite
def column_with_cuts(draw, parts: int = 3):
    values = draw(arrays)
    col = as_column(values)
    cuts = sorted(draw(st.lists(st.integers(0, len(col)), min_size=parts - 1, max_size=parts - 1)))
    bounds = [0, *cuts, len(col)]
    return col, bounds


class TestSelectPartitionIdentity:
    @settings(max_examples=60)
    @given(column_with_cuts(), st.integers(-1000, 1000))
    def test_packed_partition_selects_equal_serial(self, data, threshold):
        col, bounds = data
        op = Select(RangePredicate(hi=threshold))
        serial = op.evaluate([col.full_slice()])
        parts = [
            op.evaluate([col.slice(bounds[i], bounds[i + 1])])
            for i in range(len(bounds) - 1)
        ]
        packed = Pack().evaluate(parts)
        np.testing.assert_array_equal(packed.oids, serial.oids)

    @settings(max_examples=60)
    @given(column_with_cuts(), st.integers(-1000, 1000), st.data())
    def test_candidate_partitioning_identity(self, data, threshold, rnd):
        """Splitting the *candidate* input (what chained selects do)."""
        col, __ = data
        universe = np.flatnonzero(col.values % 2 == 0).astype(np.int64)
        cands = Candidates(universe)
        cut = rnd.draw(st.integers(0, len(universe)))
        op = Select(RangePredicate(hi=threshold))
        serial = op.evaluate([col.full_slice(), cands])
        left = op.evaluate([col.full_slice(), Candidates(universe[:cut])])
        right = op.evaluate([col.full_slice(), Candidates(universe[cut:])])
        packed = Pack().evaluate([left, right])
        np.testing.assert_array_equal(packed.oids, serial.oids)


class TestFetchPartitionIdentity:
    @settings(max_examples=60)
    @given(column_with_cuts())
    def test_value_column_split_with_trim(self, data):
        col, bounds = data
        universe = np.arange(0, len(col), 2, dtype=np.int64)
        cands = Candidates(universe)
        serial = Fetch().evaluate([cands, col.full_slice()])
        parts = [
            Fetch().evaluate([cands, col.slice(bounds[i], bounds[i + 1])])
            for i in range(len(bounds) - 1)
        ]
        packed = Pack().evaluate(parts)
        np.testing.assert_array_equal(packed.head, serial.head)
        np.testing.assert_array_equal(packed.tail, serial.tail)


class TestJoinPartitionIdentity:
    @settings(max_examples=40)
    @given(arrays, st.lists(small_ints, min_size=1, max_size=60), st.data())
    def test_outer_split_identity(self, outer_vals, inner_vals, rnd):
        outer = as_column(outer_vals, "outer")
        inner = as_column(list(dict.fromkeys(inner_vals)), "inner")
        cut = rnd.draw(st.integers(0, len(outer)))
        serial = Join().evaluate([outer.full_slice(), inner.full_slice()])
        left = Join().evaluate([outer.slice(0, cut), inner.full_slice()])
        right = Join().evaluate([outer.slice(cut, len(outer)), inner.full_slice()])
        packed = Pack().evaluate([left, right])
        np.testing.assert_array_equal(packed.head, serial.head)
        np.testing.assert_array_equal(packed.tail, serial.tail)

    @settings(max_examples=40)
    @given(arrays, st.lists(small_ints, min_size=1, max_size=60), st.data())
    def test_semijoin_outer_split_identity(self, outer_vals, inner_vals, rnd):
        outer = as_column(outer_vals, "outer")
        inner = as_column(inner_vals, "inner")
        cut = rnd.draw(st.integers(0, len(outer)))
        serial = SemiJoin().evaluate([outer.full_slice(), inner.full_slice()])
        left = SemiJoin().evaluate([outer.slice(0, cut), inner.full_slice()])
        right = SemiJoin().evaluate(
            [outer.slice(cut, len(outer)), inner.full_slice()]
        )
        packed = Pack().evaluate([left, right])
        np.testing.assert_array_equal(packed.head, serial.head)


class TestAggregationIdentities:
    @settings(max_examples=60)
    @given(column_with_cuts(), st.sampled_from(["sum", "count", "min", "max"]))
    def test_scalar_partials_merge(self, data, func):
        col, bounds = data
        op = Aggregate(func)
        serial = op.evaluate([col.full_slice()])
        parts = [
            op.evaluate([col.slice(bounds[i], bounds[i + 1])])
            for i in range(len(bounds) - 1)
            if bounds[i] < bounds[i + 1]  # skip empty: SQL identity only holds
        ]
        if not parts:
            return
        merged = Aggregate(merge_func_for(func)).evaluate([Pack().evaluate(parts)])
        assert merged.value == serial.value

    @settings(max_examples=60)
    @given(column_with_cuts(), st.sampled_from(["sum", "min", "max"]))
    def test_grouped_partials_merge(self, data, func):
        keys_col, bounds = data
        rng = np.random.default_rng(0)
        values_col = Column(
            "v", LNG, rng.integers(-50, 50, len(keys_col)).astype(np.int64)
        )
        op = GroupAggregate(func)
        serial = op.evaluate([keys_col.full_slice(), values_col.full_slice()])
        parts = []
        for i in range(len(bounds) - 1):
            lo, hi = bounds[i], bounds[i + 1]
            if lo < hi:
                parts.append(op.evaluate([keys_col.slice(lo, hi), values_col.slice(lo, hi)]))
        merged = AggrMerge(merge_func_for(func)).evaluate([Pack().evaluate(parts)])
        np.testing.assert_array_equal(merged.head, serial.head)
        np.testing.assert_array_equal(merged.tail, serial.tail)

    @settings(max_examples=60)
    @given(column_with_cuts())
    def test_grouped_count_partials(self, data):
        keys_col, bounds = data
        op = GroupAggregate("count")
        serial = op.evaluate([keys_col.full_slice()])
        parts = [
            op.evaluate([keys_col.slice(bounds[i], bounds[i + 1])])
            for i in range(len(bounds) - 1)
            if bounds[i] < bounds[i + 1]
        ]
        merged = AggrMerge("sum").evaluate([Pack().evaluate(parts)])
        np.testing.assert_array_equal(merged.head, serial.head)
        np.testing.assert_array_equal(merged.tail, serial.tail)


# ---------------------------------------------------------------------------
# Dense-key kernels
# ---------------------------------------------------------------------------
INT64 = np.iinfo(np.int64)
INT32 = np.iinfo(np.int32)


def _span_near_bound(draw, low: int, rows: int) -> int:
    """A key span from ``low`` up: often right at the dense-key bound."""
    bound = rows + DENSE_KEY_SLACK
    return draw(
        st.sampled_from([low, bound - 1, bound, bound + 1])
        | st.integers(low, 3 * bound)
    )


@st.composite
def group_keys(draw):
    """Integer keys with negative values, one repeated key (span 1),
    spans just under and just over the dense-key bound, and holes: either
    random ones or a span covered but for up to three holes."""
    dtype = draw(st.sampled_from([np.int64, np.int32]))
    n = draw(st.integers(1, 150))
    if draw(st.booleans()):
        span = draw(st.integers(1, n))
        holes = draw(st.sets(st.integers(1, span - 2), max_size=3)) if span > 2 else set()
        present = [o for o in range(span) if o not in holes]
        offsets = present + draw(st.lists(
            st.sampled_from(present), min_size=n - len(present), max_size=n - len(present)
        ))
    else:
        span = 1 if n == 1 else _span_near_bound(draw, 1, n)
        offsets = draw(st.lists(st.integers(0, span - 1), min_size=n, max_size=n))
        offsets[0], offsets[-1] = 0, span - 1  # pin min and max: n >= 2 here
    limit = 2**40 if dtype is np.int64 else 2**20
    lo = draw(st.integers(-limit, limit))
    offsets = draw(st.permutations(offsets))
    return (lo + np.asarray(offsets, dtype=np.int64)).astype(dtype)


@st.composite
def join_case(draw):
    """Build keys (unique, or with one duplicated key) over a span near
    the dense bound, probed by matches, holes, near misses and far-off
    values -- int32 probes included, against int64 keys that straddle
    or leave the int32 range."""
    inner_dtype, outer_dtype = draw(st.sampled_from(
        [(np.int64, np.int64), (np.int64, np.int32),
         (np.int32, np.int64), (np.int32, np.int32)]
    ))
    n = draw(st.integers(1, 60))
    span = 1 if n == 1 else _span_near_bound(draw, n, n)
    if inner_dtype is np.int64:
        lo = draw(st.integers(-(2**40), 2**40) | st.just(2**31 - span // 2))
    else:
        lo = draw(st.integers(-(2**20), 2**20))
    middle = draw(st.permutations(range(1, span - 1)))[: max(n - 2, 0)]
    offsets = [0, *middle, span - 1][:n]
    offsets = draw(st.permutations(offsets))
    if n >= 2 and draw(st.booleans()):
        offsets[-1] = offsets[0]  # one duplicate build key
    inner = lo + np.asarray(offsets, dtype=np.int64)
    hi = lo + span - 1
    limits = INT64 if outer_dtype is np.int64 else INT32
    probes = draw(st.lists(
        st.sampled_from(inner.tolist())
        | st.integers(lo - 3, hi + 3)
        | st.sampled_from([int(limits.min), int(limits.max)]),
        min_size=1,
        max_size=80,
    ))
    outer = np.asarray(
        [v for v in probes if limits.min <= v <= limits.max], dtype=outer_dtype
    )
    outer_heads = np.arange(len(outer), dtype=np.int64) * 3 + 7
    inner_heads = np.arange(n, dtype=np.int64)[::-1] * 5 + 11
    return outer_heads, outer, inner_heads, inner.astype(inner_dtype)


@st.composite
def in_range_join_case(draw):
    """Unique build keys under the dense-key rule (holes allowed) probed
    by keys only, by keys and holes, by holes only, or by values up to
    three past either end; int64 or int32 outer heads."""
    n = draw(st.integers(1, 80))
    span = draw(st.integers(n, n + DENSE_KEY_SLACK))
    lo = draw(st.integers(-1000, 1000))
    offsets = [0, *draw(st.permutations(range(1, span - 1)))[: n - 2], span - 1][:n]
    inner = lo + np.asarray(draw(st.permutations(offsets)), dtype=np.int64)
    hi = lo + span - 1
    keys = inner.tolist()
    holes = sorted(set(range(lo, hi + 1)) - set(keys))
    probe = draw(st.sampled_from(["keys", "mixed", "holes", "outside"]))
    if probe == "holes" and not holes:
        probe = "keys"
    values = {
        "keys": st.sampled_from(keys),
        "mixed": st.integers(lo, hi),
        "holes": st.sampled_from(holes or keys),
        "outside": st.sampled_from([lo - 1, hi + 1]) | st.integers(lo - 3, hi + 3),
    }[probe]
    outer = np.asarray(draw(st.lists(values, min_size=1, max_size=120)), dtype=np.int64)
    heads_dtype = draw(st.sampled_from([np.int64, np.int32]))
    outer_heads = (np.arange(len(outer)) * 3 + 7).astype(heads_dtype)
    inner_heads = np.arange(n, dtype=np.int64)[::-1] * 5 + 11
    return outer_heads, outer, inner_heads, inner


def _dict_join(outer_heads, outer, inner_heads, inner):
    """Pairs from a dict of build key -> heads, in outer order."""
    table = defaultdict(list)
    for head, key in zip(inner_heads.tolist(), inner.tolist()):
        table[key].append(head)
    return [(o, i) for o, key in zip(outer_heads.tolist(), outer.tolist())
            for i in table.get(key, [])]


def _assert_same_arrays(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        np.testing.assert_array_equal(a, b)
        assert a.dtype == b.dtype


class TestDenseKeyRule:
    @settings(max_examples=150)
    @given(group_keys())
    def test_rule_is_span_within_rows_plus_slack(self, keys):
        span = int(keys.max()) - int(keys.min()) + 1
        expected = (
            (int(keys.min()), int(keys.max()))
            if span <= len(keys) + DENSE_KEY_SLACK else None
        )
        assert dense_key_range(keys) == expected

    def test_inputs_outside_the_rule(self):
        assert dense_key_range(np.empty(0, dtype=np.int64)) is None
        assert dense_key_range(np.array([1.0, 2.0])) is None
        assert dense_key_range(np.array([1, 2], dtype=np.uint64)) is None
        assert dense_key_range(np.array([5, -3], dtype=np.int32)) == (-3, 5)
        assert dense_key_range(np.array([3, 2], dtype=np.uint8)) == (2, 3)


class TestDenseGroupIndex:
    @settings(max_examples=150)
    @given(group_keys())
    def test_matches_np_unique_and_dict(self, keys):
        unique, inverse = _group_index(keys)
        ref_unique, ref_inverse = np.unique(keys, return_inverse=True)
        _assert_same_arrays(
            (unique, inverse), (ref_unique.astype(np.int64), ref_inverse)
        )
        ranks = {k: r for r, k in enumerate(sorted(set(keys.tolist())))}
        assert unique.tolist() == list(ranks)
        assert inverse.tolist() == [ranks[k] for k in keys.tolist()]

    def test_empty_keys(self):
        unique, inverse = _group_index(np.empty(0, dtype=np.int64))
        assert unique.dtype == np.int64 and len(unique) == len(inverse) == 0

    @settings(max_examples=100)
    @given(group_keys(), st.sampled_from(["sum", "count", "min", "max"]), st.data())
    def test_reduction_matches_dict(self, keys, func, data):
        # Values past 2**53 (sums stay inside int64): integer sums are exact.
        values = np.asarray(data.draw(st.lists(
            st.integers(-(2**55), 2**55), min_size=len(keys), max_size=len(keys)
        )), dtype=np.int64)
        groups = defaultdict(list)
        for key, value in zip(keys.tolist(), values.tolist()):
            groups[key].append(value)
        reduce = {"sum": sum, "count": len, "min": min, "max": max}[func]
        unique, agg = _reduce_by_group(
            keys, None if func == "count" else values, func
        )
        assert unique.tolist() == sorted(groups)
        assert agg.dtype == np.int64
        assert agg.tolist() == [reduce(groups[k]) for k in sorted(groups)]


class TestDenseJoin:
    @settings(max_examples=200)
    @given(join_case())
    def test_matches_sort_path_and_dict(self, case):
        got = hash_join_pairs(*case)
        _assert_same_arrays(got, _sorted_join_pairs(*case))
        assert list(zip(*(a.tolist() for a in got))) == _dict_join(*case)

    def test_empty_inputs_and_no_matches(self):
        heads = np.arange(3, dtype=np.int64)
        keys = np.array([4, 5, 6], dtype=np.int64)
        empty = np.empty(0, dtype=np.int64)
        for case in (
            (empty, empty, heads, keys),
            (heads, keys, empty, empty),
            (heads, keys + 10, heads, keys),
            (heads.astype(np.int32), keys.astype(np.int32) - 10, heads, keys),
        ):
            for left, right in (hash_join_pairs(*case), _sorted_join_pairs(*case)):
                assert left.dtype == right.dtype == np.int64
                assert len(left) == len(right) == 0

    @settings(max_examples=200)
    @given(in_range_join_case())
    def test_in_range_probes_match_sort_path(self, case):
        """Probes inside the build range (every, some or no probe a key)
        and partly outside: the same pairs as the sort path, and no
        output shares memory with an input."""
        got = hash_join_pairs(*case)
        _assert_same_arrays(got, _sorted_join_pairs(*case))
        for out in got:
            for array in case:
                assert not np.shares_memory(out, array)

    def test_float_probes_take_the_sort_path(self):
        outer = np.array([1.0, 1.5, 2.0])
        inner = np.array([2, 1], dtype=np.int64)
        left, right = hash_join_pairs(np.arange(3), outer, np.arange(2), inner)
        assert left.tolist() == [0, 2] and right.tolist() == [1, 0]


INT_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32]


@st.composite
def member_values(draw, dtypes=INT_DTYPES):
    """Probe values under the dense-key rule: either their whole span but
    for up to three holes (int8/int16 ones often straddling zero with
    ``hi - lo`` past the dtype's maximum, so ``value - lo`` overflows the
    dtype), or a few values over a span up to the rule's bound."""
    dtype = draw(st.sampled_from(dtypes))
    info = np.iinfo(dtype)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        if info.max < 2**15 and info.min < 0 and draw(st.booleans()):
            span = draw(st.integers(int(info.max) + 2, int(info.max) + 120))
        else:
            span = draw(st.integers(1, 150))
        holes = draw(st.sets(st.integers(1, span - 2), max_size=3)) if span > 2 else set()
        offsets = np.concatenate([
            np.delete(np.arange(span), sorted(holes)),
            rng.integers(0, span, draw(st.integers(0, 20))),
        ])
    else:
        n = draw(st.integers(1, 60))
        span = 1 if n == 1 else _span_near_bound(draw, 1, n)
        span = min(span, n + DENSE_KEY_SLACK)
        offsets = rng.integers(0, span, n)
        offsets[0], offsets[-1] = 0, span - 1
    lo = draw(st.integers(int(info.min), int(info.max) - span + 1))
    return (lo + rng.permutation(offsets)).astype(dtype)


@st.composite
def member_keys(draw, values, dtypes=INT_DTYPES):
    """Keys of any integer dtype: probe values, near misses on both sides
    of ``[lo, hi]``, far-off values and the key dtype's extremes; or none."""
    dtype = draw(st.sampled_from(dtypes))
    info = np.iinfo(dtype)
    lo, hi = int(values.min()), int(values.max())
    keys = draw(st.lists(
        st.sampled_from(values.tolist())
        | st.integers(lo - 3, lo - 1)
        | st.integers(hi + 1, hi + 3)
        | st.integers(lo - 500, hi + 500)
        | st.sampled_from([int(info.min), int(info.max)]),
        max_size=40,
    ))
    return np.asarray(
        [k for k in keys if info.min <= k <= info.max], dtype=dtype
    )


@st.composite
def outside_the_rule(draw):
    """Inputs ``member_mask`` hands to ``np.isin``: dense probe values
    against float keys (some in halves, which an integer table would
    truncate) or uint64 keys; or uint64, float, empty or wide-span probe
    values against integer or float keys."""
    if draw(st.booleans()):
        values = draw(member_values())
        keys = draw(member_keys(values, dtypes=[np.int64]))
        if draw(st.booleans()):
            return values, keys[keys >= 0].astype(np.uint64)
        return values, keys + np.arange(len(keys)) % 2 / 2
    top = draw(st.sampled_from([0, 4000]))
    values = draw(st.lists(st.integers(0, top), max_size=60))
    dtype = draw(st.sampled_from([np.uint64, np.float64, np.int64]))
    if dtype is np.int64 and values:
        values += [top + len(values) + DENSE_KEY_SLACK + 1]  # span past the bound
    keys = draw(st.lists(st.integers(0, top + 100), max_size=20))
    key_dtype = draw(st.sampled_from([np.int64, np.float64]))
    return np.asarray(values, dtype=dtype), np.asarray(keys, dtype=key_dtype)


def _assert_matches_isin(values, keys):
    for invert in (False, True):
        got = member_mask(values, keys, invert=invert)
        expected = np.isin(values, keys, invert=invert)
        assert got.dtype == expected.dtype == bool
        np.testing.assert_array_equal(got, expected)


def _int_type(dtype) -> DataType:
    """A column type for any integer dtype (the catalog has int32 and int64)."""
    dtype = np.dtype(dtype)
    return DataType(dtype.name, dtype, dtype.itemsize)


def _set_semijoin(heads, values, keys, negate):
    """(head, value) pairs of the outer rows that [do not] hit ``keys``."""
    wanted = set(keys.tolist())
    return [(h, v) for h, v in zip(heads.tolist(), values.tolist())
            if (v in wanted) != negate]


class TestDenseMembership:
    @settings(max_examples=300)
    @given(member_values(), st.data())
    def test_table_path_matches_np_isin(self, values, data):
        keys = data.draw(member_keys(values))
        assert dense_key_range(values) is not None and is_int64_exact(keys.dtype)
        _assert_matches_isin(values, keys)

    def test_offsets_that_overflow_the_value_dtype(self):
        for dtype, lo, hi in ((np.int8, -50, 100), (np.int16, -20_000, 20_000)):
            values = np.arange(lo, hi + 1, dtype=dtype)[::-1]
            for keys in (
                np.array([hi, lo, 0, hi - 1, -1], dtype=np.int64),
                np.array([lo - 1, hi + 1, 2**40, -(2**40)], dtype=np.int64),
                np.empty(0, dtype=dtype),
            ):
                _assert_matches_isin(values, keys)

    @settings(max_examples=150)
    @given(outside_the_rule())
    def test_inputs_outside_the_rule_match_np_isin(self, case):
        values, keys = case
        assert dense_key_range(values) is None or not is_int64_exact(keys.dtype)
        _assert_matches_isin(values, keys)

    @settings(max_examples=150)
    @given(
        member_values(dtypes=[np.int64, np.int32]),
        st.sampled_from(["slice", "bat", "candidates"]),
        st.booleans(),
        st.data(),
    )
    def test_semijoin_matches_a_set(self, values, outer_kind, negate, data):
        keys = data.draw(member_keys(values, dtypes=[np.int64, np.int32]))
        inner = BAT(np.arange(len(keys)), keys, LNG)
        dtype = LNG if values.dtype == np.int64 else INT
        if outer_kind == "slice":
            start = data.draw(st.integers(0, len(values) - 1))
            outer = Column("o", dtype, values).slice(start, len(values))
            heads, values = np.arange(start, len(values)), values[start:]
        elif outer_kind == "bat":
            heads = np.arange(len(values)) * 3 + 7
            outer = BAT(heads, values, dtype)
        else:
            # A candidate list is its own head and tail.
            values = heads = np.sort(values.astype(np.int64) - int(values.min()))
            dtype, outer = OID, Candidates(heads)
        got = SemiJoin(negate=negate).evaluate([outer, inner])
        assert got.dtype is dtype and got.tail.dtype == dtype.numpy_dtype
        assert list(zip(got.head.tolist(), got.tail.tolist())) == _set_semijoin(
            heads, values, keys, negate
        )

    @settings(max_examples=100)
    @given(member_values(dtypes=[np.int64, np.int32]), st.booleans(), st.data())
    def test_in_list_mask_matches_np_isin(self, values, negate, data):
        keys = data.draw(member_keys(values, dtypes=[np.int64]).filter(len))
        got = InPredicate(keys.tolist(), negate=negate).mask(values, None)
        np.testing.assert_array_equal(got, np.isin(values, keys, invert=negate))

    def test_column_bounds_are_computed_once(self):
        column = Column("c", INT, np.array([7, -3, 12, 5], dtype=np.int32))
        assert column.int_bounds() == (-3, 12)
        assert column.int_bounds() is column.int_bounds()
        assert full_column_bounds(column.full_slice()) == (-3, 12)
        assert full_column_bounds(column.slice(0, 3)) is None
        assert full_column_bounds(column.slice(1, 4)) is None
        assert full_column_bounds(BAT(np.arange(4), column.values, INT)) is None
        assert Column("e", LNG, np.empty(0, dtype=np.int64)).int_bounds() is None
        assert Column("s", STR, np.array([1, 0]), dictionary=("a", "b")).int_bounds() == (0, 1)

    @settings(max_examples=200)
    @given(
        member_values(dtypes=[np.int64, np.int32]),
        st.booleans(),
        st.booleans(),
        st.data(),
    )
    def test_full_and_partial_slices_match_np_isin(self, values, full, negate, data):
        keys = data.draw(member_keys(values, dtypes=[np.int64, np.int32]))
        dtype = LNG if values.dtype == np.int64 else INT
        column = Column("o", dtype, values)
        if full:
            view = column.full_slice()
        else:
            lo = data.draw(st.integers(0, len(values) - 1))
            hi = data.draw(st.integers(lo + 1, len(values)))
            assume((lo, hi) != (0, len(values)))
            view = column.slice(lo, hi)
        bounds = full_column_bounds(view)
        # A partial slice is judged on its own values, never the column's.
        assert (bounds is not None) == full
        assert dense_key_range(view.values, bounds) == dense_key_range(view.values)
        got = member_mask(view.values, keys, invert=negate, bounds=bounds)
        np.testing.assert_array_equal(got, np.isin(view.values, keys, invert=negate))
        inner = BAT(np.arange(len(keys)), keys, LNG if keys.dtype == np.int64 else INT)
        if data.draw(st.booleans()):
            view.oids()  # the slice's cached oid array exists beforehand
        semi = SemiJoin(negate=negate).evaluate([view, inner])
        rows = np.flatnonzero(np.isin(view.values, keys, invert=negate))
        np.testing.assert_array_equal(semi.head, view.oids()[rows])
        np.testing.assert_array_equal(semi.tail, view.values[rows])
        # Heads are fresh int64 rows plus ``lo``, never the oids() cache.
        assert semi.head.dtype == np.int64
        assert not np.shares_memory(semi.head, view.oids())
        # The same slice as a join's build side.
        probe = BAT(np.arange(len(keys)) * 2, keys, inner.dtype)
        joined = Join().evaluate([probe, view])
        left, right = _sorted_join_pairs(probe.head, keys, view.oids(), view.values)
        np.testing.assert_array_equal(joined.head, left)
        np.testing.assert_array_equal(joined.tail, right)

    @settings(max_examples=300)
    @given(
        member_values(dtypes=[np.int8, np.int16, np.int32, np.int64]),
        st.sampled_from(["probe", "keys"]),
        st.booleans(),
        st.booleans(),
        st.sampled_from([join.POSTINGS_MAX_SHARE, 64.0]),
        st.data(),
    )
    def test_whole_column_paths_match_np_isin(
        self, values, side, whole, negate, share, data
    ):
        """A dense column as the probe side (posting index) or the key
        side (presence table) of a semi- or anti-join, whole or sliced:
        the rows ``np.isin`` picks, as fresh int64 heads.  A share of 64
        sends nearly every probe-side semi-join over the whole column to
        the index, small as these columns are."""
        column = Column("c", _int_type(values.dtype), values)
        if whole:
            view = column.full_slice()
        else:
            lo = data.draw(st.integers(0, len(values) - 1))
            hi = data.draw(st.integers(lo + 1, len(values)))
            assume((lo, hi) != (0, len(values)))
            view = column.slice(lo, hi)
        # Keys or probe values of any integer dtype: duplicates, values
        # outside the column's [lo, hi], the dtype's extremes, or none.
        other = data.draw(member_keys(values))
        info = np.iinfo(other.dtype)
        hits = values[(values >= info.min) & (values <= info.max)]
        other = np.concatenate([hits[: data.draw(st.integers(0, 4))], other])
        if data.draw(st.booleans()):
            other = np.concatenate([other, other[::-1]])
        other = other.astype(info.dtype)
        other_heads = np.arange(len(other), dtype=np.int64) * 3 + 7
        other_bat = BAT(other_heads, other, _int_type(other.dtype))
        if side == "probe":
            outer, inner = view, other_bat
            heads = np.arange(view.lo, view.hi)
            probe, keys = view.values, other
        else:
            outer, inner = other_bat, view
            heads, probe, keys = other_heads, other, view.values
        with unittest.mock.patch.object(join, "POSTINGS_MAX_SHARE", share):
            got = SemiJoin(negate=negate).evaluate([outer, inner])
        rows = np.flatnonzero(np.isin(probe, keys, invert=negate))
        assert got.head.dtype == np.int64
        np.testing.assert_array_equal(got.head, heads[rows])
        assert got.tail.dtype == probe.dtype
        np.testing.assert_array_equal(got.tail, probe[rows])
        assert got.dtype == (view.dtype if side == "probe" else other_bat.dtype)
        # Fresh heads: no view of an input, the column or its structures.
        kept = [values, other, other_heads, *(column.postings() or ())]
        for array in kept:
            assert not np.shares_memory(got.head, array)

    def test_whole_column_structures_are_built_once_and_read_only(self):
        values = np.array([7, -3, 12, 5, 7, -3, 7], dtype=np.int32)
        column = Column("c", INT, values)
        keys = BAT(np.arange(3), np.array([7, 12, 7], dtype=np.int32), INT)
        with unittest.mock.patch("numpy.argsort", wraps=np.argsort) as argsort, \
                unittest.mock.patch.object(join, "POSTINGS_MAX_SHARE", 2.0):
            first = SemiJoin().evaluate([column.full_slice(), keys])
            postings = column.postings()
            second = SemiJoin().evaluate([column.full_slice(), keys])
            assert argsort.call_count == 1
        assert column.postings() is postings
        assert first.head.tolist() == second.head.tolist() == [0, 2, 4, 6]
        assert not np.shares_memory(first.head, second.head)
        rows, starts = postings
        # Rows by value (-3, 5, 7, 12), each value's rows in row order.
        assert rows.tolist() == [1, 5, 3, 0, 4, 6, 2]
        assert rows.dtype == starts.dtype == np.int32
        assert len(starts) == 17  # one per value of [-3, 12], plus one
        assert rows[starts[7 + 3]:starts[7 + 3 + 1]].tolist() == [0, 4, 6]
        probe = BAT(np.arange(4), np.array([5, 6, -4, 12], dtype=np.int64), LNG)
        anti = SemiJoin(negate=True).evaluate([probe, column.full_slice()])
        table = column.presence()
        assert anti.head.tolist() == [1, 2] and column.presence() is table
        assert np.flatnonzero(table).tolist() == [0, 8, 10, 15]
        for array in (rows, starts, table):
            assert not array.flags.writeable
        for empty in (Column("e", LNG, np.empty(0, dtype=np.int64)),
                      Column("f", DBL, np.array([1.5]))):
            assert empty.postings() is None and empty.presence() is None

    WORDS = ("ant", "bee", "cat", "cow", "dog", "eel", "elk", "emu", "fox", "gnu")

    @settings(max_examples=100)
    @given(
        st.lists(st.integers(2, 7), min_size=1, max_size=60),
        st.lists(st.sampled_from(WORDS + ("yak", "BEE")), min_size=1, max_size=4),
        st.sampled_from(["%", "e%", "%o%", "_o_", "c%", "zz%"]),
        st.booleans(),
    )
    def test_string_in_and_like_masks_match_np_isin(self, codes, words, pattern, negate):
        # The column's codes cover only part of the dictionary, so some
        # wanted codes fall outside the values' [lo, hi].
        values = Column("s", STR, np.asarray(codes), dictionary=self.WORDS).values
        wanted = [i for i, w in enumerate(self.WORDS) if w in words]
        got = InPredicate(words, negate=negate).mask(values, self.WORDS)
        np.testing.assert_array_equal(got, np.isin(values, wanted, invert=negate))
        like = LikePredicate(pattern, negate=negate)
        matching = like.matching_codes(self.WORDS)
        np.testing.assert_array_equal(
            like.mask(values, self.WORDS), np.isin(values, matching, invert=negate)
        )
