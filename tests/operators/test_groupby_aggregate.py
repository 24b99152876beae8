"""Grouped and scalar aggregation, and the AP-aware partial merge."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import OperatorError
from repro.operators import Aggregate, AggrMerge, GroupAggregate, Pack, merge_func_for
from repro.storage import BAT, Candidates, Column, DBL, LNG, Scalar


@pytest.fixture()
def keys() -> Column:
    return Column("k", LNG, np.array([1, 2, 1, 3, 2, 1]))


@pytest.fixture()
def values() -> Column:
    return Column("v", LNG, np.array([10, 20, 30, 40, 50, 60]))


class TestGroupAggregate:
    def test_grouped_sum(self, keys, values):
        out = GroupAggregate("sum").evaluate([keys.full_slice(), values.full_slice()])
        np.testing.assert_array_equal(out.head, [1, 2, 3])
        np.testing.assert_array_equal(out.tail, [100, 70, 40])

    def test_grouped_count(self, keys):
        out = GroupAggregate("count").evaluate([keys.full_slice()])
        np.testing.assert_array_equal(out.head, [1, 2, 3])
        np.testing.assert_array_equal(out.tail, [3, 2, 1])

    def test_grouped_min_max(self, keys, values):
        lo = GroupAggregate("min").evaluate([keys.full_slice(), values.full_slice()])
        hi = GroupAggregate("max").evaluate([keys.full_slice(), values.full_slice()])
        np.testing.assert_array_equal(lo.tail, [10, 20, 40])
        np.testing.assert_array_equal(hi.tail, [60, 50, 40])

    def test_float_values_stay_float(self, keys):
        vals = Column("v", DBL, np.array([1.5, 2.5, 3.5, 4.5, 5.5, 6.5]))
        out = GroupAggregate("sum").evaluate([keys.full_slice(), vals.full_slice()])
        assert out.dtype is DBL
        np.testing.assert_allclose(out.tail, [11.5, 8.0, 4.5])

    def test_integer_sum_is_exact_past_2_53(self):
        """Float64 accumulation would round 2**53 + 1 down to 2**53."""
        keys = Column("k", LNG, np.array([7, 7]))
        vals = Column("v", LNG, np.array([2**53, 1]))
        out = GroupAggregate("sum").evaluate([keys.full_slice(), vals.full_slice()])
        assert out.tail.dtype == np.int64
        assert out.tail.tolist() == [2**53 + 1]
        assert out.tail[0] == Aggregate("sum").evaluate([vals.full_slice()]).value

    def test_misaligned_inputs_rejected(self, keys):
        vals = Column("v", LNG, np.arange(3))
        with pytest.raises(OperatorError):
            GroupAggregate("sum").evaluate([keys.full_slice(), vals.full_slice()])

    def test_count_arity(self, keys, values):
        with pytest.raises(OperatorError):
            GroupAggregate("count").evaluate([keys.full_slice(), values.full_slice()])

    def test_unknown_func_rejected(self):
        with pytest.raises(OperatorError):
            GroupAggregate("median")

    def test_partials_pack_merge_equals_serial(self, keys, values):
        """The advanced-mutation identity: groupagg per partition, pack,
        merge == serial groupagg."""
        serial = GroupAggregate("sum").evaluate(
            [keys.full_slice(), values.full_slice()]
        )
        p1 = GroupAggregate("sum").evaluate([keys.slice(0, 3), values.slice(0, 3)])
        p2 = GroupAggregate("sum").evaluate([keys.slice(3, 6), values.slice(3, 6)])
        packed = Pack().evaluate([p1, p2])
        merged = AggrMerge(merge_func_for("sum")).evaluate([packed])
        np.testing.assert_array_equal(merged.head, serial.head)
        np.testing.assert_array_equal(merged.tail, serial.tail)

    def test_count_partials_merge_with_sum(self, keys):
        serial = GroupAggregate("count").evaluate([keys.full_slice()])
        p1 = GroupAggregate("count").evaluate([keys.slice(0, 4)])
        p2 = GroupAggregate("count").evaluate([keys.slice(4, 6)])
        merged = AggrMerge(merge_func_for("count")).evaluate(
            [Pack().evaluate([p1, p2])]
        )
        np.testing.assert_array_equal(merged.tail, serial.tail)

    def test_min_partials_merge_with_min(self, keys, values):
        serial = GroupAggregate("min").evaluate(
            [keys.full_slice(), values.full_slice()]
        )
        p1 = GroupAggregate("min").evaluate([keys.slice(0, 2), values.slice(0, 2)])
        p2 = GroupAggregate("min").evaluate([keys.slice(2, 6), values.slice(2, 6)])
        merged = AggrMerge("min").evaluate([Pack().evaluate([p1, p2])])
        np.testing.assert_array_equal(merged.tail, serial.tail)


class TestAggrMerge:
    def test_rejects_non_bat(self):
        with pytest.raises(OperatorError):
            AggrMerge("sum").evaluate([Candidates(np.array([1]))])

    def test_int64_partials_sum_exactly(self):
        partials = BAT(np.array([0, 0, 4]), np.array([2**53, 1, 3]), LNG)
        out = AggrMerge("sum").evaluate([partials])
        assert out.head.tolist() == [0, 4]
        assert out.tail.dtype == np.int64
        assert out.tail.tolist() == [2**53 + 1, 3]

    def test_rejects_count(self):
        with pytest.raises(OperatorError):
            AggrMerge("count")

    def test_merge_func_mapping(self):
        assert merge_func_for("sum") == "sum"
        assert merge_func_for("count") == "sum"
        assert merge_func_for("min") == "min"
        assert merge_func_for("max") == "max"
        with pytest.raises(OperatorError):
            merge_func_for("avg")


class TestAggregate:
    def test_sum_over_slice(self, values):
        out = Aggregate("sum").evaluate([values.full_slice()])
        assert out.value == 210

    def test_sum_over_bat(self):
        bat = BAT(np.array([0, 1]), np.array([3, 4]), LNG)
        assert Aggregate("sum").evaluate([bat]).value == 7

    def test_count_over_candidates(self):
        out = Aggregate("count").evaluate([Candidates(np.array([1, 5, 9]))])
        assert out.value == 3

    def test_sum_over_candidates_rejected(self):
        with pytest.raises(OperatorError):
            Aggregate("sum").evaluate([Candidates(np.array([1]))])

    def test_min_max(self, values):
        assert Aggregate("min").evaluate([values.full_slice()]).value == 10
        assert Aggregate("max").evaluate([values.full_slice()]).value == 60

    def test_empty_input_sum_is_zero(self):
        col = Column("v", LNG, np.array([], dtype=np.int64))
        assert Aggregate("sum").evaluate([col.full_slice()]).value == 0

    def test_float_sum(self):
        col = Column("v", DBL, np.array([0.5, 1.5]))
        out = Aggregate("sum").evaluate([col.full_slice()])
        assert out.dtype is DBL
        assert out.value == 2.0

    def test_scalar_partials_pack_merge(self, values):
        """Aggregate partials packed and re-aggregated equal the serial
        scalar (the advanced-mutation identity for sums)."""
        serial = Aggregate("sum").evaluate([values.full_slice()])
        p1 = Aggregate("sum").evaluate([values.slice(0, 3)])
        p2 = Aggregate("sum").evaluate([values.slice(3, 6)])
        packed = Pack().evaluate([p1, p2])
        merged = Aggregate("sum").evaluate([packed])
        assert merged.value == serial.value

    def test_scalar_is_scalar(self, values):
        out = Aggregate("sum").evaluate([values.full_slice()])
        assert isinstance(out, Scalar)
