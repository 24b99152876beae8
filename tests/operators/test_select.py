"""Selection operators and predicates."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import OperatorError
from repro.operators import (
    CandIntersect,
    CandUnion,
    EqualsPredicate,
    InPredicate,
    LikePredicate,
    RangePredicate,
    Select,
)
from repro.storage import Candidates, Column, LNG


@pytest.fixture()
def column() -> Column:
    return Column("v", LNG, np.array([5, 3, 8, 1, 9, 3, 7, 2, 6, 4]))


class TestPredicates:
    def test_range_inclusive(self, column):
        mask = RangePredicate(3, 7).mask(column.values, None)
        np.testing.assert_array_equal(
            np.flatnonzero(mask), [0, 1, 5, 6, 8, 9]
        )

    def test_range_exclusive_bounds(self, column):
        mask = RangePredicate(3, 7, lo_inclusive=False, hi_inclusive=False).mask(
            column.values, None
        )
        np.testing.assert_array_equal(np.flatnonzero(mask), [0, 8, 9])

    def test_range_open_ended(self, column):
        assert RangePredicate(hi=3).mask(column.values, None).sum() == 4

    def test_range_requires_a_bound(self):
        with pytest.raises(OperatorError):
            RangePredicate()

    @pytest.mark.parametrize(
        "bounds", [("a", None), (None, "Brand#2"), (1, "9"), (True, None), (None, [3])]
    )
    def test_range_rejects_non_numeric_bounds(self, bounds):
        with pytest.raises(OperatorError, match="must be a number"):
            RangePredicate(*bounds)

    def test_range_takes_numpy_numbers(self, column):
        predicate = RangePredicate(np.int64(3), np.float64(7.0))
        assert predicate.mask(column.values, None).sum() == 6

    def test_equals_and_negate(self, column):
        assert EqualsPredicate(3).mask(column.values, None).sum() == 2
        assert EqualsPredicate(3, negate=True).mask(column.values, None).sum() == 8

    def test_equals_string_on_dictionary(self):
        col = Column.from_strings("s", ["aa", "bb", "aa", "cc"])
        mask = EqualsPredicate("aa").mask(col.values, col.dictionary)
        np.testing.assert_array_equal(np.flatnonzero(mask), [0, 2])

    def test_equals_unknown_string_matches_nothing(self):
        col = Column.from_strings("s", ["aa", "bb"])
        assert EqualsPredicate("zz").mask(col.values, col.dictionary).sum() == 0
        assert (
            EqualsPredicate("zz", negate=True).mask(col.values, col.dictionary).sum()
            == 2
        )

    def test_equals_string_without_dictionary_raises(self, column):
        with pytest.raises(OperatorError):
            EqualsPredicate("x").mask(column.values, None)

    def test_in_list_numeric(self, column):
        mask = InPredicate([3, 9]).mask(column.values, None)
        np.testing.assert_array_equal(np.flatnonzero(mask), [1, 4, 5])

    def test_in_list_negated(self, column):
        assert InPredicate([3, 9], negate=True).mask(column.values, None).sum() == 7

    def test_in_list_strings(self):
        col = Column.from_strings("s", ["aa", "bb", "cc", "bb"])
        mask = InPredicate(["bb", "cc"]).mask(col.values, col.dictionary)
        np.testing.assert_array_equal(np.flatnonzero(mask), [1, 2, 3])

    def test_in_list_empty_rejected(self):
        with pytest.raises(OperatorError):
            InPredicate([])

    def test_like_prefix(self):
        col = Column.from_strings("s", ["PROMO BRASS", "STD TIN", "PROMO TIN"])
        mask = LikePredicate("PROMO%").mask(col.values, col.dictionary)
        np.testing.assert_array_equal(np.flatnonzero(mask), [0, 2])

    def test_like_infix_and_negate(self):
        col = Column.from_strings("s", ["A BRASS X", "B TIN Y", "C BRASS Z"])
        assert LikePredicate("%BRASS%").mask(col.values, col.dictionary).sum() == 2
        assert (
            LikePredicate("%BRASS%", negate=True).mask(col.values, col.dictionary).sum()
            == 1
        )

    def test_like_underscore_wildcard(self):
        col = Column.from_strings("s", ["cat", "cut", "cart"])
        mask = LikePredicate("c_t").mask(col.values, col.dictionary)
        np.testing.assert_array_equal(np.flatnonzero(mask), [0, 1])

    def test_like_on_numeric_column_raises(self, column):
        with pytest.raises(OperatorError):
            LikePredicate("x%").mask(column.values, None)


class TestSelect:
    def test_full_scan_returns_global_oids(self, column):
        out = Select(RangePredicate(hi=4)).evaluate([column.full_slice()])
        np.testing.assert_array_equal(out.oids, [1, 3, 5, 7, 9])

    def test_slice_offsets_oids(self, column):
        out = Select(RangePredicate(hi=4)).evaluate([column.slice(5, 10)])
        np.testing.assert_array_equal(out.oids, [5, 7, 9])

    def test_candidate_conjunction(self, column):
        cands = Candidates(np.array([0, 1, 3, 4, 5]))
        out = Select(RangePredicate(hi=4)).evaluate([column.full_slice(), cands])
        np.testing.assert_array_equal(out.oids, [1, 3, 5])

    def test_candidates_outside_slice_ignored(self, column):
        cands = Candidates(np.array([1, 3, 7, 9]))
        out = Select(RangePredicate(hi=4)).evaluate([column.slice(0, 5), cands])
        np.testing.assert_array_equal(out.oids, [1, 3])

    def test_split_partitions_union_to_serial(self, column):
        """Basic-mutation correctness at operator level: the union of
        per-slice selections equals the full selection."""
        op = Select(RangePredicate(hi=4))
        serial = op.evaluate([column.full_slice()])
        left = op.evaluate([column.slice(0, 6)])
        right = op.evaluate([column.slice(6, 10)])
        merged = np.concatenate([left.oids, right.oids])
        np.testing.assert_array_equal(merged, serial.oids)

    def test_wrong_input_type_rejected(self, column):
        with pytest.raises(OperatorError):
            Select(RangePredicate(hi=4)).evaluate([Candidates(np.array([1]))])

    def test_wrong_arity_rejected(self, column):
        with pytest.raises(OperatorError):
            Select(RangePredicate(hi=4)).evaluate([])

    def test_work_profile_counts_restricted_candidates(self, column):
        op = Select(RangePredicate(hi=4))
        view = column.slice(0, 5)
        cands = Candidates(np.array([1, 3, 7, 9]))
        out = op.evaluate([view, cands])
        profile = op.work_profile([view, cands], out)
        assert profile.tuples_in == 2  # only oids 1 and 3 fall in [0, 5)

    def test_work_profile_full_scan(self, column):
        op = Select(RangePredicate(hi=4))
        view = column.full_slice()
        out = op.evaluate([view])
        profile = op.work_profile([view], out)
        assert profile.tuples_in == 10
        assert profile.bytes_read == 80


class TestCandSetOps:
    def test_union_dedupes_and_sorts(self):
        a = Candidates(np.array([1, 3, 5]))
        b = Candidates(np.array([3, 4]))
        out = CandUnion().evaluate([a, b])
        np.testing.assert_array_equal(out.oids, [1, 3, 4, 5])

    def test_union_needs_input(self):
        with pytest.raises(OperatorError):
            CandUnion().evaluate([])

    def test_intersect(self):
        a = Candidates(np.array([1, 3, 5, 7]))
        b = Candidates(np.array([3, 7, 9]))
        out = CandIntersect().evaluate([a, b])
        np.testing.assert_array_equal(out.oids, [3, 7])

    def test_intersect_three_way(self):
        a = Candidates(np.array([1, 2, 3, 4]))
        b = Candidates(np.array([2, 3, 4]))
        c = Candidates(np.array([3, 4, 9]))
        out = CandIntersect().evaluate([a, b, c])
        np.testing.assert_array_equal(out.oids, [3, 4])
