"""Property: the zero-copy kernels are invisible to results.

Select and Fetch return views, shared candidate arrays and
binary-searched sub-ranges instead of materializing their outputs.
Whatever columns, predicates, and candidate chains we draw, their
results must be bit-identical to the materializing reference
implementations below (``reference_select``, ``reference_fetch``), and
the work profiles (hence simulated times) must match exactly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.operators import (
    Calc,
    EqualsPredicate,
    Fetch,
    GroupAggregate,
    InPredicate,
    Join,
    LikePredicate,
    Pack,
    RangePredicate,
    Select,
    SemiJoin,
)
from repro.operators.base import as_oid_array
from repro.operators.select import BOOLEAN_COMPACTION_SHARE
from repro.storage import BAT, DBL, INT, LNG, STR, Candidates, Column
from repro.storage.column import ColumnSlice, align_candidates


def columns(draw, n):
    values = draw(
        st.lists(st.integers(0, 100), min_size=n, max_size=n)
    )
    return Column("c", LNG, np.asarray(values, dtype=np.int64))


def reference_select(predicate, inputs):
    """Select by copying: mask the in-slice candidates at local offsets,
    or offset a fresh ``flatnonzero`` of the whole slice."""
    view = inputs[0]
    dictionary = view.column.dictionary
    if len(inputs) == 2:
        source = inputs[1]
        cands = as_oid_array(source, what="select candidates")
        unique = True if source.unique else None
        cands = cands[(cands >= view.lo) & (cands < view.hi)]
        mask = predicate.mask(view.values[cands - view.lo], dictionary)
        return Candidates(cands[mask], check_sorted=False, unique=unique)
    mask = predicate.mask(view.values, dictionary)
    hits = np.flatnonzero(mask).astype(np.int64) + view.lo
    return Candidates(hits, check_sorted=False, unique=True)


def reference_fetch(op, cands, view):
    """Fetch candidate rows by gathering every value, dense run or not."""
    aligned = align_candidates(cands, view, strict=op.alignment == "strict")
    oids = aligned.oids
    return BAT(oids, view.column.values[oids], view.dtype, view.column.dictionary)


def intermediate_equal(a, b):
    if isinstance(a, Candidates) and isinstance(b, Candidates):
        return np.array_equal(a.oids, b.oids)
    if isinstance(a, BAT) and isinstance(b, BAT):
        return (
            np.array_equal(a.head, b.head)
            and np.array_equal(a.tail, b.tail)
            and a.dtype is b.dtype
        )
    return False


@st.composite
def select_case(draw):
    n = draw(st.integers(1, 60))
    column = columns(draw, n)
    lo = draw(st.integers(0, n - 1))
    hi = draw(st.integers(lo, n))
    view = column.slice(lo, hi)
    p_lo = draw(st.one_of(st.none(), st.integers(0, 100)))
    p_hi = draw(st.one_of(st.none(), st.integers(0, 100)))
    if p_lo is None and p_hi is None:
        p_lo = 0
    predicate = RangePredicate(p_lo, p_hi)
    cands = None
    if draw(st.booleans()):
        oids = draw(
            st.lists(st.integers(0, n - 1), min_size=0, max_size=n, unique=True)
        )
        cands = Candidates(np.sort(np.asarray(oids, dtype=np.int64)))
    return view, predicate, cands


@given(select_case())
@settings(max_examples=60, deadline=None)
def test_select_fast_path_matches_slow_path(case):
    view, predicate, cands = case
    op = Select(predicate)
    inputs = [view] if cands is None else [view, cands]
    fast = op.evaluate(inputs)
    slow = reference_select(predicate, inputs)
    assert intermediate_equal(fast, slow)
    assert op.work_profile(inputs, fast) == op.work_profile(inputs, slow)


@st.composite
def fetch_case(draw):
    n = draw(st.integers(1, 60))
    column = columns(draw, n)
    # Mix dense runs (which hit the zero-copy view) with sparse lists.
    if draw(st.booleans()):
        lo = draw(st.integers(0, n - 1))
        hi = draw(st.integers(lo + 1, n))
        oids = np.arange(lo, hi, dtype=np.int64)
    else:
        picks = draw(
            st.lists(st.integers(0, n - 1), min_size=0, max_size=n, unique=True)
        )
        oids = np.sort(np.asarray(picks, dtype=np.int64))
    return column.full_slice(), Candidates(oids)


@given(fetch_case())
@settings(max_examples=60, deadline=None)
def test_fetch_fast_path_matches_slow_path(case):
    view, cands = case
    op = Fetch()
    fast = op.evaluate([cands, view])
    slow = reference_fetch(op, cands, view)
    assert intermediate_equal(fast, slow)
    assert op.work_profile([cands, view], fast) == op.work_profile(
        [cands, view], slow
    )


@given(fetch_case())
@settings(max_examples=30, deadline=None)
def test_dense_fetch_returns_base_column_view(case):
    view, cands = case
    out = Fetch().evaluate([cands, view])
    n = len(cands)
    dense = n > 0 and int(cands.oids[-1]) - int(cands.oids[0]) + 1 == n
    if dense:
        # Zero-copy: the tail shares the base column's buffer.
        assert np.shares_memory(out.tail, view.column.values)
        assert np.shares_memory(out.head, cands.oids)


@given(st.lists(st.integers(0, 50), min_size=1, max_size=40), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_select_chain_fast_path_matches_slow_path(values, n_chained):
    """Chained conjunctive selections propagate candidates identically."""
    column = Column("c", LNG, np.asarray(values, dtype=np.int64))
    view = column.full_slice()
    preds = [RangePredicate(5 * i, 50 - 3 * i) for i in range(n_chained + 1)]

    def run():
        cands = Select(preds[0]).evaluate([view])
        for pred in preds[1:]:
            cands = Select(pred).evaluate([view, cands])
        return cands

    fast = run()
    slow = reference_select(preds[0], [view])
    for pred in preds[1:]:
        slow = reference_select(pred, [view, slow])
    assert intermediate_equal(fast, slow)


@given(st.lists(st.integers(0, 30), min_size=1, max_size=30))
@settings(max_examples=40, deadline=None)
def test_candidates_join_calc_groupby_match_mirror_path(values):
    """Probe sides fed raw candidate lists equal the mirrored-BAT path."""
    column = Column("c", LNG, np.asarray(values, dtype=np.int64))
    view = column.full_slice()
    cands = Select(RangePredicate(5, 25)).evaluate([view])
    as_bat = BAT(cands.oids, cands.oids, LNG)

    joined_c = Join().evaluate([cands, view])
    joined_b = Join().evaluate([as_bat, view])
    assert np.array_equal(joined_c.head, joined_b.head)
    assert np.array_equal(joined_c.tail, joined_b.tail)

    semi_c = SemiJoin().evaluate([cands, view])
    semi_b = SemiJoin().evaluate([as_bat, view])
    assert np.array_equal(semi_c.head, semi_b.head)
    assert np.array_equal(semi_c.tail, semi_b.tail)

    calc_c = Calc("+").evaluate([cands, cands])
    calc_b = Calc("+").evaluate([as_bat, as_bat])
    assert np.array_equal(calc_c.head, calc_b.head)
    assert np.array_equal(calc_c.tail, calc_b.tail)

    grouped_c = GroupAggregate("count").evaluate([cands])
    grouped_b = GroupAggregate("count").evaluate([as_bat])
    assert np.array_equal(grouped_c.head, grouped_b.head)
    assert np.array_equal(grouped_c.tail, grouped_b.tail)


@given(
    st.lists(
        st.lists(st.integers(0, 100), min_size=0, max_size=10, unique=True),
        min_size=1,
        max_size=4,
    )
)
@settings(max_examples=60, deadline=None)
def test_pack_tracks_candidate_uniqueness(parts):
    """Pack's single ordering scan also settles the uniqueness flag."""
    sorted_parts = [np.sort(np.asarray(p, dtype=np.int64)) for p in parts]
    flat = np.concatenate(sorted_parts)
    if len(flat) > 1 and not np.all(flat[1:] >= flat[:-1]):
        return  # out-of-order packs raise; ordering is tested elsewhere
    packed = Pack().evaluate([Candidates(p) for p in sorted_parts])
    expected_unique = bool(np.all(flat[1:] > flat[:-1])) if len(flat) > 1 else True
    assert packed.unique is expected_unique
    assert np.array_equal(packed.oids, flat)


def test_slice_oids_are_cached_and_read_only():
    column = Column("c", LNG, np.arange(10, dtype=np.int64))
    view = ColumnSlice(column, 2, 7)
    first = view.oids()
    second = view.oids()
    assert first is second
    assert not first.flags.writeable
    np.testing.assert_array_equal(first, np.arange(2, 7))


# ---------------------------------------------------------------------------
# Candidate selections: gather from the base column, compact by count
# ---------------------------------------------------------------------------
_WORDS = ("apple", "apricot", "avocado", "banana", "blueberry", "cherry")

#: Per column kind: (predicate, values it keeps, values it drops).
_CANDIDATE_PREDICATES = {
    "numeric": [
        (RangePredicate(0, 9), [0, 3, 9], [-5, 10, 100]),
        (RangePredicate(0, 9, lo_inclusive=False), [1, 9], [0, 10]),
        (EqualsPredicate(7), [7], [0, 8, 100]),
        (EqualsPredicate(7, negate=True), [0, 8, 100], [7]),
        (InPredicate((1, 4, 7)), [1, 4, 7], [0, 5, 100]),
        (InPredicate((1, 4, 7), negate=True), [0, 5, 100], [1, 4, 7]),
    ],
    "dictionary": [
        (EqualsPredicate("apricot"), [1], [0, 2, 5]),
        (EqualsPredicate("nope"), [], [0, 3]),
        (InPredicate(("apple", "avocado")), [0, 2], [1, 3, 5]),
        (LikePredicate("a%"), [0, 1, 2], [3, 4, 5]),
        (LikePredicate("b%", negate=True), [0, 1, 5], [3, 4]),
    ],
}

_COLUMN_TYPES = {"int32": INT, "int64": LNG, "float64": DBL, "dictionary": STR}


@st.composite
def candidate_select_case(draw):
    """A column of int32, int64, float64 or dictionary codes, a full or
    partial slice, sorted candidates (with ones outside the slice), and
    a predicate that keeps none, some, at least 90% or all of the
    candidates inside the slice."""
    kind = draw(st.sampled_from(sorted(_COLUMN_TYPES)))
    dtype = _COLUMN_TYPES[kind]
    predicate, kept, dropped = draw(st.sampled_from(
        _CANDIDATE_PREDICATES["dictionary" if dtype is STR else "numeric"]
    ))
    n = draw(st.integers(1, 400))
    if draw(st.booleans()):
        lo, hi = 0, n
    else:
        lo = draw(st.integers(0, n - 1))
        hi = draw(st.integers(lo, n))
    oids = sorted(draw(st.sets(st.integers(0, n - 1), max_size=n)))
    inside = [o for o in oids if lo <= o < hi]
    share = draw(st.sampled_from(["none", "some", "most", "all"]))
    if not kept:
        share = "none"
    if not dropped:
        share = "all"
    m = len(inside)
    k = {
        "none": 0,
        "some": draw(st.integers(0, m)),
        "most": m - draw(st.integers(0, m // 10)),
        "all": m,
    }[share]
    keep = set(draw(st.permutations(inside))[:k])
    pool = kept + dropped
    values = [
        draw(st.sampled_from(kept)) if row in keep
        else draw(st.sampled_from(dropped if row in inside else pool))
        for row in range(n)
    ]
    column = Column(
        "c", dtype, np.asarray(values, dtype=dtype.numpy_dtype),
        dictionary=_WORDS if dtype is STR else None,
    )
    oid_array = np.asarray(oids, dtype=np.int64)
    if draw(st.booleans()):
        cands = Candidates(oid_array)
    else:
        cands = Candidates(oid_array, check_sorted=False, unique=None)
    return column.slice(lo, hi), predicate, cands, k


@given(candidate_select_case())
@settings(max_examples=300, deadline=None)
def test_candidate_select_matches_reference(case):
    """``Select`` == ``reference_select`` on oids, dtype and the unique
    flag; the candidate buffer is shared only when every candidate in
    the slice qualified."""
    view, predicate, cands, kept = case
    op = Select(predicate)
    inputs = [view, cands]
    fast = op.evaluate(inputs)
    slow = reference_select(predicate, inputs)
    assert len(fast) == kept
    assert fast.oids.dtype == slow.oids.dtype == np.int64
    np.testing.assert_array_equal(fast.oids, slow.oids)
    assert fast.unique == slow.unique
    assert op.work_profile(inputs, fast) == op.work_profile(inputs, slow)
    assert not np.shares_memory(slow.oids, cands.oids)
    if np.shares_memory(fast.oids, cands.oids):
        assert kept == len(cands.restrict(view.lo, view.hi))


_EDGE = int(BOOLEAN_COMPACTION_SHARE * 100)


@pytest.mark.parametrize("kept", [0, 1, 50, _EDGE - 1, _EDGE, _EDGE + 1, 99, 100])
def test_both_compactions_around_the_crossover(kept):
    """Either side of ``BOOLEAN_COMPACTION_SHARE`` of 100 candidates the
    compacted oids are the kept candidates, in a fresh buffer."""
    oids = np.arange(0, 300, 3, dtype=np.int64)
    keep = np.zeros(100, dtype=bool)
    keep[np.random.default_rng(kept).permutation(100)[:kept]] = True
    values = np.zeros(300, dtype=np.int64)
    values[oids[keep]] = 1
    cands = Candidates(oids)
    view = Column("c", LNG, values).full_slice()
    out = Select(EqualsPredicate(1)).evaluate([view, cands])
    np.testing.assert_array_equal(out.oids, oids[keep])
    assert out.unique is True
    assert np.shares_memory(out.oids, cands.oids) == (kept == 100)
