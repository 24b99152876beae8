"""Selection over a column slice, with optional candidate input.

The two MAL flavours the paper mentions (Section 2.2, "the filter
operator ... can have two representations") map to the two arities here:
``Select`` over just a slice, or over a slice plus a candidate list from a
previous selection (conjunction).
"""

from __future__ import annotations

import fnmatch
import numbers
from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from ..errors import OperatorError
from ..storage.column import Candidates, ColumnSlice, Intermediate
from ..storage.dtypes import OID_DTYPE
from .base import Operator, WorkProfile, as_oid_array, member_mask

#: Above this share of kept candidates, a candidate selection compacts
#: with boolean indexing; at or below it, with ``np.compress``.  On
#: random masks over 30,000-300,000 sorted int64 oids, ``np.compress``
#: is 3-4.5x faster at 15-70% kept, the two cross between 92% and 95%,
#: and boolean indexing is 1.3-2x faster at 96-98% (docs/perf.md,
#: "Candidate selections and in-range probes").
BOOLEAN_COMPACTION_SHARE = 0.94


class Predicate(ABC):
    """A unary filter over column values."""

    @abstractmethod
    def mask(self, values: np.ndarray, dictionary: tuple[str, ...] | None) -> np.ndarray:
        """Boolean mask of qualifying positions."""

    @abstractmethod
    def describe(self) -> str:
        """Human-readable form for plan printing."""

    def cache_key(self) -> tuple:
        """Stable identity of this predicate for plan fingerprinting.

        The default derives the key from :meth:`describe`, which for a
        well-behaved predicate spells out every parameter; subclasses
        whose description is lossy must override with the raw values.
        """
        return (type(self).__name__, self.describe())


class RangePredicate(Predicate):
    """``lo <= v <= hi`` with open ends expressed as ``None``."""

    def __init__(
        self,
        lo: float | int | None = None,
        hi: float | int | None = None,
        *,
        lo_inclusive: bool = True,
        hi_inclusive: bool = True,
    ) -> None:
        if lo is None and hi is None:
            raise OperatorError("range predicate needs at least one bound")
        for bound in (lo, hi):
            # A string bound would compare dictionary codes or fail in numpy.
            if bound is not None and (
                isinstance(bound, bool) or not isinstance(bound, numbers.Real)
            ):
                raise OperatorError(f"range bound must be a number, got {bound!r}")
        self.lo = lo
        self.hi = hi
        self.lo_inclusive = lo_inclusive
        self.hi_inclusive = hi_inclusive

    def mask(self, values: np.ndarray, dictionary: tuple[str, ...] | None) -> np.ndarray:
        """One comparison per bound, joined by one ``&`` when both are set."""
        if self.lo is not None:
            above = values >= self.lo if self.lo_inclusive else values > self.lo
            if self.hi is None:
                return above
        below = values <= self.hi if self.hi_inclusive else values < self.hi
        if self.lo is None:
            return below
        above &= below
        return above

    def describe(self) -> str:
        lo_b = "[" if self.lo_inclusive else "("
        hi_b = "]" if self.hi_inclusive else ")"
        return f"{lo_b}{self.lo}:{self.hi}{hi_b}"

    def cache_key(self) -> tuple:
        return ("range", self.lo, self.hi, self.lo_inclusive, self.hi_inclusive)


class EqualsPredicate(Predicate):
    """``v == value`` (or ``v != value``); strings are raw strings."""

    def __init__(self, value: float | int | str, *, negate: bool = False) -> None:
        self.value = value
        self.negate = negate

    def mask(self, values: np.ndarray, dictionary: tuple[str, ...] | None) -> np.ndarray:
        target = self.value
        if isinstance(target, str):
            if dictionary is None:
                raise OperatorError("string equality on a non-string column")
            try:
                target = dictionary.index(target)
            except ValueError:
                hit = np.zeros(len(values), dtype=bool)
                return ~hit if self.negate else hit
        hit = values == target
        return ~hit if self.negate else hit

    def describe(self) -> str:
        op = "!=" if self.negate else "=="
        return f"{op}{self.value!r}"

    def cache_key(self) -> tuple:
        return ("equals", self.value, self.negate)


class InPredicate(Predicate):
    """``v [not] in values`` (IN-list).

    String values become the dictionary codes they match; the mask is
    :func:`~repro.operators.base.member_mask` of the column values
    against those codes or the numeric list.
    """

    def __init__(
        self, values: Sequence[float | int | str], *, negate: bool = False
    ) -> None:
        if not values:
            raise OperatorError("IN-list must not be empty")
        self.values = tuple(values)
        self.negate = negate

    def mask(self, values: np.ndarray, dictionary: tuple[str, ...] | None) -> np.ndarray:
        targets = self.values
        if isinstance(targets[0], str):
            if dictionary is None:
                raise OperatorError("string IN-list on a non-string column")
            wanted = set(targets)
            targets = tuple(i for i, s in enumerate(dictionary) if s in wanted)
        return member_mask(values, np.asarray(targets), invert=self.negate)

    def describe(self) -> str:
        op = "not in" if self.negate else "in"
        return f"{op} {self.values!r}"

    def cache_key(self) -> tuple:
        return ("in", self.values, self.negate)


class LikePredicate(Predicate):
    """SQL ``LIKE`` on a dictionary-encoded string column.

    The pattern is matched against the dictionary once, then reduced to a
    code IN-list -- the classic column-store trick -- whose mask is
    :func:`~repro.operators.base.member_mask` of the column's codes.
    """

    def __init__(self, pattern: str, *, negate: bool = False) -> None:
        self.pattern = pattern
        self.negate = negate
        self._glob = pattern.replace("%", "*").replace("_", "?")

    def matching_codes(self, dictionary: tuple[str, ...]) -> np.ndarray:
        codes = [i for i, s in enumerate(dictionary) if fnmatch.fnmatchcase(s, self._glob)]
        return np.asarray(codes, dtype=np.int64)

    def mask(self, values: np.ndarray, dictionary: tuple[str, ...] | None) -> np.ndarray:
        if dictionary is None:
            raise OperatorError("LIKE requires a dictionary-encoded string column")
        return member_mask(
            values, self.matching_codes(dictionary), invert=self.negate
        )

    def describe(self) -> str:
        op = "not like" if self.negate else "like"
        return f"{op} {self.pattern!r}"

    def cache_key(self) -> tuple:
        return ("like", self.pattern, self.negate)


class Select(Operator):
    """Filter a column slice, optionally under a candidate list.

    Inputs: ``[slice]`` or ``[slice, candidates]``.  Output: a sorted
    candidate list of qualifying *global* oids.
    """

    kind = "select"
    partitionable = True

    def __init__(self, predicate: Predicate) -> None:
        super().__init__()
        self.predicate = predicate

    def evaluate(self, inputs: Sequence[Intermediate]) -> Candidates:
        if len(inputs) not in (1, 2):
            raise OperatorError(f"select takes 1 or 2 inputs, got {len(inputs)}")
        view = inputs[0]
        if not isinstance(view, ColumnSlice):
            raise OperatorError(
                f"select input 0 must be a column slice, got {type(view).__name__}"
            )
        if len(inputs) == 2:
            source = inputs[1]
            cands = as_oid_array(source, what="select candidates")
            # A sorted sub-list of a unique list stays unique.
            unique = True if source.unique else None
            dictionary = view.column.dictionary
            # The candidate list is sorted, so the in-slice range is a
            # contiguous run: two binary searches replace the full
            # boolean scan, and the run itself is a zero-copy view.
            start = int(np.searchsorted(cands, view.lo, side="left"))
            stop = int(np.searchsorted(cands, view.hi, side="left"))
            cands = cands[start:stop]
            # Global oids index the base column directly: no local
            # ``cands - view.lo`` offsets.
            mask = self.predicate.mask(view.column.values[cands], dictionary)
            kept = int(np.count_nonzero(mask))
            if kept == len(cands):
                # Every candidate qualified: share the restricted run.
                return Candidates(cands, check_sorted=False, unique=unique)
            if kept > BOOLEAN_COMPACTION_SHARE * len(cands):
                hits = cands[mask]
            else:
                hits = np.compress(mask, cands)
            return Candidates(hits, check_sorted=False, unique=unique)
        mask = self.predicate.mask(view.values, view.column.dictionary)
        # ``flatnonzero`` already allocates a fresh strictly increasing
        # array; offset it in place instead of paying a second
        # allocation for ``.astype(...) + lo``.
        hits = np.flatnonzero(mask)
        if hits.dtype != OID_DTYPE:
            hits = hits.astype(OID_DTYPE)
        if view.lo:
            hits += view.lo
        return Candidates(hits, check_sorted=False, unique=True)

    def work_profile(
        self, inputs: Sequence[Intermediate], output: Intermediate
    ) -> WorkProfile:
        view = inputs[0]
        width = view.dtype.width if isinstance(view, ColumnSlice) else 8
        if len(inputs) == 2:
            # Only candidates inside this slice are evaluated (the rest
            # are skipped by a binary search), so a split slice halves
            # the work -- the property basic mutation relies on.
            oids = inputs[1].oids
            start = int(np.searchsorted(oids, view.lo, side="left"))
            stop = int(np.searchsorted(oids, view.hi, side="left"))
            scanned = stop - start
            return WorkProfile(
                tuples_in=scanned,
                tuples_out=len(output),
                bytes_read=scanned * (width + 8),
                bytes_written=len(output) * 8,
                random_reads=scanned,
            )
        scanned = len(view)
        return WorkProfile(
            tuples_in=scanned,
            tuples_out=len(output),
            bytes_read=scanned * width,
            bytes_written=len(output) * 8,
        )

    def params(self) -> tuple:
        return (self.predicate.cache_key(),)

    def describe(self) -> str:
        return f"select({self.predicate.describe()})"


class CandUnion(Operator):
    """Union of candidate lists (disjunctive predicates, e.g. TPC-H Q19)."""

    kind = "cand_union"

    def evaluate(self, inputs: Sequence[Intermediate]) -> Candidates:
        if not inputs:
            raise OperatorError("cand_union needs at least one input")
        arrays = [as_oid_array(value, what="cand_union input") for value in inputs]
        merged = np.unique(np.concatenate(arrays))
        return Candidates(merged, check_sorted=False, unique=True)

    def work_profile(
        self, inputs: Sequence[Intermediate], output: Intermediate
    ) -> WorkProfile:
        total_in = sum(len(v) for v in inputs)
        return WorkProfile(
            tuples_in=total_in,
            tuples_out=len(output),
            bytes_read=total_in * 8,
            bytes_written=len(output) * 8,
        )


class CandIntersect(Operator):
    """Intersection of candidate lists (conjunction of independent filters)."""

    kind = "cand_intersect"

    def evaluate(self, inputs: Sequence[Intermediate]) -> Candidates:
        if not inputs:
            raise OperatorError("cand_intersect needs at least one input")
        arrays = [as_oid_array(value, what="cand_intersect input") for value in inputs]
        result = arrays[0]
        for arr in arrays[1:]:
            result = np.intersect1d(result, arr, assume_unique=True)
        return Candidates(result, check_sorted=False, unique=True)

    def work_profile(
        self, inputs: Sequence[Intermediate], output: Intermediate
    ) -> WorkProfile:
        total_in = sum(len(v) for v in inputs)
        return WorkProfile(
            tuples_in=total_in,
            tuples_out=len(output),
            bytes_read=total_in * 8,
            bytes_written=len(output) * 8,
        )
