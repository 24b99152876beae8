"""Columns, slices, and intermediate vectors (the BAT model).

A :class:`Column` stores one attribute of a table as a numpy array whose
index *is* the global row id (oid) space, exactly like a MonetDB BAT with a
dense virtual head.  Operators never copy base data: range partitioning
hands out :class:`ColumnSlice` views (paper Section 2.3, "creating slices
involves marking the boundary ranges ... no data copying involved").

Two intermediate shapes flow between operators:

* :class:`Candidates` -- a sorted oid list, the output of selections and
  the candidate input of further selections/projections (MonetDB's
  candidate lists / ``uselect`` output).
* :class:`BAT` -- (head oids, tail values) pairs: projections, join
  results (oid-oid), calc results, and aggregates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import AlignmentError, StorageError
from .dtypes import DataType, OID_DTYPE, STR

_column_counter = itertools.count()

#: ``Column._bounds`` before the first :meth:`Column.int_bounds` call.
_UNKNOWN = object()


class Column:
    """An immutable base column over the global oid space ``[0, len)``.

    An integer column derives three things from its values on first use
    and keeps them, since the values never change: its
    :meth:`int_bounds`, and two whole-column membership structures that
    :class:`~repro.operators.join.SemiJoin` reads when one of its sides
    is the whole column.  The :meth:`postings` index says which rows hold
    a value (a semi-join probing the column gathers them instead of
    scanning); the :meth:`presence` table says whether a value occurs (a
    semi- or anti-join keyed on the column looks its probe values up in
    it).  Both are indexed by ``value - lo`` over the column's
    ``[lo, hi]``, so they fit dense columns, whose span is about the row
    count: the kernels build them only for columns under the dense-key
    rule (:func:`~repro.operators.base.dense_key_range`).
    """

    __slots__ = (
        "name", "dtype", "values", "dictionary", "uid",
        "_bounds", "_postings", "_presence", "__weakref__",
    )

    def __init__(
        self,
        name: str,
        dtype: DataType,
        values: np.ndarray,
        dictionary: Sequence[str] | None = None,
    ) -> None:
        values = np.asarray(values)
        if values.ndim != 1:
            raise StorageError(f"column {name!r} must be one-dimensional")
        if values.dtype != dtype.numpy_dtype:
            values = values.astype(dtype.numpy_dtype)
        if dtype is STR and dictionary is None:
            raise StorageError(f"string column {name!r} requires a dictionary")
        if dtype is not STR and dictionary is not None:
            raise StorageError(f"non-string column {name!r} cannot have a dictionary")
        self.name = name
        self.dtype = dtype
        self.values = values
        self.values.setflags(write=False)
        self.dictionary: tuple[str, ...] | None = (
            tuple(dictionary) if dictionary is not None else None
        )
        # Process-wide identity token.  Base columns are immutable, so
        # the uid is a sound leaf key for plan fingerprints: two plans
        # scanning the same Column object compute over the same bytes;
        # distinct Column objects (even with equal contents) never share
        # a fingerprint, which keeps memoization stale-free.
        self.uid = next(_column_counter)
        self._bounds: object = _UNKNOWN
        self._postings: object = _UNKNOWN
        self._presence: object = _UNKNOWN

    def int_bounds(self) -> tuple[int, int] | None:
        """``(min, max)`` of an integer column as Python ints; None when
        the column is empty or not integer.

        Computed on first use and kept, since the column is immutable:
        the dense-key kernels read it instead of two passes over a probe
        or build side that spans the whole column.  Racing first calls
        both compute the same pair.
        """
        bounds = self._bounds
        if bounds is _UNKNOWN:
            values = self.values
            if len(values) and values.dtype.kind in "iu":
                bounds = (int(values.min()), int(values.max()))
            else:
                bounds = None
            self._bounds = bounds
        return bounds  # type: ignore[return-value]

    def postings(self) -> tuple[np.ndarray, np.ndarray] | None:
        """``(rows, starts)``, the column's posting index; None when the
        column is empty or not integer.

        ``rows`` holds every row id ordered by value, the rows of one
        value in increasing order (a stable sort), and the rows holding
        value ``v`` are ``rows[starts[v - lo]:starts[v - lo + 1]]``, with
        ``lo`` from :meth:`int_bounds`.  Both arrays are read-only, int32
        when the column has fewer than 2**31 rows and int64 otherwise;
        ``starts`` has one entry per value of ``[lo, hi]`` plus one.

        Built on first use and kept.  Racing first calls both build the
        same index, and one of them is kept.
        """
        postings = self._postings
        if postings is _UNKNOWN:
            bounds = self.int_bounds()
            if bounds is None:
                postings = None
            else:
                lo, hi = bounds
                offsets = np.subtract(self.values, lo, dtype=np.intp)
                index = np.int32 if len(offsets) < 2**31 else np.int64
                rows = np.argsort(offsets, kind="stable").astype(index)
                starts = np.zeros(hi - lo + 2, dtype=index)
                np.cumsum(np.bincount(offsets, minlength=hi - lo + 1), out=starts[1:])
                rows.setflags(write=False)
                starts.setflags(write=False)
                postings = (rows, starts)
            self._postings = postings
        return postings  # type: ignore[return-value]

    def presence(self) -> np.ndarray | None:
        """A read-only bool table over the column's ``[lo, hi]`` whose
        entry ``v - lo`` says whether value ``v`` occurs in the column;
        None when the column is empty or not integer.

        Built on first use and kept, like :meth:`postings`.
        """
        table = self._presence
        if table is _UNKNOWN:
            bounds = self.int_bounds()
            if bounds is None:
                table = None
            else:
                lo, hi = bounds
                table = np.zeros(hi - lo + 1, dtype=bool)
                table[np.subtract(self.values, lo, dtype=np.intp)] = True
                table.setflags(write=False)
            self._presence = table
        return table  # type: ignore[return-value]

    def cache_key(self) -> tuple:
        """Leaf key used by plan fingerprinting (identity, not content)."""
        return (self.uid, self.name, len(self.values))

    @classmethod
    def from_strings(cls, name: str, strings: Sequence[str]) -> "Column":
        """Dictionary-encode ``strings`` into a :data:`STR` column."""
        dictionary, codes = np.unique(np.asarray(strings, dtype=object), return_inverse=True)
        return cls(name, STR, codes.astype(STR.numpy_dtype), dictionary=list(dictionary))

    def __len__(self) -> int:
        return len(self.values)

    @property
    def nbytes(self) -> int:
        return len(self.values) * self.dtype.width

    def full_slice(self) -> "ColumnSlice":
        return ColumnSlice(self, 0, len(self.values))

    def slice(self, lo: int, hi: int) -> "ColumnSlice":
        return ColumnSlice(self, lo, hi)

    def decode(self, codes: np.ndarray) -> list[str]:
        """Map dictionary codes back to strings (string columns only)."""
        if self.dictionary is None:
            raise StorageError(f"column {self.name!r} is not dictionary-encoded")
        return [self.dictionary[int(c)] for c in codes]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Column({self.name!r}, {self.dtype.name}, n={len(self)})"


class ColumnSlice:
    """A zero-copy view of a column restricted to oids ``[lo, hi)``."""

    __slots__ = ("column", "lo", "hi", "_oids", "__weakref__")

    def __init__(self, column: Column, lo: int, hi: int) -> None:
        if not 0 <= lo <= hi <= len(column):
            raise StorageError(
                f"slice [{lo}, {hi}) out of bounds for column "
                f"{column.name!r} of length {len(column)}"
            )
        self.column = column
        self.lo = int(lo)
        self.hi = int(hi)
        self._oids: np.ndarray | None = None

    def __len__(self) -> int:
        return self.hi - self.lo

    @property
    def values(self) -> np.ndarray:
        return self.column.values[self.lo : self.hi]

    @property
    def dtype(self) -> DataType:
        return self.column.dtype

    @property
    def nbytes(self) -> int:
        return len(self) * self.column.dtype.width

    def oids(self) -> np.ndarray:
        """The (dense) global oids covered by this slice.

        The array is materialized once and cached (read-only), so
        repeated projections over the same pass-through slice share one
        buffer instead of re-running ``np.arange``.  The lazy build is
        idempotent, so the unlocked benign race under the evaluation
        pool at worst builds the array twice.
        """
        oids = self._oids
        if oids is None:
            oids = np.arange(self.lo, self.hi, dtype=OID_DTYPE)
            oids.setflags(write=False)
            self._oids = oids
        return oids

    def split(self, at: int | None = None) -> tuple["ColumnSlice", "ColumnSlice"]:
        """Split into two adjacent sub-slices at ``at`` (default midpoint).

        Boundaries stay aligned on the base column (paper Figure 8).
        """
        if at is None:
            at = self.lo + len(self) // 2
        if not self.lo <= at <= self.hi:
            raise StorageError(f"split point {at} outside [{self.lo}, {self.hi})")
        return ColumnSlice(self.column, self.lo, at), ColumnSlice(self.column, at, self.hi)

    def covers(self, oids: np.ndarray) -> bool:
        """True when every oid falls inside ``[lo, hi)``."""
        if len(oids) == 0:
            return True
        return bool(oids[0] >= self.lo and oids[-1] < self.hi)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ColumnSlice({self.column.name!r}, [{self.lo}, {self.hi}))"


class Candidates:
    """A sorted list of qualifying global oids (a candidate list).

    ``unique`` tracks whether the oids are known to be *strictly*
    increasing: ``True`` when proven (selections over base oids,
    ``np.unique`` outputs, sub-ranges of unique lists), ``False`` when
    duplicates were observed, ``None`` when unknown.  The zero-copy
    projection fast path needs the guarantee: a dense-looking run
    (``last - first + 1 == len``) only implies contiguity when the list
    is duplicate-free.
    """

    __slots__ = ("oids", "unique", "__weakref__")

    def __init__(
        self,
        oids: np.ndarray,
        *,
        check_sorted: bool = True,
        unique: bool | None = None,
    ) -> None:
        oids = np.asarray(oids, dtype=OID_DTYPE)
        if check_sorted and len(oids) > 1:
            if not np.all(oids[1:] >= oids[:-1]):
                raise StorageError("candidate oids must be sorted")
            if unique is None:
                unique = bool(np.all(oids[1:] > oids[:-1]))
        if unique is None and len(oids) <= 1:
            unique = True
        self.oids = oids
        self.oids.setflags(write=False)
        self.unique = unique

    def __len__(self) -> int:
        return len(self.oids)

    @property
    def nbytes(self) -> int:
        return len(self.oids) * 8

    def restrict(self, lo: int, hi: int) -> "Candidates":
        """Candidates falling inside ``[lo, hi)`` -- cheap (binary search)."""
        start = int(np.searchsorted(self.oids, lo, side="left"))
        stop = int(np.searchsorted(self.oids, hi, side="left"))
        # Only the positive guarantee survives slicing: a sub-range of a
        # duplicate-bearing list may itself be duplicate-free.
        return Candidates(
            self.oids[start:stop],
            check_sorted=False,
            unique=True if self.unique else None,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Candidates(n={len(self)})"


class BAT:
    """An intermediate (head oids, tail values) pair.

    ``head`` is always global oids; ``tail`` holds values (or oids for
    join results).  ``dictionary`` travels along for string tails.
    """

    __slots__ = ("head", "tail", "dtype", "dictionary", "__weakref__")

    def __init__(
        self,
        head: np.ndarray,
        tail: np.ndarray,
        dtype: DataType,
        dictionary: tuple[str, ...] | None = None,
    ) -> None:
        head = np.asarray(head, dtype=OID_DTYPE)
        tail = np.asarray(tail)
        if head.shape != tail.shape:
            raise StorageError(
                f"BAT head/tail length mismatch: {head.shape} vs {tail.shape}"
            )
        if tail.dtype != dtype.numpy_dtype:
            tail = tail.astype(dtype.numpy_dtype)
        self.head = head
        self.tail = tail
        self.dtype = dtype
        self.dictionary = dictionary

    def __len__(self) -> int:
        return len(self.head)

    @property
    def nbytes(self) -> int:
        return len(self.head) * (8 + self.dtype.width)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BAT(n={len(self)}, dtype={self.dtype.name})"


@dataclass(frozen=True)
class Scalar:
    """A single aggregate value (e.g. the result of a total sum)."""

    value: float | int
    dtype: DataType

    @property
    def nbytes(self) -> int:
        return self.dtype.width

    def __len__(self) -> int:
        return 1


#: Anything an operator may produce.
Intermediate = Candidates | BAT | Scalar | ColumnSlice


def intermediate_nbytes(value: Intermediate) -> int:
    """Byte size of an intermediate, for cost accounting."""
    return value.nbytes


def align_candidates(
    cands: Candidates, view: ColumnSlice, *, strict: bool = False
) -> Candidates:
    """Resolve boundary misalignment between a candidate list and a slice.

    Dynamic partitioning creates variable-sized slices, so a candidate list
    produced against one partitioning may over- or undershoot the slice of
    the column being projected (paper Figures 9 and 10).  The paper's fix is
    to *trim* the candidate boundaries to the slice boundaries; with
    ``strict=True`` misalignment raises :class:`AlignmentError` instead
    (useful to prove fixed-size partitions never misalign, Figure 9A).
    """
    if view.covers(cands.oids):
        return cands
    if strict:
        lo = int(cands.oids[0]) if len(cands) else view.lo
        hi = int(cands.oids[-1]) + 1 if len(cands) else view.hi
        raise AlignmentError(
            f"candidates [{lo}, {hi}) not covered by slice "
            f"[{view.lo}, {view.hi}) of column {view.column.name!r}"
        )
    return cands.restrict(view.lo, view.hi)
