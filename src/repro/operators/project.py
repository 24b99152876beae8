"""Tuple reconstruction (MAL ``algebra.leftfetchjoin``).

``Fetch`` projects values out of a column slice for a set of row ids.
The row ids come either from a candidate list (selection output) or from
the oid tail of a join result.  This is where the paper's partition
*alignment* rules (Section 2.3, Figures 9/10) apply: the row ids must be
covered by the slice, and dynamic partitioning can make them overshoot.
"""

from __future__ import annotations

from typing import Literal, Sequence

import numpy as np

from ..errors import OperatorError
from ..storage.column import BAT, Candidates, ColumnSlice, Intermediate, align_candidates
from .base import Operator, WorkProfile


class Fetch(Operator):
    """Fetch values at given oids from a column slice.

    Inputs: ``[rowids, slice]`` where ``rowids`` is a candidate list (the
    fetched values keep the candidate oids as head) or a BAT of oid pairs
    from a join (values are fetched via the tail oids; the head is kept,
    so downstream operators stay aligned with the probe side).

    ``alignment`` selects the paper's policy: ``"trim"`` adjusts candidate
    boundaries to the slice (Figure 9 dashed lines); ``"strict"`` demands
    exact coverage and raises :class:`AlignmentError` otherwise.
    """

    kind = "fetch"
    partitionable = True

    def __init__(self, alignment: Literal["trim", "strict"] = "trim") -> None:
        super().__init__()
        if alignment not in ("trim", "strict"):
            raise OperatorError(f"unknown alignment policy {alignment!r}")
        self.alignment = alignment

    def evaluate(self, inputs: Sequence[Intermediate]) -> BAT:
        if len(inputs) != 2:
            raise OperatorError(f"fetch takes 2 inputs, got {len(inputs)}")
        rowids, view = inputs
        if not isinstance(view, ColumnSlice):
            raise OperatorError(
                f"fetch input 1 must be a column slice, got {type(view).__name__}"
            )
        if isinstance(rowids, Candidates):
            cands = align_candidates(rowids, view, strict=self.alignment == "strict")
            oids = cands.oids
            n = len(oids)
            if n and cands.unique and int(oids[-1]) - int(oids[0]) + 1 == n:
                # A duplicate-free sorted run whose span equals its
                # length is dense: the gather degenerates to the
                # identity over a contiguous stretch of the base
                # column, so share views of the oid buffer and the
                # base values instead of materializing either.  The
                # uniqueness guarantee matters -- ``[1, 1, 3]`` spans
                # its length too but is not dense.
                lo = int(oids[0])
                values = view.column.values[lo : lo + n]
                return BAT(oids, values, view.dtype, view.column.dictionary)
            values = view.column.values[oids]
            return BAT(oids, values, view.dtype, view.column.dictionary)
        if isinstance(rowids, BAT):
            tail_oids = rowids.tail.astype(np.int64, copy=False)
            if len(tail_oids) and not (
                tail_oids.min() >= view.lo and tail_oids.max() < view.hi
            ):
                if self.alignment == "strict":
                    from ..errors import AlignmentError

                    raise AlignmentError(
                        f"join oids outside slice [{view.lo}, {view.hi}) of "
                        f"column {view.column.name!r}"
                    )
                keep = (tail_oids >= view.lo) & (tail_oids < view.hi)
                rowids = BAT(rowids.head[keep], tail_oids[keep], rowids.dtype)
                tail_oids = rowids.tail
            values = view.column.values[tail_oids]
            return BAT(rowids.head, values, view.dtype, view.column.dictionary)
        raise OperatorError(
            f"fetch input 0 must be candidates or a BAT, got {type(rowids).__name__}"
        )

    def work_profile(
        self, inputs: Sequence[Intermediate], output: Intermediate
    ) -> WorkProfile:
        rowids, view = inputs
        n = len(rowids)
        width = view.dtype.width
        # Gather work follows the *trimmed* count: rowids outside this
        # slice are skipped cheaply, so a split value column halves the
        # random-access work even when the rowid input is shared.
        return WorkProfile(
            tuples_in=n,
            tuples_out=len(output),
            bytes_read=n * 8 + len(output) * width,
            bytes_written=len(output) * (8 + width),
            random_reads=len(output),
        )

    def params(self) -> tuple:
        return (self.alignment,)

    def describe(self) -> str:
        return f"fetch[{self.alignment}]"


class Mirror(Operator):
    """MAL ``bat.mirror``: candidates -> BAT mapping each oid to itself.

    Useful when a join needs to treat selected row ids as join values
    (foreign-key joins over positional keys).
    """

    kind = "mirror"
    partitionable = True

    def evaluate(self, inputs: Sequence[Intermediate]) -> BAT:
        if len(inputs) != 1:
            raise OperatorError(f"mirror takes 1 input, got {len(inputs)}")
        source = inputs[0]
        if isinstance(source, Candidates):
            from ..storage.dtypes import OID

            return BAT(source.oids, source.oids, OID)
        if isinstance(source, ColumnSlice):
            from ..storage.dtypes import OID

            oids = source.oids()
            return BAT(oids, oids, OID)
        raise OperatorError(
            f"mirror input must be candidates or a slice, got {type(source).__name__}"
        )

    def work_profile(
        self, inputs: Sequence[Intermediate], output: Intermediate
    ) -> WorkProfile:
        n = len(output)
        return WorkProfile(tuples_in=n, tuples_out=n, bytes_read=n * 8, bytes_written=n * 16)


class HeadsOf(Operator):
    """Project a BAT's head oids into a candidate list (MAL ``markT``-ish).

    Used after semijoin filtering: the surviving outer oids become the
    candidate list that drives further selections and fetches.
    """

    kind = "heads"
    partitionable = True

    def evaluate(self, inputs: Sequence[Intermediate]) -> Candidates:
        if len(inputs) != 1:
            raise OperatorError(f"heads takes 1 input, got {len(inputs)}")
        bat = inputs[0]
        if not isinstance(bat, BAT):
            raise OperatorError(f"heads input must be a BAT, got {type(bat).__name__}")
        return Candidates(bat.head)

    def work_profile(
        self, inputs: Sequence[Intermediate], output: Intermediate
    ) -> WorkProfile:
        n = len(output)
        return WorkProfile(tuples_in=n, tuples_out=n, bytes_read=n * 8, bytes_written=n * 8)
