"""Operator interface shared by every physical operator.

An operator is a *pure* description of a computation: it owns its
parameters (predicate, aggregate function, ...) but not its inputs --
those are edges of the plan graph.  Two methods matter:

``evaluate(inputs)``
    Compute the real result from real input intermediates (numpy).  This
    is how correctness of mutated plans is established.

``work_profile(inputs, output)``
    Report raw work counters (tuples, bytes, hash-build size, access
    pattern).  The cost model (:mod:`repro.costmodel`) turns these into
    simulated cpu cycles and memory traffic; the engine turns *those* into
    simulated time given machine contention.

``params()`` / ``cache_key()``
    A stable, hashable description of the operator's configuration --
    everything that, together with the input values, determines the
    output.  Plan fingerprints (:meth:`repro.plan.graph.PlanNode.fingerprint`)
    and the cross-run result memoization layer (:mod:`repro.engine.memo`)
    are built on it: two operator instances with equal cache keys fed
    bit-identical inputs produce bit-identical outputs, no matter which
    plan copy or adaptive run they live in.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import OperatorError
from ..storage.column import BAT, Candidates, ColumnSlice, Intermediate, Scalar
from ..storage.dtypes import DataType, OID, OID_DTYPE

_op_counter = itertools.count()


@dataclass(frozen=True)
class WorkProfile:
    """Raw work counters an operator reports for one evaluation.

    * ``tuples_in`` / ``tuples_out`` -- cardinalities seen and produced.
    * ``bytes_read`` / ``bytes_written`` -- sequential memory traffic.
    * ``build_bytes`` -- size of any auxiliary structure probed with a
      random access pattern (hash table); drives the L3-fit effect.
    * ``random_reads`` -- number of random (gather) accesses.
    """

    tuples_in: int = 0
    tuples_out: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    build_bytes: int = 0
    random_reads: int = 0

    def __add__(self, other: "WorkProfile") -> "WorkProfile":
        return WorkProfile(
            tuples_in=self.tuples_in + other.tuples_in,
            tuples_out=self.tuples_out + other.tuples_out,
            bytes_read=self.bytes_read + other.bytes_read,
            bytes_written=self.bytes_written + other.bytes_written,
            build_bytes=max(self.build_bytes, other.build_bytes),
            random_reads=self.random_reads + other.random_reads,
        )


class Operator(ABC):
    """Base class for all physical operators.

    Class attributes:

    * ``kind`` -- short name used by the cost model and plan statistics.
    * ``partitionable`` -- True when basic mutation may clone this
      operator over a split of its partitioned input.
    * ``blocking`` -- True when the operator must see all of its input at
      once (group-by, sort, aggregation); these need the *advanced*
      mutation.
    """

    kind: str = "op"
    partitionable: bool = False
    blocking: bool = False
    #: Cluster placement: the simulated node this operator runs on, or
    #: None for "inherit from the producer" (leaves default to the
    #: coordinator).  Placement is *where* a computation runs, never
    #: *what* it computes, so it is deliberately excluded from
    #: :meth:`params`/:meth:`cache_key` -- memoized values stay shareable
    #: across nodes.  Set as an instance attribute; ``clone`` (a shallow
    #: copy) carries it along with the other instance state.
    placement: int | None = None

    def __init__(self) -> None:
        self.uid = next(_op_counter)

    @abstractmethod
    def evaluate(self, inputs: Sequence[Intermediate]) -> Intermediate:
        """Compute the real output of this operator."""

    @abstractmethod
    def work_profile(
        self, inputs: Sequence[Intermediate], output: Intermediate
    ) -> WorkProfile:
        """Report the work done producing ``output`` from ``inputs``."""

    def clone(self) -> "Operator":
        """A fresh copy with a new uid (used when mutating plans)."""
        import copy

        dup = copy.copy(self)
        dup.uid = next(_op_counter)
        return dup

    def params(self) -> tuple:
        """Hashable parameters that (with the inputs) determine the output.

        Subclasses with configuration (predicate bounds, aggregate
        function, partition range, ...) must override this; the base
        implementation covers parameter-free operators.  The tuple must
        contain only primitives and nested tuples with deterministic
        ``repr``, and must NOT include per-instance identity such as
        ``uid`` -- clones of the same logical operator share one key.
        """
        return ()

    def cache_key(self) -> tuple:
        """Stable identity of this operator's computation.

        Equal cache keys mean: given bit-identical inputs, ``evaluate``
        returns bit-identical outputs and ``work_profile`` identical
        counters.  Used by plan fingerprinting and result memoization.
        """
        return (type(self).__name__, self.kind, *self.params())

    def template_params(self) -> tuple:
        """Like :meth:`params`, but free of process-local identity.

        Result memoization wants identity (two distinct columns must
        never share a key); the cross-process experience store
        (:mod:`repro.learn`) wants the opposite -- the *same query
        template* must hash identically in every process, so operators
        that embed :class:`~repro.storage.column.Column` identity
        override this to describe the column structurally instead.
        """
        return self.params()

    def describe(self) -> str:
        """Short label for plan printing; subclasses add parameters."""
        return self.kind

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} #{self.uid} {self.describe()}>"


def pairs_of(value: Intermediate, *, what: str = "input") -> tuple[np.ndarray, np.ndarray]:
    """View an intermediate as (head oids, tail values).

    Column slices have a dense (virtual) head; BATs carry theirs
    explicitly.  A candidate list is its own head *and* tail (MonetDB's
    ``oid -> oid`` identity view), which lets join/group-by probe sides
    and calc chains consume selection output directly -- no
    materializing ``Fetch`` in between, and no copy here: both arrays
    are the shared read-only oid buffer.
    """
    if isinstance(value, ColumnSlice):
        return value.oids(), value.values
    if isinstance(value, BAT):
        return value.head, value.tail
    if isinstance(value, Candidates):
        return value.oids, value.oids
    raise OperatorError(f"{what} must be a BAT or column slice, got {type(value).__name__}")


def values_of(value: Intermediate, *, what: str = "input") -> np.ndarray:
    """The value (tail) array of a slice or BAT."""
    if isinstance(value, ColumnSlice):
        return value.values
    if isinstance(value, BAT):
        return value.tail
    raise OperatorError(f"{what} must be a BAT or column slice, got {type(value).__name__}")


def dtype_of(value: Intermediate, *, what: str = "input") -> DataType:
    """The value dtype an intermediate carries.

    Candidate lists carry oids, so their value dtype is :data:`OID` --
    consistent with the identity view :func:`pairs_of` gives them.
    """
    if isinstance(value, ColumnSlice):
        return value.column.dtype
    if isinstance(value, BAT):
        return value.dtype
    if isinstance(value, Candidates):
        return OID
    if isinstance(value, Scalar):
        return value.dtype
    raise OperatorError(f"{what} has no dtype: {type(value).__name__}")


def dictionary_of(value: Intermediate) -> tuple[str, ...] | None:
    """The string dictionary travelling with an intermediate, if any."""
    if isinstance(value, ColumnSlice):
        return value.column.dictionary
    if isinstance(value, BAT):
        return value.dictionary
    return None


def input_nbytes(inputs: Sequence[Intermediate]) -> int:
    total = 0
    for value in inputs:
        total += value.nbytes
    return total


def as_oid_array(value: Intermediate, *, what: str = "input") -> np.ndarray:
    """The oid content of a candidate list."""
    if isinstance(value, Candidates):
        return value.oids
    raise OperatorError(
        f"{what} must be a candidate list, got {type(value).__name__}"
    )


def ensure_scalar(value: Intermediate, *, what: str = "input") -> Scalar:
    if isinstance(value, Scalar):
        return value
    raise OperatorError(f"{what} must be a scalar, got {type(value).__name__}")


def dense_head(count: int, start: int = 0) -> np.ndarray:
    return np.arange(start, start + count, dtype=OID_DTYPE)


#: How far the dense-key rule lets a key span exceed the row count, so
#: small inputs over a handful of groups (nine keys, five rows) qualify.
DENSE_KEY_SLACK = 64


def is_int64_exact(dtype: np.dtype) -> bool:
    """Whether every value of ``dtype`` is exactly an int64.

    Signed integers and unsigned ones below 64 bits; ``uint64`` is left
    out because numpy compares it with int64 through float64.
    """
    return dtype.kind == "i" or (dtype.kind == "u" and dtype.itemsize < 8)


def dense_key_range(
    keys: np.ndarray, bounds: tuple[int, int] | None = None
) -> tuple[int, int] | None:
    """``(lo, hi)`` of keys that qualify for direct addressing, else None.

    The dense-key rule used by the join and group-by kernels: non-empty
    :func:`is_int64_exact` keys whose span ``hi - lo + 1`` is at most
    ``len(keys) + DENSE_KEY_SLACK``.  A table indexed by ``key - lo`` is
    then no larger than the input plus the slack.  Keys outside the rule
    (float, wide spans, empty) keep the kernels' sort-based paths.

    ``bounds`` is ``(keys.min(), keys.max())`` when the caller already
    knows it (:func:`full_column_bounds`); otherwise two passes find it.
    """
    if len(keys) == 0 or not is_int64_exact(keys.dtype):
        return None
    lo, hi = bounds if bounds is not None else (int(keys.min()), int(keys.max()))
    if hi - lo + 1 > len(keys) + DENSE_KEY_SLACK:
        return None
    return lo, hi


def full_column_bounds(value: Intermediate) -> tuple[int, int] | None:
    """The base column's :meth:`~repro.storage.column.Column.int_bounds`
    when ``value`` is a slice over the whole column, else None.

    Such a slice's values are the column's, so the dense-key rule can
    take their ``(min, max)`` from the column.  A partial slice keeps
    its own: the rule decides on the values it is given.
    """
    if (
        isinstance(value, ColumnSlice)
        and value.lo == 0
        and value.hi == len(value.column)
    ):
        return value.column.int_bounds()
    return None


def member_mask(
    values: np.ndarray,
    keys: np.ndarray,
    *,
    invert: bool = False,
    bounds: tuple[int, int] | None = None,
) -> np.ndarray:
    """``np.isin(values, keys, invert=invert)``, bit for bit.

    When ``values`` pass the dense-key rule (:func:`dense_key_range`)
    and ``keys`` are :func:`is_int64_exact`, membership is read from a
    bool table over the values' own ``[lo, hi]``: keys outside it are
    dropped once, and every value indexes the table at ``value - lo``
    with no range check.  ``np.isin``'s table method checks both bounds
    of every probe value instead.  Anything else calls ``np.isin``.
    ``bounds``, when known, is ``(values.min(), values.max())``.
    """
    key_range = dense_key_range(values, bounds)
    if key_range is None or not is_int64_exact(keys.dtype):
        return np.isin(values, keys, invert=invert)
    lo, hi = key_range
    table = np.full(hi - lo + 1, invert, dtype=bool)
    keys = keys.astype(np.intp, copy=False)
    table[keys[(keys >= lo) & (keys <= hi)] - lo] = not invert
    if lo == 0:
        return table[values]
    # In intp: ``value - lo`` can overflow a narrow dtype (int8 -50..100).
    return table[np.subtract(values, lo, dtype=np.intp)]
