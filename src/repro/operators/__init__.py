"""Physical relational operators over the BAT storage model."""

from .aggregate import Aggregate
from .base import Operator, WorkProfile, member_mask
from .calc import Calc
from .exchange import Pack
from .groupby import AGG_FUNCS, AggrMerge, GroupAggregate, merge_func_for
from .join import Join, SemiJoin, hash_join_pairs
from .literal import Literal
from .netexchange import Exchange, Gather, Shuffle
from .project import Fetch, HeadsOf, Mirror
from .scan import Scan
from .select import (
    CandIntersect,
    CandUnion,
    EqualsPredicate,
    InPredicate,
    LikePredicate,
    Predicate,
    RangePredicate,
    Select,
)
from .slice import (
    FRACTION_UNITS,
    PartitionSlice,
    ValuePartition,
    equal_partitions,
    value_partition_bounds,
)
from .sort import Sort, TailFilter, TopN

__all__ = [
    "AGG_FUNCS",
    "Aggregate",
    "AggrMerge",
    "Calc",
    "CandIntersect",
    "CandUnion",
    "EqualsPredicate",
    "Exchange",
    "Fetch",
    "Gather",
    "GroupAggregate",
    "HeadsOf",
    "InPredicate",
    "Join",
    "FRACTION_UNITS",
    "LikePredicate",
    "Literal",
    "Mirror",
    "Operator",
    "Pack",
    "PartitionSlice",
    "Predicate",
    "RangePredicate",
    "Scan",
    "Select",
    "SemiJoin",
    "Shuffle",
    "Sort",
    "TailFilter",
    "TopN",
    "ValuePartition",
    "WorkProfile",
    "equal_partitions",
    "value_partition_bounds",
    "hash_join_pairs",
    "member_mask",
    "merge_func_for",
]
