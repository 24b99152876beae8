"""Translate parsed SQL into serial physical plans.

The planning strategy is the classic column-store pattern the paper's
MAL plans exhibit (see Figure 7):

1. pick the **fact** table (the largest one referenced) as the stream
   the query is driven from;
2. apply local predicates as a selection chain producing a candidate
   list over the fact table;
3. apply every filtering dimension as a **semijoin reduction**: fetch the
   fact's foreign key under the current candidates, semijoin it against
   the (recursively reduced) dimension keys, and keep the surviving
   heads as the new candidate list;
4. reconstruct tuples (``Fetch``) for every needed column -- dimension
   columns travel through lookup ``Join`` maps along the join tree;
5. aggregate (grouped or scalar), order, and limit.

All joins must be equi-joins forming a tree rooted at the fact table
(star/snowflake shapes -- which covers the TPC-H/TPC-DS subset the paper
evaluates).  Every produced plan is serial; parallelism is added later by
the adaptive or heuristic parallelizers.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SqlPlanError
from ..operators.aggregate import Aggregate
from ..operators.calc import Calc
from ..operators.groupby import GroupAggregate
from ..operators.join import Join, SemiJoin
from ..operators.literal import Literal
from ..operators.project import Fetch, HeadsOf
from ..operators.scan import Scan
from ..operators.select import (
    CandUnion,
    EqualsPredicate,
    InPredicate,
    LikePredicate,
    RangePredicate,
    Select,
)
from ..operators.sort import Sort, TailFilter, TopN
from ..plan.graph import Plan, PlanNode
from ..plan.validate import validate_plan
from ..storage.catalog import Catalog
from .ast import (
    AggExpr,
    HavingCondition,
    And,
    Between,
    BinaryExpr,
    ColumnRef,
    Comparison,
    Condition,
    Expr,
    InList,
    InSubquery,
    JoinCondition,
    Like,
    NumberLit,
    Or,
    SelectStatement,
)
from .lexer import Token, tokenize, tokens_key
from .parser import parse


def plan_sql(text: str, catalog: Catalog, tokens: list[Token] | None = None) -> Plan:
    """Parse and plan a SQL string against ``catalog``; ``tokens`` as
    for :func:`~repro.sql.parser.parse`."""
    return SqlPlanner(catalog).plan(parse(text, tokens))


class PlanCache:
    """Statement-text plan cache for query-serving workloads.

    A SQL service sees the same statement texts over and over (every
    loadgen tenant hammers a small mix); parsing and planning them anew
    per request is pure waste.  The cache memoizes the *serial plan
    template* per :func:`~repro.sql.lexer.statement_key`: statements
    that differ only in whitespace between tokens or in the case of
    keywords and identifiers share an entry, while string literals are
    compared verbatim.  :meth:`template` hands out the shared template
    itself, which is what execution wants: the simulator never mutates a
    submitted plan, so concurrent submissions of one statement share it
    -- exactly the template discipline
    :class:`~repro.concurrency.client.ClientSpec` uses.  :meth:`plan`
    returns a private :meth:`~repro.plan.graph.Plan.copy` for callers
    that mean to mutate it (an adaptive optimization, say).

    Planning errors are **not** cached: a typo'd statement costs its
    author a re-parse, and a catalog fixed between requests is picked
    up immediately.  Eviction is LRU by statement count.
    """

    def __init__(self, catalog: Catalog, *, capacity: int = 256) -> None:
        if capacity < 1:
            raise SqlPlanError("plan cache capacity must be >= 1")
        self.catalog = catalog
        self.capacity = capacity
        self._plans: dict[str, Plan] = {}
        self.hits = 0
        self.misses = 0

    def plan(self, text: str) -> Plan:
        """A fresh, mutable copy of the (possibly cached) plan for ``text``."""
        return self.template(text).copy()

    def template(self, text: str) -> Plan:
        """The shared cached template itself (callers must not mutate it;
        submitting it to a simulator is fine)."""
        tokens = tokenize(text)
        key = tokens_key(tokens)
        cached = self._plans.get(key)
        if cached is not None:
            self.hits += 1
            # Refresh LRU position.
            del self._plans[key]
            self._plans[key] = cached
            return cached
        self.misses += 1
        template = plan_sql(text, self.catalog, tokens)
        while len(self._plans) >= self.capacity:
            self._plans.pop(next(iter(self._plans)))
        self._plans[key] = template
        return template

    def __len__(self) -> int:
        return len(self._plans)

    def stats(self) -> dict:
        return {
            "entries": len(self._plans),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
        }


@dataclass(frozen=True)
class _JoinEdge:
    """A join-tree edge: ``parent.fk = child.pk``."""

    parent: str
    parent_col: str
    child: str
    child_col: str


class SqlPlanner:
    """Stateless planner; one :meth:`plan` call per statement."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog

    # ------------------------------------------------------------------
    def plan(self, stmt: SelectStatement) -> Plan:
        ctx = _QueryContext(self, stmt)
        plan = ctx.build()
        # Fail fast: a structurally broken translation should surface as
        # a planner bug here, not as a scheduler error mid-execution.
        validate_plan(plan)
        return plan


class _QueryContext:
    """Mutable state while planning one statement."""

    def __init__(self, planner: SqlPlanner, stmt: SelectStatement) -> None:
        self.catalog = planner.catalog
        self.stmt = stmt
        self.plan_obj = Plan()
        self.tables = list(stmt.tables)
        for name in self.tables:
            if not self.catalog.has_table(name):
                raise SqlPlanError(f"unknown table {name!r}")
        self.column_owner = self._build_column_index()
        joins, filters = self._split_where(stmt.where)
        self.fact = max(self.tables, key=lambda t: len(self.catalog.table(t)))
        self.edges = self._build_join_tree(joins)
        self.filter_tree = filters
        # Per-table local predicates pulled from the top-level AND.
        self.local_preds: dict[str, list[Condition]] = {t: [] for t in self.tables}
        self.fact_conditions: list[Condition] = []
        self._distribute_filters()
        self._scan_cache: dict[tuple[str, str], PlanNode] = {}
        self._join_map_cache: dict[str, PlanNode] = {}
        self._table_cands: dict[str, PlanNode | None] = {}

    # -- schema helpers --------------------------------------------------
    def _build_column_index(self) -> dict[str, str]:
        owner: dict[str, str] = {}
        for table_name in self.tables:
            for col in self.catalog.table(table_name).column_names:
                if col in owner:
                    raise SqlPlanError(
                        f"ambiguous column {col!r} (in {owner[col]!r} and "
                        f"{table_name!r}); qualify it"
                    )
                owner[col] = table_name
        return owner

    def _owner(self, ref: ColumnRef) -> str:
        if ref.table is not None:
            if ref.table not in self.tables:
                raise SqlPlanError(f"unknown table {ref.table!r} in {ref}")
            if not self.catalog.table(ref.table).has_column(ref.name):
                raise SqlPlanError(f"no column {ref.name!r} in table {ref.table!r}")
            return ref.table
        if ref.name not in self.column_owner:
            raise SqlPlanError(f"unknown column {ref.name!r}")
        return self.column_owner[ref.name]

    def scan(self, table: str, column: str) -> PlanNode:
        key = (table, column)
        if key not in self._scan_cache:
            col = self.catalog.column(table, column)
            self._scan_cache[key] = PlanNode(Scan(col), label=f"{table}.{column}")
        return self._scan_cache[key]

    # -- WHERE decomposition ----------------------------------------------
    def _split_where(
        self, where: Condition | None
    ) -> tuple[list[JoinCondition], list[Condition]]:
        joins: list[JoinCondition] = []
        filters: list[Condition] = []
        if where is None:
            return joins, filters
        parts = list(where.parts) if isinstance(where, And) else [where]
        for part in parts:
            if isinstance(part, JoinCondition):
                joins.append(part)
            else:
                filters.append(part)
        return joins, filters

    def _build_join_tree(self, joins: list[JoinCondition]) -> dict[str, list[_JoinEdge]]:
        """Orient join conditions into a tree rooted at the fact table."""
        adjacency: dict[str, list[tuple[str, str, str]]] = {t: [] for t in self.tables}
        for jc in joins:
            lt, rt = self._owner(jc.left), self._owner(jc.right)
            if lt == rt:
                raise SqlPlanError(f"self-join condition unsupported: {jc}")
            self._check_comparable(jc.left, self, jc.right)
            adjacency[lt].append((rt, jc.left.name, jc.right.name))
            adjacency[rt].append((lt, jc.right.name, jc.left.name))
        edges: dict[str, list[_JoinEdge]] = {t: [] for t in self.tables}
        seen = {self.fact}
        frontier = [self.fact]
        while frontier:
            parent = frontier.pop(0)
            for child, parent_col, child_col in adjacency[parent]:
                if child in seen:
                    continue
                seen.add(child)
                edges[parent].append(_JoinEdge(parent, parent_col, child, child_col))
                frontier.append(child)
        unreachable = set(self.tables) - seen
        if unreachable:
            raise SqlPlanError(
                f"tables {sorted(unreachable)} are not connected to "
                f"{self.fact!r} by join conditions (cross products are "
                "unsupported)"
            )
        return edges

    def _tables_of_condition(self, cond: Condition) -> set[str]:
        if isinstance(cond, (Comparison, Between, Like, InList, InSubquery)):
            return {self._owner(cond.column)}
        if isinstance(cond, (And, Or)):
            out: set[str] = set()
            for part in cond.parts:
                out |= self._tables_of_condition(part)
            return out
        if isinstance(cond, JoinCondition):
            raise SqlPlanError("join conditions may not appear under OR/nested AND")
        raise SqlPlanError(f"unsupported condition {cond!r}")

    def _distribute_filters(self) -> None:
        for cond in self.filter_tree:
            tables = self._tables_of_condition(cond)
            if isinstance(cond, InSubquery) or len(tables) > 1 or tables == {self.fact}:
                # Subqueries, multi-table ORs, and fact predicates are
                # planned on the fact stream.
                self.fact_conditions.append(cond)
            else:
                (table,) = tables
                self.local_preds[table].append(cond)

    # -- candidate computation ---------------------------------------------
    def _predicate_of(self, cond: Condition):
        if isinstance(cond, Comparison):
            if cond.op == "=":
                return EqualsPredicate(cond.value)
            if cond.op == "<>":
                return EqualsPredicate(cond.value, negate=True)
            if cond.op == "<":
                return RangePredicate(hi=cond.value, hi_inclusive=False)
            if cond.op == "<=":
                return RangePredicate(hi=cond.value)
            if cond.op == ">":
                return RangePredicate(lo=cond.value, lo_inclusive=False)
            if cond.op == ">=":
                return RangePredicate(lo=cond.value)
            raise SqlPlanError(f"unsupported comparison operator {cond.op!r}")
        if isinstance(cond, Between):
            return RangePredicate(lo=cond.lo, hi=cond.hi)
        if isinstance(cond, Like):
            return LikePredicate(cond.pattern, negate=cond.negate)
        if isinstance(cond, InList):
            return InPredicate(cond.values, negate=cond.negate)
        raise SqlPlanError(f"condition {cond!r} is not a simple predicate")

    def _is_string(self, ref: ColumnRef) -> bool:
        """Whether ``ref`` names a dictionary-encoded (string) column."""
        return self.catalog.column(self._owner(ref), ref.name).dictionary is not None

    def _check_literals(self, cond: Condition) -> None:
        """The literal-type rule (docs/sql.md): numbers only against
        numeric columns; a string column takes only string ``=``,
        ``<>``, ``IN`` and ``LIKE``.  Checked here because the kernels
        would compare dictionary codes instead."""
        ref = cond.column
        if isinstance(cond, Like):
            if not self._is_string(ref):
                raise SqlPlanError(f"LIKE needs a string column; {ref} is numeric")
            return
        if isinstance(cond, Between):
            literals: tuple = (cond.lo, cond.hi)
        elif isinstance(cond, InList):
            literals = cond.values
        else:
            literals = (cond.value,)
        strings = [isinstance(value, str) for value in literals]
        if not self._is_string(ref):
            if any(strings):
                raise SqlPlanError(f"string literal compared with numeric column {ref}")
            return
        equality = isinstance(cond, InList) or (
            isinstance(cond, Comparison) and cond.op in ("=", "<>")
        )
        if not equality:
            raise SqlPlanError(f"string column {ref} takes only =, <>, IN and LIKE")
        if not all(strings):
            raise SqlPlanError(f"number compared with string column {ref}")

    def _check_comparable(
        self, ref: ColumnRef, other_ctx: _QueryContext, other: ColumnRef
    ) -> None:
        """The column-comparison rule (docs/sql.md): ``ref`` and
        ``other`` (a column of ``other_ctx``) compare only when both are
        numeric, or both are strings over equal dictionaries; otherwise
        the kernels would compare dictionary codes."""
        mine = self.catalog.column(self._owner(ref), ref.name).dictionary
        theirs = other_ctx.catalog.column(
            other_ctx._owner(other), other.name
        ).dictionary
        if mine is None and theirs is None:
            return
        if mine is None or theirs is None:
            raise SqlPlanError(
                f"string column compared with numeric column: {ref} and {other}"
            )
        if mine != theirs:
            raise SqlPlanError(
                f"string columns {ref} and {other} have different dictionaries"
            )

    def _check_operands(self, expr: BinaryExpr) -> None:
        """Arithmetic reads numbers: a string column's codes are not."""
        for side in (expr.left, expr.right):
            if isinstance(side, ColumnRef) and self._is_string(side):
                raise SqlPlanError(f"arithmetic on string column {side}")

    def _apply_simple(
        self, table: str, cond: Condition, cands: PlanNode | None
    ) -> PlanNode:
        self._check_literals(cond)
        scan = self.scan(table, cond.column.name)
        predicate = self._predicate_of(cond)
        inputs = [scan] if cands is None else [scan, cands]
        return PlanNode(Select(predicate), inputs)

    def reduced_candidates(self, table: str) -> PlanNode | None:
        """Candidates of ``table`` after its own predicates and the
        semijoin reductions of its (recursively reduced) dimensions.
        ``None`` means the full table qualifies."""
        if table in self._table_cands:
            return self._table_cands[table]
        cands: PlanNode | None = None
        for cond in self.local_preds[table]:
            cands = self._plan_condition(table, cond, cands)
        for edge in self.edges[table]:
            child_cands = self.reduced_candidates(edge.child)
            if child_cands is not None:
                cands = self._semijoin_reduce(edge, cands, child_cands)
        self._table_cands[table] = cands
        return cands

    def _plan_condition(
        self, table: str, cond: Condition, cands: PlanNode | None
    ) -> PlanNode:
        if isinstance(cond, (Comparison, Between, Like, InList)):
            owner = self._owner(cond.column)
            if owner != table:
                raise SqlPlanError(
                    f"predicate on {owner!r} cannot filter {table!r} directly"
                )
            return self._apply_simple(table, cond, cands)
        if isinstance(cond, And):
            for part in cond.parts:
                cands = self._plan_branch_part(table, part, cands)
            if cands is None:
                raise SqlPlanError("empty AND condition")
            return cands
        if isinstance(cond, Or):
            branches = [self._plan_branch(table, part, cands) for part in cond.parts]
            return PlanNode(CandUnion(), branches)
        if isinstance(cond, InSubquery):
            return self._plan_in_subquery(table, cond, cands)
        raise SqlPlanError(f"unsupported condition {cond!r}")

    def _plan_branch(
        self, table: str, cond: Condition, cands: PlanNode | None
    ) -> PlanNode:
        """One OR branch: a condition (possibly an AND over the fact table
        and its direct dimensions) evaluated against shared candidates."""
        parts = list(cond.parts) if isinstance(cond, And) else [cond]
        out = cands
        for part in parts:
            out = self._plan_branch_part(table, part, out)
        if out is None:
            raise SqlPlanError("OR branch filtered nothing")
        return out

    def _plan_branch_part(
        self, table: str, cond: Condition, cands: PlanNode | None
    ) -> PlanNode:
        if isinstance(cond, (Or, InSubquery)):
            return self._plan_condition(table, cond, cands)
        tables = self._tables_of_condition(cond)
        if tables == {table}:
            return self._plan_condition(table, cond, cands)
        if len(tables) != 1:
            raise SqlPlanError(
                "a single predicate may reference only one table; got "
                f"{sorted(tables)}"
            )
        (dim,) = tables
        edge = self._edge_to(table, dim)
        dim_cands = self._plan_condition(dim, cond, None)
        return self._semijoin_reduce(edge, cands, dim_cands)

    def _edge_to(self, parent: str, child: str) -> _JoinEdge:
        for edge in self.edges[parent]:
            if edge.child == child:
                return edge
        raise SqlPlanError(
            f"table {child!r} is not joined directly to {parent!r}; "
            "predicates under OR may only touch directly joined dimensions"
        )

    def _semijoin_reduce(
        self, edge: _JoinEdge, cands: PlanNode | None, child_cands: PlanNode | None
    ) -> PlanNode:
        outer = self._keys_node(edge.parent, edge.parent_col, cands)
        inner = self._keys_node(edge.child, edge.child_col, child_cands)
        semi = PlanNode(SemiJoin(), [outer, inner])
        return PlanNode(HeadsOf(), [semi])

    def _keys_node(
        self, table: str, column: str, cands: PlanNode | None
    ) -> PlanNode:
        scan = self.scan(table, column)
        if cands is None:
            return scan
        return PlanNode(Fetch(), [cands, scan])

    def _plan_in_subquery(
        self, table: str, cond: InSubquery, cands: PlanNode | None
    ) -> PlanNode:
        owner = self._owner(cond.column)
        if owner != table:
            raise SqlPlanError(
                f"IN-subquery on {owner!r} must filter the fact stream"
            )
        sub = cond.subquery
        if len(sub.items) != 1 or not isinstance(sub.items[0].expr, ColumnRef):
            raise SqlPlanError("subquery must select exactly one plain column")
        sub_ctx = _QueryContext(SqlPlanner(self.catalog), sub)
        sub_col = sub.items[0].expr
        self._check_comparable(cond.column, sub_ctx, sub_col)
        sub_cands = sub_ctx.fact_candidates()
        inner = sub_ctx._keys_node(
            sub_ctx._owner(sub_col), sub_col.name, sub_cands
        )
        outer = self._keys_node(table, cond.column.name, cands)
        semi = PlanNode(SemiJoin(negate=cond.negate), [outer, inner])
        return PlanNode(HeadsOf(), [semi])

    # -- tuple reconstruction ----------------------------------------------
    def _join_map(self, table: str, cands: PlanNode | None) -> PlanNode:
        """A BAT mapping fact oids -> ``table`` oids via the join tree."""
        if table == self.fact:
            raise SqlPlanError("the fact table needs no join map")
        if table in self._join_map_cache:
            return self._join_map_cache[table]
        path = self._path_to(table)
        current: PlanNode | None = None
        for edge in path:
            if current is None:
                outer = self._keys_node(self.fact, edge.parent_col, cands)
            else:
                outer = PlanNode(
                    Fetch(), [current, self.scan(edge.parent, edge.parent_col)]
                )
            inner = self.scan(edge.child, edge.child_col)
            current = PlanNode(Join(), [outer, inner])
        assert current is not None
        self._join_map_cache[table] = current
        return current

    def _path_to(self, target: str) -> list[_JoinEdge]:
        def dfs(table: str, trail: list[_JoinEdge]) -> list[_JoinEdge] | None:
            if table == target:
                return trail
            for edge in self.edges[table]:
                found = dfs(edge.child, trail + [edge])
                if found is not None:
                    return found
            return None

        path = dfs(self.fact, [])
        if path is None:
            raise SqlPlanError(f"no join path from {self.fact!r} to {target!r}")
        return path

    def value_node(self, ref: ColumnRef, cands: PlanNode | None) -> PlanNode:
        """A BAT of ``ref`` values aligned with the fact stream."""
        owner = self._owner(ref)
        if owner == self.fact:
            if cands is None:
                return self.scan(owner, ref.name)
            return PlanNode(Fetch(), [cands, self.scan(owner, ref.name)])
        join_map = self._join_map(owner, cands)
        return PlanNode(Fetch(), [join_map, self.scan(owner, ref.name)])

    # -- expressions ---------------------------------------------------------
    def expr_node(self, expr: Expr, cands: PlanNode | None) -> PlanNode:
        if isinstance(expr, NumberLit):
            return PlanNode(Literal(expr.value))
        if isinstance(expr, ColumnRef):
            return self.value_node(expr, cands)
        if isinstance(expr, BinaryExpr):
            self._check_operands(expr)
            left = self.expr_node(expr.left, cands)
            right = self.expr_node(expr.right, cands)
            return PlanNode(Calc(expr.op), [left, right])
        if isinstance(expr, AggExpr):
            raise SqlPlanError("aggregates cannot be nested inside expressions here")
        raise SqlPlanError(f"unsupported expression {expr!r}")

    def _agg_node(
        self,
        agg: AggExpr,
        cands: PlanNode | None,
        keys: PlanNode | None,
    ) -> PlanNode:
        if (
            agg.func != "count"
            and isinstance(agg.arg, ColumnRef)
            and self._is_string(agg.arg)
        ):
            raise SqlPlanError(
                f"{agg.func.upper()} of string column {agg.arg}; only COUNT "
                "aggregates a string column"
            )
        if agg.func == "avg":
            total = self._agg_node(AggExpr("sum", agg.arg), cands, keys)
            count = self._agg_node(AggExpr("count", agg.arg), cands, keys)
            return PlanNode(Calc("/"), [total, count])
        if keys is None:
            if agg.func == "count":
                source = (
                    self._count_source(cands)
                    if agg.arg is None
                    else self.expr_node(agg.arg, cands)
                )
                return PlanNode(Aggregate("count"), [source])
            return PlanNode(Aggregate(agg.func), [self.expr_node(agg.arg, cands)])
        if agg.func == "count":
            return PlanNode(GroupAggregate("count"), [keys])
        values = self.expr_node(agg.arg, cands)
        return PlanNode(GroupAggregate(agg.func), [keys, values])

    def _count_source(self, cands: PlanNode | None) -> PlanNode:
        if cands is not None:
            return cands
        # COUNT(*) without any filter: count a (cheap) narrow column.
        table = self.catalog.table(self.fact)
        name = table.column_names[0]
        return self.scan(self.fact, name)

    # -- top level -------------------------------------------------------
    def fact_candidates(self) -> PlanNode | None:
        """The fact stream after every filter (local predicates, semijoin
        reductions, subqueries, multi-table ORs)."""
        cands = self.reduced_candidates(self.fact)
        for cond in self.fact_conditions:
            cands = self._plan_condition(self.fact, cond, cands)
        return cands

    def build(self) -> Plan:
        cands = self.fact_candidates()

        stmt = self.stmt
        if stmt.distinct:
            return self._build_distinct(cands)
        keys = None
        if stmt.group_by is not None:
            keys = self.value_node(stmt.group_by, cands)

        has_aggs = any(_contains_agg(item.expr) for item in stmt.items)
        if not has_aggs and stmt.group_by is not None:
            raise SqlPlanError("GROUP BY requires aggregate select items")
        if stmt.having and stmt.group_by is None:
            raise SqlPlanError("HAVING requires GROUP BY")

        outputs: list[PlanNode] = []
        output_exprs: list[Expr] = []
        for item in stmt.items:
            if stmt.group_by is not None and item.expr == stmt.group_by:
                continue  # the group key is the head of every grouped BAT
            node = self._item_node(item.expr, cands, keys)
            node.label = item.alias if item.alias else str(item.expr)
            outputs.append(node)
            output_exprs.append(item.expr)

        outputs = self._apply_having(outputs, output_exprs)
        outputs = self._apply_order_limit(outputs, output_exprs)
        self.plan_obj.set_outputs(outputs)
        return self.plan_obj

    def _build_distinct(self, cands: PlanNode | None) -> Plan:
        """``SELECT DISTINCT col`` as a grouped count over the column.

        The output BAT's head holds the distinct values (its tail, the
        per-value multiplicities, comes along for free).
        """
        stmt = self.stmt
        if len(stmt.items) != 1 or not isinstance(stmt.items[0].expr, ColumnRef):
            raise SqlPlanError("DISTINCT supports exactly one plain column")
        if stmt.group_by is not None or stmt.having:
            raise SqlPlanError("DISTINCT cannot be combined with GROUP BY/HAVING")
        ref = stmt.items[0].expr
        keys = self.value_node(ref, cands)
        node = PlanNode(GroupAggregate("count"), [keys])
        node.label = stmt.items[0].alias or f"distinct {ref}"
        outputs = [node]
        if stmt.limit is not None:
            outputs = [PlanNode(TopN(stmt.limit), [node])]
        self.plan_obj.set_outputs(outputs)
        return self.plan_obj

    def _apply_having(
        self, outputs: list[PlanNode], exprs: list[Expr]
    ) -> list[PlanNode]:
        """Filter grouped outputs by the HAVING conditions.

        Supported when the select list carries exactly one aggregate
        (the common case); the conditions must reference that aggregate.
        """
        stmt = self.stmt
        if not stmt.having:
            return outputs
        if len(outputs) != 1:
            raise SqlPlanError(
                "HAVING is supported for a single aggregate output only"
            )
        node = outputs[0]
        for condition in stmt.having:
            if condition.agg != exprs[0]:
                raise SqlPlanError(
                    "HAVING must reference the select list's aggregate "
                    f"({exprs[0]}), got {condition.agg}"
                )
            if isinstance(condition.value, str):
                raise SqlPlanError(
                    f"HAVING compares {condition.agg} with a string literal"
                )
            predicate = self._predicate_of(
                Comparison(ColumnRef("<having>"), condition.op, condition.value)
            )
            filtered = PlanNode(TailFilter(predicate), [node])
            filtered.label = node.label
            node = filtered
        return [node]

    def _item_node(
        self, expr: Expr, cands: PlanNode | None, keys: PlanNode | None
    ) -> PlanNode:
        if isinstance(expr, AggExpr):
            return self._agg_node(expr, cands, keys)
        if isinstance(expr, BinaryExpr) and _contains_agg(expr):
            self._check_operands(expr)
            left = self._item_node(expr.left, cands, keys)
            right = self._item_node(expr.right, cands, keys)
            return PlanNode(Calc(expr.op), [left, right])
        if isinstance(expr, NumberLit):
            return PlanNode(Literal(expr.value))
        return self.expr_node(expr, cands)

    def _apply_order_limit(
        self, outputs: list[PlanNode], exprs: list[Expr]
    ) -> list[PlanNode]:
        stmt = self.stmt
        if not stmt.order_by and stmt.limit is None:
            return outputs
        if stmt.order_by:
            order = stmt.order_by[0]
            if stmt.group_by is not None and order.expr == stmt.group_by:
                pass  # grouped results are already key-sorted
            else:
                try:
                    idx = exprs.index(order.expr)
                except ValueError:
                    raise SqlPlanError(
                        "ORDER BY expression must appear in the select list"
                    ) from None
                outputs[idx] = PlanNode(
                    Sort(descending=order.descending), [outputs[idx]]
                )
        if stmt.limit is not None:
            outputs = [PlanNode(TopN(stmt.limit), [node]) for node in outputs]
        return outputs


def _contains_agg(expr: Expr) -> bool:
    if isinstance(expr, AggExpr):
        return True
    if isinstance(expr, BinaryExpr):
        return _contains_agg(expr.left) or _contains_agg(expr.right)
    return False
