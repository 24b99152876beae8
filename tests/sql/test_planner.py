"""SQL planner: compiled plans must compute the numpy ground truth."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import SimulationConfig, laptop_machine
from repro.engine import execute
from repro.errors import SqlLexError, SqlPlanError
from repro.plan import validate_plan
from repro.sql import PlanCache, plan_sql, statement_key, tokenize, tokens_key
from repro.storage import Catalog, LNG, STR, Table


@pytest.fixture()
def catalog(rng) -> Catalog:
    n, m, s = 10_000, 200, 20
    cat = Catalog()
    cat.add(
        Table.from_arrays(
            "sales",
            {
                "item_id": (LNG, rng.integers(0, m, n)),
                "shop_id": (LNG, rng.integers(0, s, n)),
                "amount": (LNG, rng.integers(1, 100, n)),
                "price": (LNG, rng.integers(10, 1_000, n)),
            },
        )
    )
    cat.add(
        Table.from_arrays(
            "items",
            {
                "item_pk": (LNG, np.arange(m)),
                "category": (LNG, rng.integers(0, 5, m)),
                "label": (STR, [f"label-{i % 11}" for i in range(m)]),
            },
        )
    )
    cat.add(
        Table.from_arrays(
            "shops",
            {
                "shop_pk": (LNG, np.arange(s)),
                "region": (LNG, rng.integers(0, 4, s)),
            },
        )
    )
    return cat


@pytest.fixture()
def config() -> SimulationConfig:
    return SimulationConfig(machine=laptop_machine(8), data_scale=100.0)


def run_sql(sql: str, catalog: Catalog, config: SimulationConfig):
    plan = plan_sql(sql, catalog)
    validate_plan(plan)
    return execute(plan, config)


class TestScalarQueries:
    def test_filtered_sum(self, catalog, config):
        result = run_sql(
            "SELECT SUM(price) FROM sales WHERE amount < 50", catalog, config
        )
        sales = catalog.table("sales")
        mask = sales.column("amount").values < 50
        assert result.outputs[0].value == int(sales.column("price").values[mask].sum())

    def test_count_star_no_filter(self, catalog, config):
        result = run_sql("SELECT COUNT(*) FROM sales", catalog, config)
        assert result.outputs[0].value == 10_000

    def test_expression_aggregate(self, catalog, config):
        result = run_sql(
            "SELECT SUM(price * amount) FROM sales WHERE amount BETWEEN 10 AND 20",
            catalog,
            config,
        )
        sales = catalog.table("sales")
        a = sales.column("amount").values
        mask = (a >= 10) & (a <= 20)
        expected = int((sales.column("price").values[mask] * a[mask]).sum())
        assert result.outputs[0].value == expected

    def test_avg_is_sum_over_count(self, catalog, config):
        result = run_sql(
            "SELECT AVG(price) FROM sales WHERE amount < 10", catalog, config
        )
        sales = catalog.table("sales")
        mask = sales.column("amount").values < 10
        expected = sales.column("price").values[mask].mean()
        assert result.outputs[0].value == pytest.approx(expected)

    def test_min_max(self, catalog, config):
        result = run_sql(
            "SELECT MIN(price), MAX(price) FROM sales WHERE amount = 7",
            catalog,
            config,
        )
        sales = catalog.table("sales")
        mask = sales.column("amount").values == 7
        assert result.outputs[0].value == int(sales.column("price").values[mask].min())
        assert result.outputs[1].value == int(sales.column("price").values[mask].max())


class TestJoins:
    def _ground_truth(self, catalog):
        sales = catalog.table("sales")
        items = catalog.table("items")
        cat_per_row = items.column("category").values[
            sales.column("item_id").values
        ]
        return sales, cat_per_row

    def test_semijoin_reduction(self, catalog, config):
        result = run_sql(
            "SELECT SUM(price) FROM sales, items "
            "WHERE item_id = item_pk AND category = 2",
            catalog,
            config,
        )
        sales, cat_per_row = self._ground_truth(catalog)
        expected = int(sales.column("price").values[cat_per_row == 2].sum())
        assert result.outputs[0].value == expected

    def test_group_by_dimension_column(self, catalog, config):
        result = run_sql(
            "SELECT category, SUM(price) FROM sales, items "
            "WHERE item_id = item_pk GROUP BY category ORDER BY category",
            catalog,
            config,
        )
        sales, cat_per_row = self._ground_truth(catalog)
        out = result.outputs[0]
        for key, total in zip(out.head, out.tail):
            expected = int(sales.column("price").values[cat_per_row == key].sum())
            assert total == expected

    def test_two_dimensions(self, catalog, config):
        result = run_sql(
            "SELECT SUM(amount) FROM sales, items, shops "
            "WHERE item_id = item_pk AND shop_id = shop_pk "
            "AND category = 1 AND region = 3",
            catalog,
            config,
        )
        sales = catalog.table("sales")
        cat_per_row = catalog.column("items", "category").values[
            sales.column("item_id").values
        ]
        reg_per_row = catalog.column("shops", "region").values[
            sales.column("shop_id").values
        ]
        mask = (cat_per_row == 1) & (reg_per_row == 3)
        assert result.outputs[0].value == int(
            sales.column("amount").values[mask].sum()
        )

    def test_string_dimension_predicate(self, catalog, config):
        result = run_sql(
            "SELECT COUNT(*) FROM sales, items "
            "WHERE item_id = item_pk AND label LIKE 'label-1'",
            catalog,
            config,
        )
        items = catalog.table("items")
        codes = items.column("label")
        wanted = {i for i, s in enumerate(codes.dictionary) if s == "label-1"}
        hit_items = {
            int(pk)
            for pk, c in zip(
                items.column("item_pk").values, codes.values
            )
            if int(c) in wanted
        }
        sales_items = catalog.column("sales", "item_id").values
        expected = int(np.isin(sales_items, list(hit_items)).sum())
        assert result.outputs[0].value == expected

    def test_or_across_fact_and_dim(self, catalog, config):
        result = run_sql(
            "SELECT COUNT(*) FROM sales, items WHERE item_id = item_pk AND "
            "((amount < 5 AND category = 1) OR (amount > 95 AND category = 2))",
            catalog,
            config,
        )
        sales = catalog.table("sales")
        cat_per_row = catalog.column("items", "category").values[
            sales.column("item_id").values
        ]
        a = sales.column("amount").values
        mask = ((a < 5) & (cat_per_row == 1)) | ((a > 95) & (cat_per_row == 2))
        assert result.outputs[0].value == int(mask.sum())

    def test_in_subquery(self, catalog, config):
        result = run_sql(
            "SELECT COUNT(*) FROM items WHERE item_pk IN "
            "(SELECT item_id FROM sales WHERE amount > 97)",
            catalog,
            config,
        )
        hot = np.unique(
            catalog.column("sales", "item_id").values[
                catalog.column("sales", "amount").values > 97
            ]
        )
        expected = int(
            np.isin(catalog.column("items", "item_pk").values, hot).sum()
        )
        assert result.outputs[0].value == expected

    def test_limit_truncates(self, catalog, config):
        result = run_sql(
            "SELECT shop_id, COUNT(*) FROM sales GROUP BY shop_id "
            "ORDER BY shop_id LIMIT 5",
            catalog,
            config,
        )
        assert len(result.outputs[0]) == 5

    def test_order_by_aggregate_desc(self, catalog, config):
        result = run_sql(
            "SELECT shop_id, SUM(price) FROM sales GROUP BY shop_id "
            "ORDER BY SUM(price) DESC LIMIT 3",
            catalog,
            config,
        )
        out = result.outputs[0]
        assert list(out.tail) == sorted(out.tail, reverse=True)


class TestPlannerErrors:
    def test_unknown_table(self, catalog):
        with pytest.raises(SqlPlanError):
            plan_sql("SELECT a FROM nope", catalog)

    def test_unknown_column(self, catalog):
        with pytest.raises(SqlPlanError):
            plan_sql("SELECT nope FROM sales", catalog)

    def test_cross_product_rejected(self, catalog):
        with pytest.raises(SqlPlanError, match="cross products"):
            plan_sql("SELECT COUNT(*) FROM sales, items", catalog)

    def test_group_by_without_aggregate(self, catalog):
        with pytest.raises(SqlPlanError):
            plan_sql("SELECT shop_id FROM sales GROUP BY shop_id", catalog)

    def test_order_by_unknown_expression(self, catalog):
        with pytest.raises(SqlPlanError):
            plan_sql(
                "SELECT shop_id, SUM(price) FROM sales GROUP BY shop_id "
                "ORDER BY SUM(amount)",
                catalog,
            )

    def test_subquery_must_select_one_column(self, catalog):
        with pytest.raises(SqlPlanError):
            plan_sql(
                "SELECT COUNT(*) FROM items WHERE item_pk IN "
                "(SELECT item_id, amount FROM sales)",
                catalog,
            )


class TestOutputLabels:
    def test_aggregate_output_labelled(self, catalog):
        plan = plan_sql("SELECT SUM(price) FROM sales WHERE amount < 5", catalog)
        assert plan.outputs[0].label == "sum(price)"

    def test_alias_wins(self, catalog):
        plan = plan_sql(
            "SELECT SUM(price) AS total FROM sales WHERE amount < 5", catalog
        )
        assert plan.outputs[0].label == "total"

    def test_grouped_output_labelled(self, catalog):
        plan = plan_sql(
            "SELECT shop_id, COUNT(*) FROM sales GROUP BY shop_id", catalog
        )
        assert plan.outputs[0].label == "count(*)"


class TestHavingDistinct:
    def test_having_filters_groups(self, catalog, config):
        result = run_sql(
            "SELECT shop_id, COUNT(*) FROM sales GROUP BY shop_id "
            "HAVING COUNT(*) > 520 ORDER BY shop_id",
            catalog,
            config,
        )
        out = result.outputs[0]
        assert len(out) > 0
        assert all(int(v) > 520 for v in out.tail)
        shop = catalog.column("sales", "shop_id").values
        import numpy as np

        full = np.bincount(shop)
        expected = {int(s) for s in np.flatnonzero(full > 520)}
        assert set(int(k) for k in out.head) == expected

    def test_having_conjunction(self, catalog, config):
        result = run_sql(
            "SELECT shop_id, SUM(price) FROM sales GROUP BY shop_id "
            "HAVING SUM(price) > 230000 AND SUM(price) < 270000",
            catalog,
            config,
        )
        out = result.outputs[0]
        assert all(230_000 < int(v) < 270_000 for v in out.tail)

    def test_having_requires_group_by(self, catalog):
        with pytest.raises(SqlPlanError, match="GROUP BY"):
            plan_sql("SELECT SUM(price) FROM sales HAVING SUM(price) > 1", catalog)

    def test_having_must_match_select_aggregate(self, catalog):
        with pytest.raises(SqlPlanError, match="reference"):
            plan_sql(
                "SELECT shop_id, SUM(price) FROM sales GROUP BY shop_id "
                "HAVING COUNT(*) > 3",
                catalog,
            )

    def test_having_multiple_aggregates_unsupported(self, catalog):
        with pytest.raises(SqlPlanError, match="single aggregate"):
            plan_sql(
                "SELECT shop_id, SUM(price), COUNT(*) FROM sales "
                "GROUP BY shop_id HAVING SUM(price) > 1",
                catalog,
            )

    def test_distinct_values(self, catalog, config):
        result = run_sql(
            "SELECT DISTINCT shop_id FROM sales WHERE amount > 95",
            catalog,
            config,
        )
        import numpy as np

        shop = catalog.column("sales", "shop_id").values
        amount = catalog.column("sales", "amount").values
        expected = set(np.unique(shop[amount > 95]).tolist())
        assert set(result.outputs[0].head.tolist()) == expected

    def test_distinct_single_plain_column_only(self, catalog):
        with pytest.raises(SqlPlanError, match="DISTINCT"):
            plan_sql("SELECT DISTINCT shop_id, item_id FROM sales", catalog)
        with pytest.raises(SqlPlanError, match="DISTINCT"):
            plan_sql("SELECT DISTINCT SUM(price) FROM sales", catalog)

    def test_distinct_with_limit(self, catalog, config):
        result = run_sql(
            "SELECT DISTINCT shop_id FROM sales LIMIT 3", catalog, config
        )
        assert len(result.outputs[0]) == 3


def _count_tokenize(monkeypatch, *modules) -> list[str]:
    """Record every ``tokenize`` call made through ``modules``."""
    seen: list[str] = []

    def counted(text):
        seen.append(text)
        return tokenize(text)

    for module in modules:
        monkeypatch.setattr(module, "tokenize", counted)
    return seen


class TestPlanCacheTokenizesOnce:
    SQL = "SELECT SUM(price) FROM sales WHERE amount < 5"

    def test_new_and_cached_statements_tokenize_once(self, catalog, monkeypatch):
        import repro.sql.parser as parser
        import repro.sql.planner as planner

        seen = _count_tokenize(monkeypatch, planner, parser)
        cache = PlanCache(catalog)
        cache.template(self.SQL)
        assert seen == [self.SQL]
        cache.template(self.SQL.lower())
        assert seen == [self.SQL, self.SQL.lower()]
        assert (cache.hits, cache.misses) == (1, 1)

    def test_lex_error_comes_before_the_lookup(self, catalog):
        cache = PlanCache(catalog)
        with pytest.raises(SqlLexError):
            cache.template("SELECT 'unterminated FROM sales")
        assert (cache.hits, cache.misses, len(cache)) == (0, 0, 0)

    @pytest.mark.parametrize(
        "text", [SQL, "select  x FROM t where s = 'MED  BOX'", "", "a <= 'b' <> 3.5"]
    )
    def test_tokens_key_is_statement_key(self, text):
        assert tokens_key(tokenize(text)) == statement_key(text)
