"""The adaptive session / query cache (paper Figure 2 workflow)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import SimulationConfig, laptop_machine
from repro.core import ConvergenceParams
from repro.core.session import AdaptiveSession, EntryState
from repro.errors import ReproError
from repro.storage import Catalog, LNG, STR, Table


@pytest.fixture()
def catalog(rng) -> Catalog:
    cat = Catalog()
    cat.add(
        Table.from_arrays(
            "t",
            {
                "x": (LNG, rng.integers(0, 1000, 20_000)),
                "y": (LNG, rng.integers(0, 100, 20_000)),
            },
        )
    )
    return cat


@pytest.fixture()
def session(catalog) -> AdaptiveSession:
    config = SimulationConfig(machine=laptop_machine(8), data_scale=1000.0)
    return AdaptiveSession(
        catalog,
        config,
        convergence=ConvergenceParams(number_of_cores=8, max_runs=60),
    )


SQL = "SELECT SUM(x) FROM t WHERE y < 50"


class TestAdaptiveSession:
    def test_first_invocation_compiles_and_caches(self, session):
        result = session.execute(SQL)
        assert result.outputs[0].value > 0
        entry = session.entry_for(SQL)
        assert entry.invocations == 1
        assert entry.state is EntryState.ADAPTING

    def test_whitespace_and_case_insensitive_template_key(self, session):
        session.execute(SQL)
        session.execute("select  SUM(x)\n FROM t  WHERE y < 50")
        assert session.entry_for(SQL).invocations == 2
        assert len(session.cached_queries()) == 1

    @pytest.mark.parametrize(
        "cached, other",
        [("Brand#23", "BRAND#23"), ("MED BOX", "MED  BOX")],
    )
    def test_template_key_keeps_string_literals_verbatim(self, cached, other):
        catalog = Catalog()
        values = [cached] * 6 + ["Brand#12"] * 4
        catalog.add(Table.from_arrays("part", {"p_brand": (STR, values)}))
        session = AdaptiveSession(catalog, SimulationConfig())
        sql = "SELECT COUNT(*) FROM part WHERE p_brand = '{}'"
        assert session.execute(sql.format(cached)).outputs[0].value == 6
        assert session.execute(sql.format(other)).outputs[0].value == 0
        assert len(session.cached_queries()) == 2

    def test_each_invocation_tokenizes_once(self, session, monkeypatch):
        import repro.core.session as session_module
        import repro.sql.parser as parser
        from repro.sql import tokenize

        seen: list[str] = []

        def counted(text):
            seen.append(text)
            return tokenize(text)

        monkeypatch.setattr(session_module, "tokenize", counted)
        monkeypatch.setattr(parser, "tokenize", counted)
        session.execute(SQL)
        session.execute(SQL)
        assert seen == [SQL, SQL]

    def test_results_identical_across_invocations(self, session):
        values = {session.execute(SQL).outputs[0].value for __ in range(12)}
        assert len(values) == 1

    def test_response_times_improve_with_invocations(self, session):
        first = session.execute(SQL).response_time
        best = min(session.execute(SQL).response_time for __ in range(30))
        assert best < first / 2

    def test_eventually_converges_and_serves_best_plan(self, session):
        for __ in range(120):
            session.execute(SQL)
            if session.entry_for(SQL).state is EntryState.CONVERGED:
                break
        entry = session.entry_for(SQL)
        assert entry.state is EntryState.CONVERGED
        # Post-convergence invocations run the cached GME plan: fast.
        converged_time = session.execute(SQL).response_time
        serial_time = entry.tracker.serial_time
        assert converged_time < serial_time
        # ... and do not add adaptive runs.
        runs_after = entry.tracker.runs
        session.execute(SQL)
        assert entry.tracker.runs == runs_after

    def test_independent_templates_adapt_independently(self, session):
        other = "SELECT COUNT(*) FROM t WHERE x > 900"
        session.execute(SQL)
        session.execute(other)
        assert len(session.cached_queries()) == 2
        assert session.entry_for(other).invocations == 1

    def test_unknown_entry_raises(self, session):
        with pytest.raises(ReproError):
            session.entry_for("SELECT COUNT(*) FROM t")

    def test_stats_summaries(self, session):
        session.execute(SQL)
        stats = session.stats()
        assert len(stats) == 1
        assert "invocation" in next(iter(stats.values()))
