"""Tomograph rendering and ASCII plots."""

from __future__ import annotations

import pytest

from repro.core import HeuristicParallelizer
from repro.engine import execute
from repro.operators import RangePredicate
from repro.plan import PlanBuilder
from repro.viz import bar_chart, line_plot, render_tomograph, utilization_summary


@pytest.fixture()
def profile(small_catalog, sim_config):
    b = PlanBuilder(small_catalog)
    sel = b.select(b.scan("facts", "val"), RangePredicate(hi=500))
    proj = b.fetch(sel, b.scan("facts", "qty"))
    plan = HeuristicParallelizer(4).parallelize(b.build(b.aggregate("sum", proj)))
    return execute(plan, sim_config).profile


class TestTomograph:
    def test_renders_one_row_per_thread(self, profile):
        text = render_tomograph(profile, 8)
        rows = [line for line in text.splitlines() if "|" in line and line.strip().startswith("t")]
        assert len(rows) == 8

    def test_reports_utilization_percentage(self, profile):
        text = render_tomograph(profile, 8)
        assert "parallelism usage" in text
        assert "%" in text

    def test_contains_operator_marks(self, profile):
        text = render_tomograph(profile, 8)
        assert "S" in text  # selects ran
        assert "." in text  # some idleness

    def test_unfinished_profile_rejected(self, profile):
        profile.finish_time = None
        with pytest.raises(ValueError):
            render_tomograph(profile, 8)

    def test_summary_numbers(self, profile):
        summary = utilization_summary(profile, 8)
        assert summary["span_ms"] > 0
        assert 0 < summary["multicore_utilization"] <= 1
        assert summary["operators_executed"] == len(profile.records)
        assert summary["threads_used"] <= 8


class TestAsciiPlots:
    def test_line_plot_draws_series(self):
        text = line_plot({"a": [3.0, 2.0, 1.0], "b": [1.0, 2.0, 3.0]})
        assert "*" in text and "+" in text
        assert "a" in text and "b" in text

    def test_line_plot_empty_rejected(self):
        with pytest.raises(ValueError):
            line_plot({})
        with pytest.raises(ValueError):
            line_plot({"a": []})

    def test_line_plot_title(self):
        assert line_plot({"a": [1.0]}, title="hello").startswith("hello")

    def test_bar_chart_shows_values(self):
        text = bar_chart(
            ["g1", "g2"], {"HP": [1.0, 2.0], "AP": [0.5, 0.25]}, unit="s"
        )
        assert "g1:" in text and "g2:" in text
        assert "0.25 s" in text

    def test_bar_chart_scales_to_peak(self):
        text = bar_chart(["g"], {"x": [10.0], "y": [5.0]}, width=20)
        x_bar = next(line for line in text.splitlines() if line.strip().startswith("x"))
        y_bar = next(line for line in text.splitlines() if line.strip().startswith("y"))
        assert x_bar.count("#") == 20
        assert y_bar.count("#") == 10

    def test_bar_chart_empty_rejected(self):
        with pytest.raises(ValueError):
            bar_chart(["g"], {})
