"""Unit tests for the convergence-bench helpers (no heavy runs)."""

from __future__ import annotations

import json
import xml.dom.minidom
from pathlib import Path

import pytest

from repro.bench.convergence import INVARIANTS, SCHEMA, format_convergence_report
from repro.bench.gates import check_gates
from repro.errors import ReproError
from repro.viz.policies import render_policy_figure

ROOT = Path(__file__).resolve().parents[2]


def _policy(runs_to_gme, total_work_ms, policy="credit_debit", total_runs=100):
    return {
        "policy": policy,
        "warm_start": policy.startswith("warmstart"),
        "total_runs": total_runs,
        "runs_to_gme": runs_to_gme,
        "total_work_ms": total_work_ms,
        "serial_ms": 120.0,
        "gme_ms": 20.0,
        "sim_speedup": 6.0,
    }


def _report(*, warm_ratio=0.2, bandit_wins=2, suite=2):
    queries = {}
    for i in range(suite):
        wins = i < bandit_wins
        queries[f"q{i}"] = {
            "cold": _policy(40, 2000.0),
            "warmstart": _policy(8, 1500.0, "warmstart+credit_debit"),
            "bandit": _policy(6, 1000.0 if wins else 3000.0, "bandit", 12),
        }
    cold_runs = 30
    return {
        "schema": SCHEMA,
        "quick": True,
        "queries": queries,
        "repeated": {
            "workload": "tpch_q1_style",
            "encounters": [
                _policy(cold_runs, 2000.0, "warmstart+credit_debit"),
                _policy(int(cold_runs * warm_ratio), 1400.0, "warmstart+credit_debit"),
                _policy(int(cold_runs * warm_ratio), 1400.0, "warmstart+credit_debit"),
            ],
            "warm_ratio": warm_ratio,
        },
        "summary": {
            "suite_size": suite,
            "bandit_work_wins": bandit_wins,
            "bandit_win_fraction": bandit_wins / suite,
            "mean_warm_ratio": 0.2,
            "repeated_warm_ratio": warm_ratio,
        },
    }


def check_convergence_report(report: dict, *gates: str) -> None:
    check_gates(report, gates, INVARIANTS)


class TestCheckConvergenceReport:
    def test_passes_within_gates(self):
        check_convergence_report(
            _report(), "repeated.warm_ratio<=0.7", "summary.bandit_win_fraction>=0.5"
        )

    def test_warm_ratio_gate(self):
        with pytest.raises(ReproError, match="repeated.warm_ratio is 0.9"):
            check_convergence_report(
                _report(warm_ratio=0.9), "repeated.warm_ratio<=0.7"
            )

    def test_bandit_win_gate(self):
        with pytest.raises(ReproError, match="bandit_win_fraction is 0"):
            check_convergence_report(
                _report(bandit_wins=0), "summary.bandit_win_fraction>=0.5"
            )

    def test_unchecked_by_default(self):
        check_convergence_report(_report(warm_ratio=0.99, bandit_wins=0))


class TestFormatConvergenceReport:
    def test_mentions_every_query_and_policy(self):
        text = format_convergence_report(_report())
        assert "q0" in text and "q1" in text
        assert "cold" in text and "warmstart" in text and "bandit" in text
        assert "warm ratio 0.20" in text
        assert "bandit work wins 2/2" in text


class TestPolicyFigure:
    def test_figure_is_wellformed_svg(self):
        svg = render_policy_figure(_report())
        doc = xml.dom.minidom.parseString(svg)
        assert doc.documentElement.tagName == "svg"
        rects = doc.getElementsByTagName("rect")
        # Background + legend(3) + 3 policies x 2 queries x 2 panels.
        assert len(rects) >= 1 + 3 + 12
        text = svg.lower()
        assert "runs to gme" in text
        assert "tpch_q1_style" in text

    def test_figure_escapes_and_scales(self):
        report = _report()
        report["queries"]["<evil>"] = report["queries"].pop("q1")
        svg = render_policy_figure(report)
        assert "<evil>" not in svg
        assert "&lt;evil&gt;" in svg
        xml.dom.minidom.parseString(svg)

    def test_committed_figure_matches_its_report(self):
        report = json.loads((ROOT / "BENCH_convergence.json").read_text())
        committed = (ROOT / "figures" / "convergence_policies.svg").read_text()
        assert render_policy_figure(report) == committed
