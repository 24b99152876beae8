"""SVG comparison figure for the convergence-policy benchmark.

Renders a ``BENCH_convergence.json`` document (see
:mod:`repro.bench.convergence`) with :mod:`repro.viz.svg`.  Three
panels:

1. runs-to-GME per query, grouped bars per policy (log would hide the
   warm-start collapse, so linear);
2. total simulated work per query, grouped bars per policy;
3. the repeated-workload trajectory: runs-to-GME per encounter of the
   same query against a shared experience store.
"""

from __future__ import annotations

from .svg import Bars, Lines, Series, figure

#: Per-policy fill colors (colorblind-safe triad).
COLORS = {"cold": "#4477aa", "warmstart": "#ee6677", "bandit": "#228833"}
LABELS = {"cold": "credit/debit (cold)", "warmstart": "warm-start", "bandit": "bandit"}
POLICY_ORDER = ("cold", "warmstart", "bandit")


def render_policy_figure(report: dict) -> str:
    """The full comparison figure for one convergence report, as SVG."""
    queries = report["queries"]
    bars = [
        Bars(
            title,
            list(queries),
            [
                Series(LABELS[p], COLORS[p], [queries[q][p][metric] for q in queries])
                for p in POLICY_ORDER
            ],
            unit,
        )
        for title, metric, unit in (
            ("Runs to GME band (learning latency; lower is better)", "runs_to_gme", "runs"),
            ("Total simulated work per convergence episode (lower is better)", "total_work_ms", "ms"),
        )
    ]
    repeated = report["repeated"]
    trajectory = [e["runs_to_gme"] for e in repeated["encounters"]]
    return figure(
        "Convergence policies: learned DOP vs the paper's credit/debit walk "
        f"({'quick' if report['quick'] else 'full'} mode)",
        bars + [
            Lines(
                f"Repeated {repeated['workload']}: runs-to-GME per encounter "
                f"(warm ratio {repeated['warm_ratio']:.2f})",
                list(range(1, len(trajectory) + 1)),
                [Series(LABELS["warmstart"], COLORS["warmstart"], trajectory)],
                "runs",
                "encounter",
            )
        ],
        legend=bars[0].series,
    )
