"""SVG figure for the scale-out benchmark.

Renders a ``BENCH_scaleout.json`` document (see
:mod:`repro.bench.scaleout`) with :mod:`repro.viz.svg`.  Two panels:

1. speedup vs node count against the ideal linear diagonal -- the
   shared-nothing scaling headline;
2. the skew straggler story: response time on a balanced map, on the
   placement-skewed map, and on the skewed map after the adaptive
   layer's placement mutations re-homed the hoarded shards.
"""

from __future__ import annotations

from .svg import Bars, Lines, Series, figure

#: Panel colors (colorblind-safe).
COLORS = {"measured": "#4477aa", "ideal": "#bbbbbb"}


def render_scaleout_figure(report: dict) -> str:
    """The scale-out figure for one report, as a self-contained SVG."""
    nodes = [row["nodes"] for row in report["sweep"]]
    speedups = [row["speedup"] for row in report["sweep"]]
    panels: list[Bars | Lines] = [
        Lines(
            "Speedup vs nodes (uniform shard map; higher is better)",
            nodes,
            [
                Series("ideal", COLORS["ideal"], nodes, dashed=True),
                Series("measured", COLORS["measured"], speedups),
            ],
            "speedup (x)",
            "nodes",
            label="{:.2f}x",
        )
    ]
    skew = report["skew"]
    if "gap_before" in skew:
        times = [skew["balanced_s"], skew["skewed_s"], skew["adapted_s"]]
        panels.append(
            Bars(
                f"Straggler gap at {skew['nodes']} nodes: {skew['gap_before']:.2f}x "
                f"-> {skew['gap_after']:.2f}x after "
                f"{len(skew['placement_moves'])} placement move(s)",
                ["balanced map", "skewed map", "skewed + placement moves"],
                [Series("measured", COLORS["measured"], times)],
                "response (s)",
                label="{:.4f}",
            )
        )
    workload = report["workload"]
    return figure(
        f"Shared-nothing scale-out ({'quick' if report['quick'] else 'full'} "
        f"mode, {workload['rows']} rows, {workload['node_threads']} threads/node)",
        panels,
        panel_height=210,
    )
