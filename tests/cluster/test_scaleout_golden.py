"""Golden pinning + gates for the scale-out benchmark report.

The quick-mode report is a pure function of the workload seed, so its
serialized form is pinned byte for byte -- the clean sections and the
CHAOS_LIGHT-style node-failure section separately.  Run
``pytest tests/cluster --regen-golden`` after an *intentional* change
to the cluster model and review the fixture diff like code.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench.gates import check_gates
from repro.bench.scaleout import (
    INVARIANTS,
    SCHEMA,
    format_scaleout_report,
    run_scaleout,
)
from repro.errors import ReproError
from repro.viz.scaleout import render_scaleout_figure

GOLDEN_DIR = Path(__file__).parent / "golden"


def _check_golden(name: str, payload: str, regen: bool) -> None:
    path = GOLDEN_DIR / name
    if regen:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(payload + "\n")
        pytest.skip(f"regenerated {path.name}")
    assert path.exists(), (
        f"golden fixture {path} is missing -- run "
        "pytest tests/cluster --regen-golden"
    )
    assert payload + "\n" == path.read_text(), (
        f"scaleout report diverged from {path.name}; if the change is "
        "intentional, regenerate with --regen-golden and review the diff"
    )


@pytest.fixture(scope="module")
def quick_report():
    return run_scaleout(quick=True)


class TestGolden:
    def test_quick_clean_golden(self, quick_report, regen_golden):
        clean = {k: v for k, v in quick_report.items() if k != "chaos"}
        _check_golden(
            "scaleout_quick_clean.json",
            json.dumps(clean, indent=2, sort_keys=True),
            regen_golden,
        )

    def test_quick_chaos_golden(self, quick_report, regen_golden):
        _check_golden(
            "scaleout_quick_chaos.json",
            json.dumps(quick_report["chaos"], indent=2, sort_keys=True),
            regen_golden,
        )


class TestReportShape:
    def test_schema_and_sweep(self, quick_report):
        assert quick_report["schema"] == SCHEMA
        assert [row["nodes"] for row in quick_report["sweep"]] == [1, 2, 4]
        assert quick_report["sweep"][0]["speedup"] == 1.0
        # The distributed aggregate is bit-exact at every node count.
        assert len({row["value"] for row in quick_report["sweep"]}) == 1

    def test_acceptance_gates_pass(self, quick_report):
        check_gates(
            quick_report,
            ["sweep.-1.speedup>=1.8", "skew.gap_after<=1.1"],
            INVARIANTS,
        )

    def test_skew_section_documents_the_straggler(self, quick_report):
        skew = quick_report["skew"]
        assert skew["gap_before"] > 1.8
        assert skew["gap_after"] < 1.1
        assert skew["placement_moves"]
        assert skew["value_preserved"]

    def test_chaos_section_survives_identically(self, quick_report):
        chaos = quick_report["chaos"]
        assert chaos["attempts"] >= 2
        assert chaos["failed_nodes"]
        assert chaos["value_identical"]

    def test_gates_fail_loudly(self, quick_report):
        with pytest.raises(ReproError, match="sweep.-1.speedup is 3.939"):
            check_gates(quick_report, ["sweep.-1.speedup>=1000"], INVARIANTS)
        with pytest.raises(ReproError, match="skew.gap_after is 1"):
            check_gates(quick_report, ["skew.gap_after<=0.5"], INVARIANTS)

    def test_failover_divergence_always_fails(self, quick_report):
        diverged = dict(quick_report, chaos={**quick_report["chaos"]})
        diverged["chaos"]["value_identical"] = False
        with pytest.raises(ReproError, match="chaos.value_identical is False"):
            check_gates(diverged, [], INVARIANTS)
        # A report without a chaos section has nothing to check.
        check_gates(run_scaleout(quick=True, nodes=(1,)), [], INVARIANTS)

    def test_bad_node_counts_rejected(self):
        with pytest.raises(ReproError, match=">= 1"):
            run_scaleout(quick=True, nodes=(0, 2))

    def test_format_mentions_every_section(self, quick_report):
        text = format_scaleout_report(quick_report)
        assert "speedup" in text
        assert "straggler gap" in text
        assert "value identical" in text

    def test_figure_renders_both_panels(self, quick_report):
        import xml.dom.minidom

        svg = render_scaleout_figure(quick_report)
        xml.dom.minidom.parseString(svg)
        assert "Speedup vs nodes" in svg
        assert "Straggler gap" in svg
