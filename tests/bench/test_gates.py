"""The report gate evaluator: paths, bounds and invariants."""

from __future__ import annotations

import pytest

from repro.bench.gates import check_gates, metric, parse_gate
from repro.errors import ReproError

REPORT = {
    "sweep": [{"speedup": 1.0}, {"speedup": 3.5}],
    "summary": {"ok": True, "label": "x"},
    "skipped": {"skipped": "needs >= 2 nodes"},
}


def test_paths_step_into_dicts_and_list_indices():
    assert metric(REPORT, "sweep.-1.speedup") == 3.5
    assert metric(REPORT, "sweep.0.speedup") == 1.0


@pytest.mark.parametrize(
    "gate", ["sweep.-1.speedup>=3.5", "sweep.0.speedup<=1", " sweep.1.speedup >= 2 "]
)
def test_gate_at_or_within_its_bound_passes(gate):
    check_gates(REPORT, [gate])


def test_every_failed_gate_is_named():
    with pytest.raises(ReproError) as info:
        check_gates(REPORT, ["sweep.-1.speedup>=4", "sweep.0.speedup<=0.5"])
    assert str(info.value) == (
        "gate failed: sweep.-1.speedup is 3.5, wanted >= 4; "
        "sweep.0.speedup is 1, wanted <= 0.5"
    )


@pytest.mark.parametrize(
    "path", ["skipped.gap_after", "sweep.2.speedup", "sweep.last.speedup", "nope"]
)
def test_a_missing_metric_fails_naming_its_path(path):
    with pytest.raises(ReproError, match=f"no '{path}'"):
        check_gates(REPORT, [f"{path}<=1.2"])


@pytest.mark.parametrize("gate", ["summary.ok>=1", "summary.label<=1", "sweep<=1"])
def test_a_gate_needs_a_number(gate):
    with pytest.raises(ReproError, match="not a number"):
        check_gates(REPORT, [gate])


@pytest.mark.parametrize("gate", ["speedup>1", "speedup", "a<=b", "<=1", "a=>1"])
def test_malformed_gates_are_rejected(gate):
    with pytest.raises(ReproError, match="gate"):
        parse_gate(gate)


def test_invariants_hold_where_the_report_has_them():
    check_gates(REPORT, [], ["summary.ok", "chaos.value_identical"])
    with pytest.raises(ReproError, match="gate failed: summary.label is 'x'"):
        check_gates(REPORT, [], ["summary.label"])
