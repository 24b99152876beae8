"""Self-test of the end-to-end benchmark.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Runs every workload once at ``--quick`` sizes, with and without
tracing, and checks the oracles and the span arithmetic on inputs whose
answers are known.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import layers
import workloads
from layers import Span
from repro.engine import execute
from repro.serve.engine import render_outputs
from repro.sql import plan_sql
from repro.storage import BAT, Scalar
from repro.workloads import JoinMicroWorkload, TpchDataset

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace, tmp_path):
    out = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--quick", "--trace", str(trace),
         "--trace-dir", str(tmp_path), "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert [m["name"] for m in expected] == list(result["metrics"])
    for metric in expected:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert any(line.startswith(f"{workload} {metric['name']} ")
                   and line.endswith(f" {metric['unit']}") for line in lines)
        if not trace:
            assert value["value"] > 0
    assert json.loads(out.read_text())["digest"]
    if trace:
        assert (tmp_path / f"{workload}.spans.jsonl").stat().st_size > 0
        assert (tmp_path / f"{workload}.layers.txt").exists()


def test_run_refuses_a_tree_without_sources(tmp_path):
    bench = tmp_path / "benchmarks" / "e2e"
    bench.mkdir(parents=True)
    (bench / "run.py").write_text((HERE / "run.py").read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "serve-sim"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


# ----------------------------------------------------------------------
# oracles reject wrong answers
# ----------------------------------------------------------------------
def test_scan_oracle():
    catalog = TpchDataset(scale_factor=1, seed=5).catalog
    plan, cutoff = workloads.q1_style_plan(catalog)
    sums, counts = execute(plan).outputs
    assert workloads.check_scan_answer(catalog, cutoff, [sums, counts]) is None
    tail = np.array(sums.tail)
    tail[0] += 1
    wrong = BAT(sums.head, tail, sums.dtype)
    assert workloads.check_scan_answer(catalog, cutoff, [wrong, counts])


def test_join_oracle():
    micro = JoinMicroWorkload(outer_mb=16, inner_mb=16, seed=5)
    outputs = execute(micro.plan()).outputs
    rows = len(micro.catalog.table("outer"))
    assert workloads.check_join_answer(rows, outputs) is None
    assert workloads.check_join_answer(rows, [Scalar(outputs[0].value + 1, outputs[0].dtype)])


def _report(issued=10, completed=7, rejected=2, abandoned=1):
    tenant = {"issued": issued, "completed": completed, "rejected": rejected,
              "abandoned": abandoned}
    return json.dumps({"tenants": {"gold": tenant}}, sort_keys=True)


def test_sim_oracle():
    assert all(c.ok for c in workloads.check_sim_reports([_report(), _report()]))
    assert not all(c.ok for c in workloads.check_sim_reports([_report(completed=6)] * 2))
    assert not all(c.ok for c in workloads.check_sim_reports([_report(), _report(issued=11)]))


def test_sql_oracle():
    dataset = TpchDataset(scale_factor=1, seed=5)
    catalog, config = dataset.catalog, dataset.sim_config()
    stream = workloads.statement_stream(5)
    statements = [next(stream) for _ in range(80)]
    responses = [
        {"type": "result",
         "rows": json.loads(json.dumps(render_outputs(
             execute(plan_sql(st.sql, catalog), config).outputs,
             limit=workloads.ROW_LIMIT)))}
        for st in statements
    ]
    assert {st.template for st in statements} == set(range(len(workloads.TEMPLATES)))
    checks = workloads.check_sql_answers(catalog, config, statements, responses)
    assert all(c.ok for c in checks), checks

    def tampered(index: int) -> list[dict]:
        bad = json.loads(json.dumps(responses))
        row = bad[index]["rows"][-1]
        if row["kind"] == "scalar":
            row["value"] += 1
        else:
            row["pairs"][0][-1] = "wrong" if isinstance(row["pairs"][0][-1], str) else -1
        return bad

    numpy_index = next(i for i, st in enumerate(statements)
                       if st.template in workloads.NUMPY_TEMPLATES)
    others = [i for i, st in enumerate(statements)
              if st.template not in workloads.NUMPY_TEMPLATES]
    rechecked = others[workloads.ORACLE_EVERY - 1]
    for index in (numpy_index, rechecked):
        checks = workloads.check_sql_answers(catalog, config, statements, tampered(index))
        assert not all(c.ok for c in checks)


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
def test_self_times_with_a_pool_thread_subtree():
    # root [0,10] on the main thread: a child [1,4], and run_batch [5,9]
    # whose two jobs ran at once on pool threads ([5,8] with a nested
    # [5,6], and [6,9]).
    spans = [
        Span(1, "bench.unit", 0.0, 10.0, 0, 0, 1),
        Span(2, "core.mutate", 1.0, 4.0, 1, 0, 1),
        Span(3, "evalpool.run_batch", 5.0, 9.0, 1, 0, 1),
        Span(4, "op.Join.evaluate", 5.0, 8.0, 3, 0, 2),
        Span(5, "op.Join.work_profile", 5.0, 6.0, 4, 0, 2),
        Span(6, "op.Join.evaluate", 6.0, 9.0, 3, 0, 3),
    ]
    own = layers.attribute(spans)
    # The jobs cover 4 s of run_batch with 6 s of busy time: scale 2/3.
    assert own == pytest.approx({1: 3.0, 2: 3.0, 3: 0.0, 4: 4 / 3, 5: 2 / 3, 6: 2.0})
    seconds, calls, total = layers.self_times_by_name(spans)
    assert total == 10.0 and sum(seconds.values()) == pytest.approx(10.0)
    assert seconds["op.Join.evaluate"] == pytest.approx(10 / 3)
    assert calls["op.Join.evaluate"] == 2


def test_spans_outside_roots_are_not_attributed():
    spans = [
        Span(1, "workloads.generate", 0.0, 2.0, 0, layers.NO_REQUEST, 1),
        Span(2, "bench.request", 3.0, 4.0, 0, 7, 1),
        # a server-side span of request 7 and one of a warm-up request
        Span(3, "engine.run", 3.2, 3.7, 0, 7, 9),
        Span(4, "engine.run", 2.2, 2.7, 0, -1, 9),
    ]
    seconds, calls, total = layers.self_times_by_name(layers.link_requests(spans))
    assert total == 1.0
    assert seconds == pytest.approx({"bench.request": 0.5, "engine.run": 0.5})
    assert layers.request_self_ms(layers.link_requests(spans)) == pytest.approx([500.0])


def test_tracer_parents_pool_thread_spans_to_the_batch():
    tracer = layers.Tracer()
    outer, batch, job = (tracer.name_id(n) for n in ("bench.unit", "evalpool.run_batch",
                                                     "op.Join.evaluate"))

    def run_batch():
        worker = threading.Thread(target=tracer.call, args=(job, lambda: None, (), {}))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    tracer.call(outer, tracer.call, (batch, run_batch, (), {}), {"cross": True})
    by_name = {s.name: s for s in tracer.spans()}
    assert by_name["op.Join.evaluate"].parent == by_name["evalpool.run_batch"].id
    assert by_name["evalpool.run_batch"].parent == by_name["bench.unit"].id
    assert by_name["op.Join.evaluate"].thread != by_name["bench.unit"].thread
