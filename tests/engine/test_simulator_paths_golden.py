"""Byte-pinned profiles of the simulator paths no other golden covers.

Two configurations of the two-socket machine run heuristically
parallelized TPC-H plans (sf=1), each alone and as three concurrent
submissions on one :class:`~repro.engine.Simulator`:

* **noise on** -- the jitter-and-peaks model of Figure 11, so every
  dispatch draws from the simulator's generator;
* **strict NUMA** -- ``numa_first_touch=False`` with
  ``numa_remote_factor=0.5``, so intermediates are homed on their
  producer's socket and remote readers run at half bandwidth.

Every response time and every :class:`~repro.engine.OpRecord` field is
recorded, floats as ``float.hex`` and the node as its position in the
plan's topological order (raw ``nid``s come from a process-global
counter).  Any change to dispatch order, thread placement, noise draw
order, NUMA homing or the rate model fails here byte for byte.

The evaluation pool follows ``REPRO_TEST_WORKERS`` (see
``tests/conftest.py``): the pinned bytes must not depend on it.

Regenerate only for an intentional change of simulated results, with
``pytest tests/engine/test_simulator_paths_golden.py --regen-golden``,
and review the diff.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.config import NoiseConfig, SimulationConfig, two_socket_machine
from repro.core import HeuristicParallelizer
from repro.engine import EvalPool, Simulator
from repro.workloads import TpchDataset

GOLDEN = Path(__file__).parent / "golden" / "simulator_paths.json"

#: The interference model of Figure 11 (``bench fig11``).
FIG11_NOISE = NoiseConfig(jitter=0.05, peak_probability=0.02, peak_magnitude=12.0)


def _configs() -> dict[str, SimulationConfig]:
    base = SimulationConfig(machine=two_socket_machine(), seed=4242)
    strict = replace(
        two_socket_machine(), numa_first_touch=False, numa_remote_factor=0.5
    )
    return {
        "noise": base.with_noise(FIG11_NOISE),
        "strict_numa": base.with_machine(strict),
    }


def _profile(plan, result) -> dict:
    index = {node.nid: i for i, node in enumerate(plan.nodes())}
    profile = result.profile
    return {
        "response_time": profile.response_time.hex(),
        "submit_time": profile.submit_time.hex(),
        "peak_memory_bytes": profile.peak_memory_bytes.hex(),
        "records": [
            [
                index[r.node.nid],
                r.kind,
                r.describe,
                r.start.hex(),
                r.end.hex(),
                r.thread_id,
                r.socket_id,
                r.cpu_cycles.hex(),
                r.mem_bytes.hex(),
                r.tuples_in,
                r.tuples_out,
            ]
            for r in profile.records
        ],
    }


def _run(config: SimulationConfig, plans, workers: int | None) -> dict:
    pool = EvalPool(workers) if workers is not None else None
    try:
        sim = Simulator(config, evalpool=pool)
        sids = [sim.submit(plan) for plan in plans]
        sim.run()
        return {
            "peaks_injected": sim.noise.peaks_injected,
            "submissions": [
                _profile(plan, sim.result(sid)) for plan, sid in zip(plans, sids)
            ],
        }
    finally:
        if pool is not None:
            pool.close()


def _document(workers: int | None) -> dict:
    dataset = TpchDataset(scale_factor=1)
    hp = HeuristicParallelizer(8)
    q6 = hp.parallelize(dataset.plan("q6"))
    q14 = hp.parallelize(dataset.plan("q14"))
    doc = {}
    for name, config in _configs().items():
        doc[f"{name}_alone"] = _run(config, [q14], workers)
        # The same q6 template twice: two submissions share one layout.
        doc[f"{name}_concurrent"] = _run(config, [q6, q14, q6], workers)
    return doc


def _payload(doc: dict) -> str:
    """``doc`` as JSON with one record per line, for reviewable diffs."""
    parts = []
    for name, entry in doc.items():
        subs = []
        for sub in entry["submissions"]:
            head = {key: value for key, value in sub.items() if key != "records"}
            rows = ",\n".join(f"    {json.dumps(row)}" for row in sub["records"])
            subs.append(
                f"  {json.dumps(head, sort_keys=True)[:-1]}, "
                f'"records": [\n{rows}\n  ]}}'
            )
        parts.append(
            f'{json.dumps(name)}: {{"peaks_injected": {entry["peaks_injected"]}, '
            f'"submissions": [\n' + ",\n".join(subs) + "\n]}"
        )
    return "{\n" + ",\n".join(parts) + "\n}\n"


def test_simulator_paths_match_golden(regen_golden, host_workers):
    doc = _document(host_workers)
    payload = _payload(doc)
    assert json.loads(payload) == doc
    if regen_golden:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(payload)
        pytest.skip(f"regenerated {GOLDEN.name}")
    assert payload == GOLDEN.read_text(), (
        "a simulated profile changed; if intentional, regenerate with "
        "--regen-golden and review the diff"
    )
