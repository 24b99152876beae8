"""Host wall-clock of adaptive instances: memo off/on, pool worker sweep.

Unlike the fig* benchmarks this one measures *host* seconds, not
simulated time: a full adaptive-parallelization instance is driven per
workload uncached at every swept evaluation-pool worker count, then
once more with the shared ``IntermediateCache`` -- and all traces are
cross-checked for bit-identical simulated results.  ``repro bench
wallclock`` is the CLI entry point; this file makes the same run part
of the benchmark suite and pins the regression gates.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.bench.gates import check_gates
from repro.bench.wallclock import INVARIANTS, format_report, run_wallclock

RESULTS_DIR = Path(__file__).parent / "results"


def test_wallclock_quick(benchmark):
    report = benchmark.pedantic(
        run_wallclock, args=(True,), kwargs={"workers": (2,)}, rounds=1, iterations=1
    )
    print("\n" + format_report(report))
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "wallclock_quick.json").write_text(
        json.dumps(report, indent=2) + "\n"
    )
    # Results must be indistinguishable from the uncached serial engine,
    # cross-run reuse must stay high (the adaptive loop re-executes
    # almost the same plan every run), and pooled evaluation may cost at
    # most 50% over workers=1 even on single-core CI runners.
    check_gates(
        report,
        ["summary.min_hit_rate>=0.5", "summary.max_worker_slowdown<=1.5"],
        INVARIANTS,
    )
