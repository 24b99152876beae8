"""End-to-end benchmark: host time of adaptive instances and served queries.

    python3 benchmarks/e2e/run.py --workload adapt-scan [--seed N]
        [--seconds S] [--trace 0|1] [--trace-dir DIR] [--out FILE]

Runs one workload (``adapt-scan``, ``adapt-join``, ``serve-sim`` or
``serve-sql``; see README.md) from the root of a source checkout.  With
``--trace 0`` it starts the workload in fresh child processes with
tracing off: two that only set up, and one that also measures whole
units of work for ``--seconds`` and checks every answer.  It prints each
end-to-end metric of ``BENCHMARK.json`` as ``workload metric value
unit``.  ``--trace 1`` is a separate run: the child wraps each layer's
public entry points (``layers.py``), writes spans and a per-layer table
under ``--trace-dir`` and prints the per-layer metrics instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when every answer checked out, 1 when an oracle failed or the run
broke, and 2 when the checkout has no ``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

WORKLOADS = ("adapt-scan", "adapt-join", "serve-sim", "serve-sql")
DEFAULT_SEED = 1
#: Fresh processes whose set-up time is sampled; setup_s is their median.
SETUP_SAMPLES = 3
#: Children still running this long after the start are killed.
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict[str, str]:
    """The caller's environment without ``REPRO_*`` knobs, ``src`` first."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, mode: str, deadline: float) -> dict:
    """Run one child sample; returns the JSON object it printed last."""
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode, "--trace-dir", str(args.trace_dir)]
    if args.quick:
        cmd.append("--quick")
    cmd += ["--spawned-at", repr(time.time())]
    # A session of its own, so the child and any server it started can
    # be stopped together.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            env=child_env(), start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} child ran past the {DEADLINE_S:.0f} s budget") from None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{mode} child exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def host() -> dict:
    import numpy

    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine()}


def measure(args, spec: dict, deadline: float) -> tuple[dict, dict]:
    setups = [spawn(args, "setup", deadline)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    child = spawn(args, "measure", deadline)
    setups.append(child["setup_s"])
    values = {"setup_s": statistics.median(setups), **child}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["end_to_end"]}
    child["setup_samples"] = setups
    return metrics, child


def trace(args, spec: dict, deadline: float) -> tuple[dict, dict]:
    child = spawn(args, "trace", deadline)
    print(child["table"])
    values = child["layers"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in spec["per_layer"]}
    return metrics, child


def main(argv: list[str] | None = None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir", type=Path, default=HERE / "results" / "trace")
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the full result document here")
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs for the self-test; not comparable")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} is not a source checkout (no src/repro or "
              "BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    args.trace_dir = args.trace_dir.resolve()
    # SIGTERM unwinds through spawn()'s finally, so children die too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + DEADLINE_S
    try:
        metrics, child = (trace if args.trace else measure)(args, spec, deadline)
    except BenchError as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    for check in child["checks"]:
        print(f"{args.workload} check {'ok' if check['ok'] else 'FAIL'}: "
              f"{check['name']} {check['detail']}".rstrip())
    for name, detail in child.get("details", {}).items():
        print(f"{args.workload} detail {name} {detail:.6g}")
    if "p90_ms" in child:
        # Not gated: its run-to-run spread is wider than any bound allows.
        print(f"{args.workload} info p90_ms {child['p90_ms']:.6g} ms "
              f"(n={child['requests']})")
    for name, metric in metrics.items():
        print(f"{args.workload} {name} {metric['value']:.6g} {metric['unit']}")
    result = {"correct": child["correct"], "attempted": child["attempted"],
              "failed": child["failed"], "metrics": metrics}
    if args.out is not None:
        document = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "quick": args.quick, "host": host(),
            "digest": child["digest"], "details": child.get("details", {}),
            "checks": child["checks"], "requests": child.get("requests"),
            "p90_ms": child.get("p90_ms"),
            "units": child.get("units"), "setup_samples": child.get("setup_samples"),
            **result,
        }
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(document, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if child["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
