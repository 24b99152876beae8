"""Compare two sets of end-to-end benchmark results.

    python3 benchmarks/e2e/compare.py BASE NEW

BASE and NEW are result files written by ``run.py --out`` (untraced
runs), or directories holding them.  One row is printed per workload and
end-to-end metric: each side's median and quartiles, the pair record
(runs with equal seeds are paired; without common seeds, runs pair in
order) and a verdict, using the bounds in ``BENCHMARK.json``:

* ``unresolved`` -- either side's spread (quartile distance over the
  median) exceeds the bound, unless every NEW run beats every BASE run;
* ``better`` -- NEW wins at least 9 of 10 pairs (ties count for
  neither) and the medians differ by more than BASE's quartile distance;
* ``worse`` -- NEW's median is worse than BASE's by more than the bound;
* ``unchanged`` -- anything else.

Runs of one workload and seed must have generated identical inputs: a
digest mismatch refuses the comparison (exit 2).  The simulated details
(GME speedup, runs to GME, simulated throughput...) must also be
identical per seed; a difference is listed.  Exit code 1 means some
metric is worse or unresolved or a simulated detail changed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load(path: Path) -> dict[str, list[dict]]:
    """Untraced result documents under ``path``, grouped by workload."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs: dict[str, list[dict]] = defaultdict(list)
    for file in files:
        doc = json.loads(file.read_text())
        if doc.get("trace") == 0:
            runs[doc["workload"]].append(doc)
    return runs


def summary(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(base: list[dict], new: list[dict], metric: str) -> list[tuple[float, float]]:
    by_seed = {doc["seed"]: doc for doc in new}
    common = [doc for doc in base if doc["seed"] in by_seed]
    if common:
        return [(doc["metrics"][metric]["value"], by_seed[doc["seed"]]["metrics"][metric]["value"])
                for doc in common]
    return [(a["metrics"][metric]["value"], b["metrics"][metric]["value"])
            for a, b in zip(base, new)]


def verdict(base: list[float], new: list[float], matched: list[tuple[float, float]],
            better: str, bound: float) -> tuple[str, int, int]:
    """(verdict, pairs won by NEW, pairs run)."""
    sign = -1.0 if better == "lower" else 1.0
    b1, bmed, b3 = summary(base)
    n1, nmed, n3 = summary(new)
    wins = sum(1 for a, b in matched if sign * (b - a) > 0)
    dominates = max(new) < min(base) if better == "lower" else min(new) > max(base)
    if dominates:
        return "better", wins, len(matched)
    if (b3 - b1) / abs(bmed) > bound or (n3 - n1) / abs(nmed) > bound:
        return "unresolved", wins, len(matched)
    if matched and wins >= 0.9 * len(matched) and abs(nmed - bmed) > (b3 - b1):
        return "better", wins, len(matched)
    if sign * (nmed - bmed) < -bound * abs(bmed):
        return "worse", wins, len(matched)
    return "unchanged", wins, len(matched)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = load(args.base), load(args.new)
    workloads = sorted(set(base) & set(new))
    if not workloads:
        print("error: the two sets share no workload", file=sys.stderr)
        return 2
    status = 0
    for workload in workloads:
        new_by_seed = {doc["seed"]: doc for doc in new[workload]}
        for doc in base[workload]:
            other = new_by_seed.get(doc["seed"])
            if other is None:
                continue
            if other["digest"] != doc["digest"]:
                print(f"error: {workload} seed {doc['seed']}: input digests differ "
                      f"({doc['digest']} vs {other['digest']}); refusing to compare",
                      file=sys.stderr)
                return 2
            if other["details"] != doc["details"]:
                print(f"{workload} seed {doc['seed']}: simulated details differ: "
                      f"{doc['details']} vs {other['details']}")
                status = 1
    print(f"{'workload':<11} {'metric':<12} {'base median [q1, q3]':>34} "
          f"{'new median [q1, q3]':>34} {'change':>8} {'wins':>6}  verdict")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [doc["metrics"][name]["value"] for doc in base[workload]]
            b = [doc["metrics"][name]["value"] for doc in new[workload]]
            matched = pairs(base[workload], new[workload], name)
            result, wins, n = verdict(a, b, matched, metric["better"], metric["bound"])
            a1, amed, a3 = summary(a)
            b1, bmed, b3 = summary(b)
            print(f"{workload:<11} {name:<12} {amed:>12.4f} [{a1:.4f}, {a3:.4f}] "
                  f"{bmed:>12.4f} [{b1:.4f}, {b3:.4f}] {(bmed - amed) / amed:>+8.2%} "
                  f"{wins:>2}/{n:<3}  {result}")
            if result in ("worse", "unresolved"):
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
