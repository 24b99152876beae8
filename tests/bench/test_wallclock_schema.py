"""Unit tests for the wall-clock report helpers (no heavy runs)."""

from __future__ import annotations

import pytest

from repro.bench.gates import check_gates
from repro.bench.wallclock import (
    INVARIANTS,
    SCHEMA,
    resolve_backends,
    resolve_workers,
)
from repro.errors import BackendUnavailableError, ReproError


class TestResolveWorkers:
    def test_default_includes_one_and_host(self):
        counts = resolve_workers(None)
        assert counts[0] == 1
        assert counts == tuple(sorted(set(counts)))

    def test_explicit_list_keeps_one_and_dedupes(self):
        assert resolve_workers([4, 2, 4]) == (1, 2, 4)

    def test_one_alone_collapses(self):
        assert resolve_workers([1]) == (1,)

    def test_rejects_nonpositive(self):
        with pytest.raises(ReproError):
            resolve_workers([0])


class TestResolveBackends:
    def test_default_is_thread(self):
        assert resolve_backends(None) == ("thread",)

    def test_dedupes_preserving_order(self):
        assert resolve_backends(["thread", "inline", "thread"]) == (
            "thread",
            "inline",
        )

    def test_unknown_backend_rejected_up_front(self):
        with pytest.raises(BackendUnavailableError):
            resolve_backends(["gpu"])


def _report(
    *,
    identical: bool = True,
    hit_rate: float = 0.9,
    speedup: float = 2.0,
    slowdown: float = 1.0,
) -> dict:
    by_backend = {"thread": 1.0 / slowdown if slowdown else 0.0}
    return {
        "schema": SCHEMA,
        "quick": True,
        "host_cpus": 1,
        "workers_swept": [1, 2],
        "backends_swept": sorted(by_backend),
        "workloads": [{"name": "w", "identical": identical}],
        "summary": {
            "min_wallclock_speedup": speedup,
            "min_worker_speedup": max(by_backend.values(), default=0.0),
            "worker_speedup_by_backend": by_backend,
            "max_worker_slowdown": slowdown,
            "min_hit_rate": hit_rate,
            "all_identical": identical,
        },
    }


def check_report(report: dict, *gates: str) -> None:
    check_gates(report, gates, INVARIANTS)


class TestCheckReport:
    def test_passes_within_gates(self):
        check_report(
            _report(),
            "summary.min_hit_rate>=0.5",
            "summary.min_wallclock_speedup>=1.0",
            "summary.max_worker_slowdown<=1.2",
        )

    def test_divergence_always_fails(self):
        with pytest.raises(ReproError, match="summary.all_identical is False"):
            check_report(_report(identical=False))

    def test_hit_rate_gate(self):
        with pytest.raises(ReproError, match="summary.min_hit_rate is 0.1"):
            check_report(_report(hit_rate=0.1), "summary.min_hit_rate>=0.5")

    def test_speedup_gate(self):
        with pytest.raises(ReproError, match="min_wallclock_speedup"):
            check_report(_report(speedup=1.1), "summary.min_wallclock_speedup>=1.5")

    def test_worker_slowdown_gate(self):
        with pytest.raises(ReproError, match="max_worker_slowdown is 1.4"):
            check_report(_report(slowdown=1.4), "summary.max_worker_slowdown<=1.15")

    def test_worker_slowdown_unchecked_by_default(self):
        check_report(_report(slowdown=3.0))
