"""Pluggable evaluation backends: selection, worker sizing, and the
process pool's shipping mechanics.

The backend x workers determinism sweeps that used to live here were
consolidated into ``tests/integration/test_determinism_matrix.py``;
this module keeps the backend-registry, ``default_workers``, and
process-boundary (shared memory, certification, spawn) unit tests.
"""

from __future__ import annotations

import threading
import time

import pytest

import repro.engine.backends as backends
from repro.analysis.certificates import CertificateRegistry
from repro.core.adaptive import intermediates_equal
from repro.engine import EvalPool, execute
from repro.engine.backends import (
    ProcessBackend,
    ThreadBackend,
    available_backends,
    create_backend,
    resolve_backend_name,
)
from repro.engine.evalpool import _cgroup_cpu_limit, default_workers
from repro.engine.shm import shared_memory_available
from repro.errors import BackendUnavailableError, ReproError, UncertifiedKernelError
from repro.operators import RangePredicate
from repro.plan import PlanBuilder

needs_shm = pytest.mark.skipif(
    not shared_memory_available(), reason="multiprocessing.shared_memory missing"
)


def q1_style_plan(catalog):
    builder = PlanBuilder(catalog)
    sel = builder.select(builder.scan("facts", "val"), RangePredicate(hi=700))
    proj = builder.fetch(sel, builder.scan("facts", "qty"))
    return builder.build(builder.aggregate("sum", proj))


@pytest.fixture()
def ship_everything(monkeypatch):
    """Force the process backend to ship every job through shared memory
    (test datasets are small enough that the 16 KiB inline threshold
    would otherwise keep most kernels on the main thread)."""
    monkeypatch.setattr(backends, "PROCESS_MIN_SHIP_BYTES", 0)


class TestRegistry:
    def test_core_backends_registered(self):
        names = available_backends()
        for name in ("inline", "thread", "process", "subinterpreter"):
            assert name in names

    def test_default_is_thread(self, monkeypatch):
        monkeypatch.delenv(backends.BACKEND_ENV, raising=False)
        assert resolve_backend_name(None) == "thread"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(backends.BACKEND_ENV, "inline")
        assert resolve_backend_name(None) == "inline"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(backends.BACKEND_ENV, "inline")
        assert resolve_backend_name("process") == "process"

    def test_unknown_backend_rejected(self):
        with pytest.raises(BackendUnavailableError, match="unknown"):
            resolve_backend_name("gpu")

    def test_subinterpreter_is_a_stub(self):
        with pytest.raises(BackendUnavailableError, match="stub"):
            create_backend("subinterpreter", 2)


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

    def test_unknown_backend_fails_at_construction(self):
        with pytest.raises(BackendUnavailableError):
            EvalPool(4, backend="gpu")

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


@needs_shm
class TestProcessBackend:
    def test_ships_jobs_through_shared_memory(
        self, small_catalog, sim_config, ship_everything
    ):
        from repro.core import HeuristicParallelizer

        # A partitioned plan frees several siblings per dispatch round,
        # so batches clear MIN_PARALLEL_BATCH and actually ship.
        def plan():
            return HeuristicParallelizer(4).parallelize(
                q1_style_plan(small_catalog)
            )

        baseline = execute(plan(), sim_config)
        pool = EvalPool(2, backend="process")
        try:
            result = execute(plan(), sim_config, evalpool=pool)
            stats = pool.stats()
        finally:
            pool.close()
        assert result.response_time == baseline.response_time
        assert intermediates_equal(result.outputs[0], baseline.outputs[0])
        assert stats.backend_stats["shipped_jobs"] > 0
        assert stats.backend_stats["published_columns"] > 0
        # Everything observability exports must be numeric.
        assert all(
            float(v) == float(v) for v in stats.as_dict().values()
        )

    # The backend x workers determinism sweeps (plain execution, the
    # adaptive trace + memo counters, chaos canonical bytes) moved to
    # the consolidated matrix in
    # tests/integration/test_determinism_matrix.py.

    def test_spawn_start_method(
        self, small_catalog, sim_config, ship_everything, monkeypatch
    ):
        """Spawned (not forked) workers attach and evaluate correctly."""
        import multiprocessing

        if "spawn" not in multiprocessing.get_all_start_methods():
            pytest.skip("spawn start method unavailable")
        monkeypatch.setenv(backends.PROCESS_START_ENV, "spawn")
        baseline = execute(q1_style_plan(small_catalog), sim_config)
        result = execute(
            q1_style_plan(small_catalog), sim_config, workers=2, backend="process"
        )
        assert result.response_time == baseline.response_time
        assert intermediates_equal(result.outputs[0], baseline.outputs[0])

    def test_unknown_start_method_rejected(self, monkeypatch):
        monkeypatch.setenv(backends.PROCESS_START_ENV, "teleport")
        with pytest.raises(BackendUnavailableError, match="teleport"):
            ProcessBackend(2)

    def test_thunk_only_batches_stay_on_main_thread(self):
        with EvalPool(2, backend="process") as pool:
            main = threading.get_ident()
            seen = pool.run_batch([threading.get_ident for _ in range(8)])
            assert set(seen) == {main}

    def test_uncertified_op_refused_at_process_boundary(self, small_catalog):
        # A locally-defined class is pure (thread-safe) but cannot be
        # pickled across a process boundary: thread dispatch passes,
        # process dispatch fails closed.
        class LocalOp:
            def evaluate(self, inputs):
                return inputs[0]

            def work_profile(self, inputs, output):
                return None

        op = LocalOp()
        registry = CertificateRegistry()
        cert = registry.check(op, "thread")
        assert cert.pure and not cert.shared_memory_eligible
        with pytest.raises(UncertifiedKernelError, match="process boundary"):
            registry.check(op, "process")
        with EvalPool(2, backend="process") as pool:
            jobs = [lambda: 1, lambda: 2]
            with pytest.raises(UncertifiedKernelError, match="process boundary"):
                pool.run_batch(jobs, ops=[op, op], inputs=[[], []])


class TestUnavailableSharedMemory:
    def test_process_backend_fails_closed(self, monkeypatch):
        monkeypatch.setattr(backends, "shared_memory_available", lambda: False)
        with pytest.raises(BackendUnavailableError, match="shared_memory"):
            ProcessBackend(2)
        # Name resolution still works (the error surfaces when the pool
        # first needs the backend, with an actionable message) ...
        pool = EvalPool(2, backend="process")
        with pytest.raises(BackendUnavailableError):
            pool.run_batch([lambda: 1, lambda: 2], ops=None, inputs=None)
        pool.close()
        # ... and every other backend keeps working.
        with EvalPool(2, backend="thread") as pool:
            assert pool.run_batch([lambda: 1, lambda: 2]) == [1, 2]
