"""Host-side parallel evaluation of ready operators.

The simulator schedules operators on *simulated* cores, but the real
numpy work of ``Operator.evaluate``/``work_profile`` used to run
serially on one host core.  Every dispatch round of
:class:`~repro.engine.scheduler.Simulator` collects the operators whose
inputs are all materialized -- by construction they are mutually
independent, so their host evaluation is embarrassingly parallel.  The
:class:`EvalPool` runs one such batch inline or on a thread pool
(:mod:`repro.engine.backends`) and returns results **in submission
order**.

Determinism contract: the pool only ever computes pure functions of
already-materialized inputs, and the scheduler consumes the results
through a dispatch-order commit barrier (see
``Simulator._commit_dispatch``).  Simulated times, noise draws, memo
counters, profiles, and query outputs are therefore bit-identical for
any worker count *and either backend*, including ``workers=1`` (which
evaluates inline and never starts a thread).

That contract is *enforced*, not assumed: when the scheduler hands the
pool the operators behind a batch (``run_batch(jobs, ops)``), every
operator class is checked against its parallel-safety certificate
(:mod:`repro.analysis.certificates`) before any work leaves the main
thread.  The gate is **fail-closed** -- an operator with no
certificate, or whose static analysis found effects, raises
:class:`~repro.errors.UncertifiedKernelError` instead of being
dispatched.  Inline evaluation (``workers=1`` or a below-threshold
batch) is never gated: single-threaded execution cannot race.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Sequence

from ..errors import ReproError
from .backends import ThreadBackend, resolve_backend_name

#: Batches smaller than this are evaluated inline even when a pool is
#: available -- submitting one job to a worker costs more than it saves.
MIN_PARALLEL_BATCH = 2

#: Bucket bounds of the host-side batch-size histogram: dispatch rounds
#: rarely free more than a few dozen operators at once.
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


def _cgroup_cpu_limit(base: str = "/sys/fs/cgroup") -> int | None:
    """The container's CPU quota in whole CPUs, or None when unlimited.

    Reads cgroup v2 (``cpu.max``: ``"<quota> <period>"`` or ``"max ..."``)
    first, then cgroup v1 (``cpu/cpu.cfs_quota_us`` / ``cpu.cfs_period_us``,
    quota ``-1`` meaning unlimited).  A fractional quota rounds *down*
    (0.5 CPU is one worker at half speed, not two at quarter speed) but
    never below one.
    """
    try:
        with open(os.path.join(base, "cpu.max"), encoding="ascii") as fh:
            quota_s, _, period_s = fh.read().strip().partition(" ")
        if quota_s != "max":
            quota, period = int(quota_s), int(period_s or "100000")
            if quota > 0 and period > 0:
                return max(1, quota // period)
        return None
    except (OSError, ValueError):
        pass
    try:
        with open(
            os.path.join(base, "cpu", "cpu.cfs_quota_us"), encoding="ascii"
        ) as fh:
            quota = int(fh.read().strip())
        with open(
            os.path.join(base, "cpu", "cpu.cfs_period_us"), encoding="ascii"
        ) as fh:
            period = int(fh.read().strip())
        if quota > 0 and period > 0:
            return max(1, quota // period)
    except (OSError, ValueError):
        pass
    return None


def default_workers(_cgroup_base: str = "/sys/fs/cgroup") -> int:
    """CPUs actually usable by this process (the default ``--workers``).

    Unlike raw ``os.cpu_count()``, this respects the scheduling mask
    (taskset/K8s cpusets) via ``os.process_cpu_count()`` (3.13+) or
    ``os.sched_getaffinity``, and the container CPU *quota* via the
    cgroup filesystem -- a pod limited to 2 CPUs on a 64-core node gets
    2 workers, not 64 threads fighting over 2 cores.

    Memoized per process (keyed on the cgroup base, so tests probing
    synthetic cgroup trees stay independent): affinity and quota don't
    change mid-run, and the cgroup filesystem reads were showing up in
    the host timings of adaptive instances.  Use
    ``default_workers.cache_clear()`` to force a re-probe.
    """
    return _default_workers_uncached(_cgroup_base)


@functools.lru_cache(maxsize=None)
def _default_workers_uncached(_cgroup_base: str) -> int:
    count: int | None = None
    process_cpu_count = getattr(os, "process_cpu_count", None)
    if process_cpu_count is not None:
        count = process_cpu_count()
    if count is None:
        try:
            count = len(os.sched_getaffinity(0))
        except (AttributeError, OSError):
            count = None
    if count is None:
        count = os.cpu_count()
    count = max(1, count or 1)
    quota = _cgroup_cpu_limit(_cgroup_base)
    if quota is not None and quota < count:
        count = quota
    return count


default_workers.cache_clear = _default_workers_uncached.cache_clear  # type: ignore[attr-defined]
default_workers.cache_info = _default_workers_uncached.cache_info  # type: ignore[attr-defined]


class EvalFailure:
    """A settled evaluation error: the kernel raised instead of returning.

    Failures travel through the batch as *values* so a raising operator
    cannot abort its siblings mid-flight: every job runs, results come
    back in submission order, and the scheduler's dispatch-order commit
    barrier decides -- deterministically, at any worker count -- which
    submission a failure kills and whether it propagates or is retried.
    """

    __slots__ = ("error",)

    def __init__(self, error: Exception) -> None:
        self.error = error

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"EvalFailure({self.error!r})"


def settle_job(job: Callable[[], Any]) -> Callable[[], Any]:
    """Wrap ``job`` so an exception settles into an :class:`EvalFailure`.

    ``KeyboardInterrupt``/``SystemExit`` still propagate; everything
    else -- genuine operator bugs and injected chaos alike -- is
    captured for the commit barrier to resolve in dispatch order.
    """

    def settled() -> Any:
        try:
            return job()
        except Exception as exc:  # noqa: BLE001 - settled by design
            return EvalFailure(exc)

    return settled


@dataclass(frozen=True)
class PoolStats:
    """Host-side counters of one :class:`EvalPool` (immutable snapshot).

    All values are numeric -- the observability layer exports every
    entry of :meth:`as_dict` as a gauge (``float(value)``), so the
    backend *name* is deliberately not part of the stats (it lives on
    :attr:`EvalPool.backend`).
    """

    batches: int = 0
    parallel_batches: int = 0
    jobs: int = 0
    inline_jobs: int = 0
    eval_seconds: float = 0.0
    max_batch: int = 0
    #: Thread-backend counters (``shipped_jobs``); empty until the
    #: pool first runs a parallel batch.
    backend_stats: dict[str, float | int] = field(default_factory=dict)

    def as_dict(self) -> dict[str, float | int]:
        """JSON-ready counters (published by :meth:`Observer.record_pool`)."""
        doc: dict[str, float | int] = {
            "batches": self.batches,
            "parallel_batches": self.parallel_batches,
            "jobs": self.jobs,
            "inline_jobs": self.inline_jobs,
            "eval_seconds": round(self.eval_seconds, 4),
            "max_batch": self.max_batch,
        }
        doc.update(self.backend_stats)
        return doc


class EvalPool:
    """Evaluates batches of independent jobs, preserving batch order.

    ``workers=1`` is the degenerate inline pool: no threads are created
    and ``run_batch`` is a plain loop.  ``workers>1`` lazily creates a
    :class:`~repro.engine.backends.ThreadBackend` on first use and
    keeps it alive across batches (an adaptive instance runs tens of
    thousands of dispatch rounds; thread startup must not be paid per
    round).

    ``backend`` picks where parallel batches run -- ``"inline"`` or
    ``"thread"`` (default; see :mod:`repro.engine.backends`); ``None``
    defers to the ``REPRO_EVAL_BACKEND`` environment variable.
    """

    def __init__(
        self,
        workers: int | None = None,
        *,
        backend: str | None = None,
        certificates: Any = None,
    ) -> None:
        workers = default_workers() if workers is None else int(workers)
        if workers < 1:
            raise ReproError(f"evaluation pool needs >= 1 worker, got {workers}")
        self.workers = workers
        #: Resolved backend name; validation (and any
        #: ``BackendUnavailableError``) happens eagerly here so callers
        #: fail at pool construction, not mid-run.
        self.backend = resolve_backend_name(backend)
        #: Parallel-safety certificate registry consulted before any
        #: operator-backed batch goes parallel.  ``None`` means the
        #: process-wide default registry, resolved lazily on first use
        #: so pools for thunk-only callers never pay for it.
        self._certificates = certificates
        self._backend_impl: ThreadBackend | None = None
        self._closed = False
        self._batches = 0
        self._parallel_batches = 0
        self._jobs = 0
        self._inline_jobs = 0
        self._eval_seconds = 0.0
        self._max_batch = 0
        #: Optional :class:`repro.observe.Observer` (wired by the
        #: simulator): batch sizes feed a *host* histogram -- whether a
        #: pool exists at all depends on the caller's worker setting, so
        #: the family is excluded from canonical output.
        self.observe = None

    # ------------------------------------------------------------------
    def _gate(self, ops: Sequence[Any]) -> None:
        """Refuse uncertified kernels before they leave the main thread."""
        if self._certificates is None:
            from ..analysis.certificates import default_registry

            self._certificates = default_registry()
        for op in ops:
            self._certificates.check(op)

    def _ensure_backend(self) -> ThreadBackend:
        if self._backend_impl is None:
            if self._closed:
                raise ReproError("evaluation pool is closed")
            self._backend_impl = ThreadBackend(self.workers)
        return self._backend_impl

    def run_batch(
        self,
        jobs: Sequence[Callable[[], Any]],
        ops: Sequence[Any] | None = None,
    ) -> list[Any]:
        """Evaluate every job; results come back in ``jobs`` order.

        A job that raises aborts the batch: the first exception in
        batch order propagates (the same exception the serial engine
        would have raised first), after all submitted jobs have run.

        ``ops`` are the operator instances behind the jobs (aligned
        with ``jobs``); when given, each is certificate-checked before
        the batch goes parallel, and the thread backend times them to
        decide where their next batch runs.  Thunk-only callers omit
        them and are not gated -- they own their thread-safety story.
        """
        n = len(jobs)
        self._batches += 1
        self._jobs += n
        if n > self._max_batch:
            self._max_batch = n
        if self.observe is not None:
            self.observe.metrics.histogram(
                "repro_pool_batch_jobs",
                BATCH_SIZE_BUCKETS,
                "jobs per host evaluation batch",
                host=True,
            ).observe(float(n))
        start = perf_counter()
        try:
            if (
                self.workers == 1
                or n < MIN_PARALLEL_BATCH
                or self.backend == "inline"
            ):
                self._inline_jobs += n
                return [job() for job in jobs]
            backend = self._ensure_backend()
            if ops is not None:
                self._gate(ops)
            self._parallel_batches += 1
            return backend.run(jobs, ops)
        finally:
            self._eval_seconds += perf_counter() - start

    # ------------------------------------------------------------------
    def stats(self) -> PoolStats:
        """An immutable snapshot of the pool's host-side counters."""
        extra: dict[str, float | int] = {}
        if self._backend_impl is not None:
            extra = self._backend_impl.extra_stats()
        return PoolStats(
            batches=self._batches,
            parallel_batches=self._parallel_batches,
            jobs=self._jobs,
            inline_jobs=self._inline_jobs,
            eval_seconds=self._eval_seconds,
            max_batch=self._max_batch,
            backend_stats=extra,
        )

    def close(self) -> None:
        """Release the backend (idempotent, safe to call from atexit).

        After close the pool refuses new parallel batches instead of
        silently restarting threads; inline evaluation still works, so a
        close racing a final below-threshold batch cannot crash.
        """
        self._closed = True
        impl, self._backend_impl = self._backend_impl, None
        if impl is not None:
            impl.close()

    def __enter__(self) -> "EvalPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"EvalPool(workers={self.workers}, backend={self.backend!r}, "
            f"batches={self._batches})"
        )
