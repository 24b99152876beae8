"""Pluggable evaluation backends for the host evaluation pool.

The :class:`~repro.engine.evalpool.EvalPool` decides *what* to evaluate
(batches of independent, certified-pure operator kernels) and keeps the
determinism contract; a backend decides *where* the numpy work runs:

``inline``
    A plain loop on the main thread.  Zero overhead, zero parallelism;
    the reference everything else must be bit-identical to.
``thread``
    A persistent ``ThreadPoolExecutor``.  Cheap dispatch, shared address
    space -- but numpy kernels at this dataset scale mostly hold the GIL,
    so threads buy little wall-clock (BENCH_wallclock.json v2 measured
    ``worker_speedup`` 0.978).  A batch whose operators all evaluated
    faster than :data:`THREAD_MIN_JOB_SECONDS` last time stays on the
    calling thread.  Still the default: it is safe everywhere.
``process``
    A persistent pool of worker *processes* fed through
    :mod:`repro.engine.shm`: base columns are published once into
    shared memory, workers evaluate kernels on zero-copy views and
    return offsets / scratch-arena descriptors instead of pickled
    columns.  This is the backend that breaks the GIL ceiling.
``subinterpreter``
    Reserved registration point (PEP 734 per-interpreter GIL); selecting
    it raises :class:`~repro.errors.BackendUnavailableError` until a
    real implementation lands.

Selection: ``EvalPool(backend=...)`` > the ``REPRO_EVAL_BACKEND``
environment variable > ``"thread"``.

Every backend returns results **in submission order** and settles
kernel exceptions into :class:`~repro.engine.evalpool.EvalFailure`
values exactly like the inline path (via the pre-settled job thunks or,
for shipped process jobs, by re-settling on receive), so the
scheduler's dispatch-order commit barrier sees the same result list no
matter which backend -- or how many workers -- produced it.
"""

from __future__ import annotations

import atexit
import os
import pickle
import weakref
from concurrent.futures import ThreadPoolExecutor
from math import inf
from time import perf_counter
from typing import Any, Callable, Sequence

from ..errors import BackendUnavailableError, ReproError
from ..storage.column import Intermediate
from . import shm as shm_mod
from .shm import (
    HostCodec,
    WorkerCodec,
    collect_column_uids,
    intermediate_host_nbytes,
    shared_memory_available,
)

#: Environment variable consulted when no explicit backend is passed.
BACKEND_ENV = "REPRO_EVAL_BACKEND"

#: Environment variable overriding the multiprocessing start method of
#: the process backend (``fork`` / ``spawn`` / ``forkserver``).
PROCESS_START_ENV = "REPRO_PROCESS_START"

#: Jobs whose inputs are smaller than this are evaluated inline by the
#: process backend: a pipe round-trip costs more than the kernel.  The
#: decision depends only on input sizes (worker-invariant), so it never
#: perturbs results.
PROCESS_MIN_SHIP_BYTES = int(
    os.environ.get("REPRO_PROCESS_MIN_SHIP_BYTES", 16 * 1024)
)

#: An operator batch runs on the calling thread under the thread backend
#: when every operator in it took less host time than this at its last
#: evaluation (wherever that ran); otherwise the whole batch goes to the
#: pool.  Two pool threads running such small numpy kernels mostly pass
#: the GIL back and forth, so handing them over costs more than it saves.
#: Operators never timed always go to the pool.
THREAD_MIN_JOB_SECONDS = 1e-3

#: The default backend when neither argument nor environment chooses.
DEFAULT_BACKEND = "thread"

#: A job as the scheduler sees it: a pre-settled thunk, the operator
#: behind it, and the operator's input intermediates (None for
#: thunk-only callers that bypass the operator protocol).
Job = Callable[[], Any]


class EvalBackend:
    """Where a batch of independent, certified kernels actually runs."""

    #: Registry key and ``EvalPool.backend`` value.
    name: str = "abstract"
    #: Which certificate boundary kernels must clear: ``"none"`` (main
    #: thread), ``"thread"``, or ``"process"``.
    boundary: str = "none"

    def __init__(self, workers: int) -> None:
        self.workers = workers

    def run(
        self,
        jobs: Sequence[Job],
        ops: Sequence[Any] | None,
        inputs: Sequence[Sequence[Intermediate]] | None,
    ) -> list[Any]:
        """Evaluate every job; results in submission order."""
        raise NotImplementedError

    def extra_stats(self) -> dict[str, float | int]:
        """Numeric backend-specific counters merged into the pool stats."""
        return {}

    def close(self) -> None:
        """Release backend resources (must be idempotent)."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(workers={self.workers})"


class InlineBackend(EvalBackend):
    """The degenerate backend: a loop on the main thread."""

    name = "inline"
    boundary = "none"

    def run(
        self,
        jobs: Sequence[Job],
        ops: Sequence[Any] | None = None,
        inputs: Sequence[Sequence[Intermediate]] | None = None,
    ) -> list[Any]:
        return [job() for job in jobs]


def _timed(job: Job) -> tuple[Any, float]:
    """Run ``job``; its result and the host seconds it took."""
    start = perf_counter()
    result = job()
    return result, perf_counter() - start


class ThreadBackend(EvalBackend):
    """A persistent ``ThreadPoolExecutor`` (the historical EvalPool).

    Every operator job is timed where it runs, and the operator's last
    host time decides where its next batch runs: a batch of operators
    all timed under :data:`THREAD_MIN_JOB_SECONDS` runs on the calling
    thread, any other batch -- in particular one holding an operator
    not timed yet -- goes to the pool whole.  A one-shot execution
    therefore ships every batch; the adaptive loop, which re-runs the
    same operators, keeps its cheap kernels local.  Where a job runs
    never changes its result, so the choice may depend on host timing.
    """

    name = "thread"
    boundary = "thread"

    def __init__(self, workers: int) -> None:
        super().__init__(workers)
        self._executor: ThreadPoolExecutor | None = None
        #: Host seconds of each operator's last evaluation.
        self._seconds: weakref.WeakKeyDictionary[Any, float] = (
            weakref.WeakKeyDictionary()
        )
        self.shipped_jobs = 0

    def run(
        self,
        jobs: Sequence[Job],
        ops: Sequence[Any] | None = None,
        inputs: Sequence[Sequence[Intermediate]] | None = None,
    ) -> list[Any]:
        seconds = self._seconds
        if ops is not None and all(
            seconds.get(op, inf) < THREAD_MIN_JOB_SECONDS for op in ops
        ):
            results = []
            for op, job in zip(ops, jobs):
                start = perf_counter()
                results.append(job())
                seconds[op] = perf_counter() - start
            return results
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-eval"
            )
        self.shipped_jobs += len(jobs)
        futures = [self._executor.submit(_timed, job) for job in jobs]
        results = []
        # ``result()`` re-raises in submission order, which is the
        # dispatch order -- identical to the serial engine.  Pool timings
        # include waits for the GIL, so they err toward the pool.
        for index, future in enumerate(futures):
            result, elapsed = future.result()
            if ops is not None:
                seconds[ops[index]] = elapsed
            results.append(result)
        return results

    def extra_stats(self) -> dict[str, float | int]:
        return {"shipped_jobs": self.shipped_jobs}

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None


# ----------------------------------------------------------------------
# Process backend
# ----------------------------------------------------------------------
def _settle_remote_error(payload: bytes | Exception) -> Exception:
    if isinstance(payload, Exception):
        return payload
    try:
        error = pickle.loads(payload)
    except Exception:  # pragma: no cover - doubly-defensive
        return ReproError(f"worker error could not be decoded: {payload!r}")
    return error


def _worker_main(conn: Any) -> None:  # pragma: no cover - runs in child
    """Worker loop: attach columns lazily, evaluate, ship descriptors."""
    shm_mod.forget_inherited_segments()
    codec = WorkerCodec()
    try:
        while True:
            try:
                message = conn.recv()
            except EOFError:
                break
            if message is None:
                break
            __, generation, job_id, op, metas, encoded_inputs = message
            try:
                codec.learn(metas)
                codec.begin_job(generation)
                inputs = [
                    codec.decode_intermediate(e) for e in encoded_inputs
                ]
                output = op.evaluate(inputs)
                profile = op.work_profile(inputs, output)
                payload = ("ok", job_id, codec.encode_intermediate(output), profile)
            except Exception as exc:  # noqa: BLE001 - settled by design
                try:
                    blob = pickle.dumps(exc)
                except Exception:
                    blob = pickle.dumps(
                        ReproError(f"unpicklable worker exception: {exc!r}")
                    )
                payload = ("err", job_id, blob, None)
            conn.send(payload)
    finally:
        codec.close()
        conn.close()


class ProcessBackend(EvalBackend):
    """Persistent worker processes over shared-memory columns.

    Protocol per job: ``("job", generation, job_id, op, new_column_metas,
    encoded_inputs)`` out, ``("ok", job_id, encoded_output, profile)`` or
    ``("err", job_id, pickled_exception, None)`` back.  At most one job
    is in flight per worker (keeps pipes small and scheduling simple);
    which worker evaluates which job never influences results, so the
    assignment is free to be greedy.
    """

    name = "process"
    boundary = "process"

    def __init__(self, workers: int) -> None:
        super().__init__(workers)
        if not shared_memory_available():
            raise BackendUnavailableError(
                "the process backend needs multiprocessing.shared_memory, "
                "which this platform does not provide"
            )
        import multiprocessing

        start = os.environ.get(PROCESS_START_ENV, "").strip() or None
        methods = multiprocessing.get_all_start_methods()
        if start is None:
            start = "fork" if "fork" in methods else methods[0]
        elif start not in methods:
            raise BackendUnavailableError(
                f"start method {start!r} is not available here "
                f"(have: {', '.join(methods)})"
            )
        self._ctx = multiprocessing.get_context(start)
        self.start_method = start
        self.min_ship_bytes = PROCESS_MIN_SHIP_BYTES
        self._codec: HostCodec | None = None
        self._procs: list[Any] = []
        self._conns: list[Any] = []
        self._sent_uids: list[set[int]] = []
        self._closed = False
        self.shipped_jobs = 0
        self.inline_small_jobs = 0
        atexit.register(self.close)

    # -- lifecycle -----------------------------------------------------
    def _ensure_started(self) -> None:
        if self._codec is not None:
            return
        if self._closed:
            raise ReproError("process backend is closed")
        self._codec = HostCodec()
        for __ in range(self.workers):
            parent, child = self._ctx.Pipe(duplex=True)
            proc = self._ctx.Process(
                target=_worker_main, args=(child,), daemon=True
            )
            proc.start()
            child.close()
            self._procs.append(proc)
            self._conns.append(parent)
            self._sent_uids.append(set())

    # -- evaluation ----------------------------------------------------
    def run(
        self,
        jobs: Sequence[Job],
        ops: Sequence[Any] | None,
        inputs: Sequence[Sequence[Intermediate]] | None,
    ) -> list[Any]:
        if ops is None or inputs is None:
            # Thunk-only callers (no operator protocol): closures cannot
            # cross a process boundary, so they run on the main thread.
            return [job() for job in jobs]
        self._ensure_started()
        codec = self._codec
        assert codec is not None
        generation = codec.begin_batch()
        results: list[Any] = [None] * len(jobs)
        shipped: list[tuple[int, Any, list]] = []
        for index, op in enumerate(ops):
            job_inputs = inputs[index]
            nbytes = sum(intermediate_host_nbytes(v) for v in job_inputs)
            # Zero-input kernels (e.g. Scan) read columns from their own
            # *params*; pickling the op would copy the column through the
            # pipe and the worker could not map the result back to the
            # published original.  They have nothing to gain from shared
            # memory, so they always run on the main thread.
            if not job_inputs or nbytes < self.min_ship_bytes:
                self.inline_small_jobs += 1
                results[index] = jobs[index]()
                continue
            encoded = [codec.encode_intermediate(v) for v in job_inputs]
            shipped.append((index, op, encoded))
        if shipped:
            self._run_shipped(generation, shipped, results)
        codec.end_batch()
        return results

    def _run_shipped(
        self,
        generation: int,
        shipped: list[tuple[int, Any, list]],
        results: list[Any],
    ) -> None:
        from multiprocessing.connection import wait

        from .evalpool import EvalFailure

        codec = self._codec
        assert codec is not None
        self.shipped_jobs += len(shipped)
        pending = list(reversed(shipped))  # pop() preserves batch order
        busy: dict[Any, int] = {}
        idle = list(reversed(self._conns))
        outstanding = len(pending)
        while outstanding:
            while pending and idle:
                conn = idle.pop()
                worker = self._conns.index(conn)
                index, op, encoded = pending.pop()
                uids: set[int] = set()
                for payload in encoded:
                    collect_column_uids(payload, uids)
                fresh = sorted(uids - self._sent_uids[worker])
                metas = [codec.registry.meta(uid) for uid in fresh]
                conn.send(("job", generation, index, op, metas, encoded))
                self._sent_uids[worker].update(fresh)
                busy[conn] = index
            for conn in wait(list(busy)):
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    index = busy[conn]
                    raise ReproError(
                        f"evaluation worker died while running batch job "
                        f"{index}; the host pool is unusable -- recreate "
                        "the EvalPool"
                    ) from None
                kind, index, payload, profile = message
                if kind == "ok":
                    value = codec.decode_intermediate(payload)
                    results[index] = (value, profile)
                else:
                    results[index] = EvalFailure(_settle_remote_error(payload))
                del busy[conn]
                idle.append(conn)
                outstanding -= 1

    def extra_stats(self) -> dict[str, float | int]:
        stats: dict[str, float | int] = {
            "shipped_jobs": self.shipped_jobs,
            "inline_small_jobs": self.inline_small_jobs,
        }
        if self._codec is not None:
            stats["published_columns"] = len(self._codec.registry)
            stats["published_bytes"] = self._codec.registry.published_bytes
            stats["scratch_bytes"] = self._codec.arena.allocated_bytes
            stats["shipped_bytes"] = self._codec.shipped_bytes
        return stats

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        atexit.unregister(self.close)
        for conn in self._conns:
            try:
                conn.send(None)
            except (OSError, ValueError):
                pass
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=1.0)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - defensive
                pass
        self._procs.clear()
        self._conns.clear()
        self._sent_uids.clear()
        if self._codec is not None:
            # Workers unlink their own scratch arenas on a clean stop;
            # sweep them from here too in case one was terminated.
            worker_segments = self._codec.reader.segment_names()
            self._codec.close()
            for name in worker_segments:
                shm_mod._unlink_quietly(name)
            self._codec = None


class SubinterpreterBackend(EvalBackend):
    """Registration stub for a future PEP 734 per-interpreter-GIL pool."""

    name = "subinterpreter"
    boundary = "thread"

    def __init__(self, workers: int) -> None:  # pragma: no cover - trivial
        raise BackendUnavailableError(
            "the subinterpreter backend is a registration stub; use "
            "'inline', 'thread', or 'process'"
        )


# ----------------------------------------------------------------------
# Registry and resolution
# ----------------------------------------------------------------------
_BACKENDS: dict[str, Callable[[int], EvalBackend]] = {}


def register_backend(name: str, factory: Callable[[int], EvalBackend]) -> None:
    """Register (or replace) a backend factory under ``name``."""
    _BACKENDS[name] = factory


def available_backends() -> tuple[str, ...]:
    """Registered backend names, sorted (CLI ``--backend`` choices)."""
    return tuple(sorted(_BACKENDS))


register_backend("inline", InlineBackend)
register_backend("thread", ThreadBackend)
register_backend("process", ProcessBackend)
register_backend("subinterpreter", SubinterpreterBackend)


def resolve_backend_name(explicit: str | None = None) -> str:
    """Explicit argument > ``REPRO_EVAL_BACKEND`` > ``"thread"``."""
    name = explicit
    if name is None:
        name = os.environ.get(BACKEND_ENV, "").strip() or None
    if name is None:
        name = DEFAULT_BACKEND
    name = name.strip().lower()
    if name not in _BACKENDS:
        raise BackendUnavailableError(
            f"unknown evaluation backend {name!r} "
            f"(available: {', '.join(available_backends())})"
        )
    return name


def create_backend(name: str, workers: int) -> EvalBackend:
    """Instantiate the named backend (may raise ``BackendUnavailableError``)."""
    return _BACKENDS[resolve_backend_name(name)](workers)


__all__ = [
    "BACKEND_ENV",
    "DEFAULT_BACKEND",
    "PROCESS_MIN_SHIP_BYTES",
    "PROCESS_START_ENV",
    "THREAD_MIN_JOB_SECONDS",
    "EvalBackend",
    "InlineBackend",
    "ProcessBackend",
    "SubinterpreterBackend",
    "ThreadBackend",
    "available_backends",
    "create_backend",
    "register_backend",
    "resolve_backend_name",
]
