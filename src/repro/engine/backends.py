"""Where the host evaluation pool runs a batch of operator kernels.

The :class:`~repro.engine.evalpool.EvalPool` decides *what* to evaluate
(batches of independent, certified-pure operator kernels) and keeps the
determinism contract; the backend name decides *where* the numpy work
runs:

``inline``
    A plain loop on the calling thread, which ``EvalPool.run_batch``
    runs itself.  Zero overhead, zero parallelism; the reference
    everything else must be bit-identical to.
``thread``
    :class:`ThreadBackend`, a persistent ``ThreadPoolExecutor``.  Cheap
    dispatch, shared address space -- but numpy kernels at this dataset
    scale mostly hold the GIL, so threads buy little wall-clock.  A
    batch whose operators all evaluated faster than
    :data:`THREAD_MIN_JOB_SECONDS` last time stays on the calling
    thread.  The default: it is safe everywhere.

There is no process backend: ``docs/perf.md`` ("Why there is no process
backend") records the measurements that retired it.

Selection: ``EvalPool(backend=...)`` > the ``REPRO_EVAL_BACKEND``
environment variable > ``"thread"``.  Any name outside :data:`BACKENDS`
raises :class:`~repro.errors.BackendUnavailableError`.

The thread backend returns results **in submission order** and the
pre-settled job thunks turn kernel exceptions into
:class:`~repro.engine.evalpool.EvalFailure` values exactly like the
inline path, so the scheduler's dispatch-order commit barrier sees the
same result list no matter which backend -- or how many workers --
produced it.
"""

from __future__ import annotations

import os
import weakref
from concurrent.futures import ThreadPoolExecutor
from math import inf
from time import perf_counter
from typing import Any, Callable, Sequence

from ..errors import BackendUnavailableError

#: Environment variable consulted when no explicit backend is passed.
BACKEND_ENV = "REPRO_EVAL_BACKEND"

#: The evaluation backends, in the order the CLI lists them.
BACKENDS = ("inline", "thread")

#: The default backend when neither argument nor environment chooses.
DEFAULT_BACKEND = "thread"

#: An operator batch runs on the calling thread under the thread backend
#: when every operator in it took less host time than this at its last
#: evaluation (wherever that ran); otherwise the whole batch goes to the
#: pool.  Two pool threads running such small numpy kernels mostly pass
#: the GIL back and forth, so handing them over costs more than it saves.
#: Operators never timed always go to the pool.
THREAD_MIN_JOB_SECONDS = 1e-3

#: A job as the scheduler sees it: a pre-settled thunk.
Job = Callable[[], Any]


def _timed(job: Job) -> tuple[Any, float]:
    """Run ``job``; its result and the host seconds it took."""
    start = perf_counter()
    result = job()
    return result, perf_counter() - start


class ThreadBackend:
    """A persistent ``ThreadPoolExecutor`` behind the evaluation pool.

    Every operator job is timed where it runs, and the operator's last
    host time decides where its next batch runs: a batch of operators
    all timed under :data:`THREAD_MIN_JOB_SECONDS` runs on the calling
    thread, any other batch -- in particular one holding an operator
    not timed yet -- goes to the pool whole.  A one-shot execution
    therefore ships every batch; the adaptive loop, which re-runs the
    same operators, keeps its cheap kernels local.  Where a job runs
    never changes its result, so the choice may depend on host timing.
    """

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self._executor: ThreadPoolExecutor | None = None
        #: Host seconds of each operator's last evaluation.
        self._seconds: weakref.WeakKeyDictionary[Any, float] = (
            weakref.WeakKeyDictionary()
        )
        self.shipped_jobs = 0

    def run(self, jobs: Sequence[Job], ops: Sequence[Any] | None = None) -> list[Any]:
        """Evaluate every job; results in submission order."""
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
        """Numeric counters merged into the pool stats."""
        return {"shipped_jobs": self.shipped_jobs}

    def close(self) -> None:
        """Join the pool threads (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ThreadBackend(workers={self.workers})"


def resolve_backend_name(explicit: str | None = None) -> str:
    """Explicit argument > ``REPRO_EVAL_BACKEND`` > ``"thread"``."""
    name = explicit
    if name is None:
        name = os.environ.get(BACKEND_ENV, "").strip() or None
    if name is None:
        name = DEFAULT_BACKEND
    name = name.strip().lower()
    if name not in BACKENDS:
        raise BackendUnavailableError(
            f"unknown evaluation backend {name!r} "
            f"(available: {', '.join(BACKENDS)})"
        )
    return name


__all__ = [
    "BACKENDS",
    "BACKEND_ENV",
    "DEFAULT_BACKEND",
    "THREAD_MIN_JOB_SECONDS",
    "ThreadBackend",
    "resolve_backend_name",
]
