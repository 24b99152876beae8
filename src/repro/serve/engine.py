"""Execution engine behind the live server: one batching worker thread.

The asyncio server never touches the simulator directly.  Admitted
queries become :class:`concurrent.futures.Future` jobs on a queue; a
single background thread drains the queue in micro-batches and runs
each batch on a **fresh** :class:`~repro.engine.Simulator` that shares
one :class:`~repro.engine.EvalPool` across batches.  Queries that
arrive together therefore contend for the same simulated machine --
the multi-core interference the paper studies emerges per batch --
while the plan cache lets a repeated statement skip parsing and
planning.

The engine keeps no memo of intermediates.  On the unique-literal
traffic the server is measured with, a shared memo held about 250 MiB
of intermediates that were almost never read again; simulated results
do not depend on it either way.

An exception that is not a :class:`~repro.errors.ReproError`, from
planning or from the simulator, answers its statements with a chained
``ServeError("internal error: ...")`` and the thread keeps serving.
Should the thread end anyway (a ``BaseException`` raised in it), it
first answers every job it holds or has queued with a ``ServeError``,
and the engine refuses new statements from then on.  A job whose
future was cancelled before the thread took it is dropped unanswered,
as a :class:`concurrent.futures.Executor` drops it.

``canonical=True`` requests are executed solo with a fresh
:class:`~repro.observe.Observer`, so the canonical observation bytes
depend only on (plan, config): identical for every backend and worker
count.  The integration suite uses this as its cross-backend oracle.

``close()`` is graceful by construction: a sentinel is enqueued behind
every accepted job, the thread finishes everything in front of it, and
only then is the evaluation pool closed -- no orphaned workers, no
abandoned futures.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from ..config import SimulationConfig
from ..engine import EvalPool, Simulator
from ..errors import ReproError, ServeError
from ..observe import Observer
from ..plan import Plan
from ..sql import PlanCache
from ..storage import BAT, Candidates, ColumnSlice, Scalar, Table
from ..storage.catalog import Catalog

__all__ = ["EngineStats", "ServeEngine", "render_outputs"]

#: Upper bound on one micro-batch (queries per simulator instance).
MAX_BATCH = 64

_STOP = object()


def _py(value) -> object:
    """Numpy scalar -> native Python for JSON transport."""
    if isinstance(value, np.generic):
        return value.item()
    return value


def render_outputs(outputs: list, *, limit: int = 8) -> list[dict]:
    """JSON-safe projection of engine outputs, truncated to ``limit``.

    Every intermediate kind renders with its total length ``n`` plus at
    most ``limit`` leading values, so responses stay bounded no matter
    how large the result is.  String BAT tails are decoded through
    their dictionary.
    """
    rendered: list[dict] = []
    for out in outputs:
        if isinstance(out, Scalar):
            rendered.append({"kind": "scalar", "value": _py(out.value)})
        elif isinstance(out, BAT):
            pairs = []
            for h, t in zip(out.head[:limit], out.tail[:limit]):
                tail = _py(t)
                if out.dictionary is not None:
                    tail = out.dictionary[int(t)]
                pairs.append([_py(h), tail])
            rendered.append({"kind": "bat", "n": len(out), "pairs": pairs})
        elif isinstance(out, Candidates):
            rendered.append(
                {
                    "kind": "candidates",
                    "n": len(out),
                    "oids": [_py(o) for o in out.oids[:limit]],
                }
            )
        elif isinstance(out, ColumnSlice):
            values = out.values[:limit]
            if out.column.dictionary is not None:
                values = [out.column.dictionary[int(v)] for v in values]
            else:
                values = [_py(v) for v in values]
            rendered.append({"kind": "column", "n": len(out), "values": values})
        else:  # pragma: no cover - future intermediate kinds
            rendered.append({"kind": type(out).__name__.lower(), "n": len(out)})
    return rendered


@dataclass
class EngineStats:
    """Host-side counters of the engine thread (monotone, approximate)."""

    batches: int = 0
    queries: int = 0
    failures: int = 0
    max_batch: int = 0

    def as_dict(self) -> dict:
        return {
            "batches": self.batches,
            "queries": self.queries,
            "failures": self.failures,
            "max_batch": self.max_batch,
        }


def _typed(exc: Exception) -> ReproError:
    """``exc`` when it is a :class:`ReproError`, else a chained
    ``ServeError`` that the protocol layers answer as internal."""
    if isinstance(exc, ReproError):
        return exc
    error = ServeError(f"internal error: {type(exc).__name__}: {exc}")
    error.__cause__ = exc
    return error


class _Job:
    __slots__ = (
        "sql",
        "limit",
        "canonical",
        "max_threads",
        "client",
        "future",
        "outcome",
    )

    def __init__(self, sql, limit, canonical, max_threads, client):
        self.sql = sql
        self.limit = limit
        self.canonical = canonical
        self.max_threads = max_threads
        self.client = client
        self.future: Future = Future()
        #: The payload dict or the exception, settled into ``future``
        #: once every payload of the same run is complete.
        self.outcome: dict | ReproError | None = None


class ServeEngine:
    """SQL text in, result payload futures out; one worker thread.

    ``workers``/``backend`` configure the shared :class:`EvalPool`
    (``workers=1`` or ``None`` runs inline), as for
    :func:`repro.engine.execute`.  ``start()`` and ``close()`` are
    idempotent.
    """

    def __init__(
        self,
        config: SimulationConfig,
        catalog: Catalog | dict[str, Table],
        *,
        workers: int | None = None,
        backend: str | None = None,
        max_batch: int = MAX_BATCH,
    ) -> None:
        if max_batch < 1:
            raise ServeError(f"max_batch must be >= 1, got {max_batch}")
        self.config = config
        self.plans = PlanCache(catalog)
        self.stats = EngineStats()
        self._workers = workers
        self._backend = backend
        self._max_batch = max_batch
        self._pool: EvalPool | None = None
        self._queue: queue.Queue = queue.Queue()
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()
        self._closed = False
        #: Set by the worker thread as it ends; refuses new statements.
        self._stopped = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()

    def start(self) -> "ServeEngine":
        """Start the worker thread (no-op when already running)."""
        with self._lock:
            if self._closed:
                raise ServeError("engine is closed")
            if self._thread is None:
                if (self._workers or 1) > 1 or self._backend is not None:
                    self._pool = EvalPool(
                        self._workers or 1, backend=self._backend
                    )
                self._thread = threading.Thread(
                    target=self._run, name="repro-serve-engine", daemon=True
                )
                self._thread.start()
        return self

    def close(self) -> None:
        """Drain every accepted job, stop the thread, close the pool.

        Idempotent; jobs submitted after close are refused with
        :class:`ServeError`.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            thread = self._thread
            self._queue.put(_STOP)
        if thread is not None:
            thread.join()
        if self._pool is not None:
            self._pool.close()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit_sql(
        self,
        sql: str,
        *,
        limit: int = 8,
        canonical: bool = False,
        max_threads: int | None = None,
        client: str = "client",
    ) -> Future:
        """Queue one statement; the future resolves to a payload dict.

        Payload keys: ``rows`` (see :func:`render_outputs`),
        ``simulated_ms`` (response time on the simulated machine),
        ``batch`` (co-scheduled query count), ``host_batch_ms`` (host
        time from the start of the batch until the answer was ready),
        and for canonical requests ``canonical`` (the byte-stable
        observation JSON).  Planning and execution errors resolve the
        future exceptionally, always with a
        :class:`~repro.errors.ReproError`
        (:class:`~repro.errors.SqlError` subclasses for bad SQL).
        """
        job = _Job(sql, limit, canonical, max_threads, client)
        # Check-and-enqueue under the lock: a job admitted here is
        # strictly in front of any close() sentinel, so every returned
        # future is guaranteed to settle.
        with self._lock:
            if self._closed:
                raise ServeError("engine is closed")
            if self._thread is None:
                raise ServeError("engine not started (call start() first)")
            if self._stopped:
                raise ServeError("engine thread has stopped")
            self._queue.put(job)
        return job.future

    # ------------------------------------------------------------------
    # worker thread
    # ------------------------------------------------------------------
    def _run(self) -> None:
        # A job is taken by marking its future running; one cancelled
        # while queued is dropped (the concurrent.futures protocol).
        batch: list[_Job] = []
        try:
            while True:
                job = self._queue.get()
                if job is _STOP:
                    return
                batch = [job] if job.future.set_running_or_notify_cancel() else []
                stop = False
                while len(batch) < self._max_batch:
                    try:
                        nxt = self._queue.get_nowait()
                    except queue.Empty:
                        break
                    if nxt is _STOP:
                        stop = True
                        break
                    if nxt.future.set_running_or_notify_cancel():
                        batch.append(nxt)
                if batch:
                    self._execute_batch(batch)
                if stop:
                    return
        finally:
            # However the thread ends, no accepted job stays unanswered.
            with self._lock:
                self._stopped = True
            leftovers = [job for job in batch if not job.future.done()]
            while True:
                try:
                    nxt = self._queue.get_nowait()
                except queue.Empty:
                    break
                if nxt is not _STOP and nxt.future.set_running_or_notify_cancel():
                    leftovers.append(nxt)
            for job in leftovers:
                job.future.set_exception(ServeError("engine thread has stopped"))

    def _execute_batch(self, batch: list[_Job]) -> None:
        t0 = time.perf_counter()
        with self._lock:
            self.stats.batches += 1
            self.stats.queries += len(batch)
            self.stats.max_batch = max(self.stats.max_batch, len(batch))
        plain = [j for j in batch if not j.canonical]
        if plain:
            self._settle(plain, t0, partial(self._execute_plain, plain))
        for job in batch:
            if job.canonical:
                self._settle([job], t0, partial(self._execute_canonical, job))

    def _settle(
        self, jobs: list[_Job], t0: float, run: Callable[[], None]
    ) -> None:
        """``run()`` the jobs, then resolve their futures.

        Every payload is stamped before the first future resolves: the
        server may encode a resolved payload at once.
        """
        try:
            run()
        except Exception as exc:  # engine bug: answer the jobs, keep serving
            for job in jobs:
                if job.outcome is None:
                    self._fail(job, exc)
        host_ms = round((time.perf_counter() - t0) * 1e3, 3)
        for job in jobs:
            if isinstance(job.outcome, dict):
                job.outcome["host_batch_ms"] = host_ms
        for job in jobs:
            if isinstance(job.outcome, dict):
                job.future.set_result(job.outcome)
            else:
                job.future.set_exception(job.outcome)

    def _fail(self, job: _Job, exc: Exception) -> None:
        with self._lock:
            self.stats.failures += 1
        job.outcome = _typed(exc)

    def _template(self, job: _Job) -> Plan | None:
        """The job's plan template, or None once the job has failed."""
        try:
            return self.plans.template(job.sql)
        except Exception as exc:  # a hostile statement fails alone
            self._fail(job, exc)
            return None

    def _execute_plain(self, jobs: list[_Job]) -> None:
        sim = Simulator(self.config, evalpool=self._pool)
        failures: dict[int, Exception] = {}
        submitted: list[tuple[_Job, int]] = []
        for job in jobs:
            plan = self._template(job)
            if plan is None:
                continue
            sid = sim.submit(
                plan,
                client=job.client,
                max_threads=job.max_threads,
                on_failure=lambda s, err, _f=failures: _f.__setitem__(s, err),
            )
            submitted.append((job, sid))
        if not submitted:
            return
        try:
            sim.run()
        except Exception as exc:  # engine bug: fail the whole batch
            for job, _sid in submitted:
                self._fail(job, exc)
            return
        for job, sid in submitted:
            if sid in failures:
                self._fail(job, failures[sid])
                continue
            result = sim.result(sid)
            job.outcome = {
                "rows": render_outputs(result.outputs, limit=job.limit),
                "simulated_ms": round(result.response_time * 1e3, 6),
                "batch": len(submitted),
            }

    def _execute_canonical(self, job: _Job) -> None:
        # Solo run, fresh observer: canonical bytes depend on (plan,
        # config) only -- backend- and history-invariant.
        plan = self._template(job)
        if plan is None:
            return
        obs = Observer()
        sim = Simulator(self.config, evalpool=self._pool, observe=obs)
        sid = sim.submit(plan, client="canonical", max_threads=job.max_threads)
        try:
            sim.run()
            result = sim.result(sid)
        except Exception as exc:
            self._fail(job, exc)
            return
        obs.finish()
        job.outcome = {
            "rows": render_outputs(result.outputs, limit=job.limit),
            "simulated_ms": round(result.response_time * 1e3, 6),
            "batch": 1,
            "canonical": obs.canonical_json(),
        }
