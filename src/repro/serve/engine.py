"""Execution engine behind the live server: one batching worker thread.

The asyncio server never touches the simulator directly.  Admitted
queries become :class:`concurrent.futures.Future` jobs on a queue; a
single background thread drains the queue in micro-batches and runs
each batch on a **fresh** :class:`~repro.engine.Simulator` that shares
one :class:`~repro.engine.IntermediateCache` and one
:class:`~repro.engine.EvalPool` across batches.  Queries that arrive
together therefore contend for the same simulated machine -- the
multi-core interference the paper studies emerges per batch -- while
the plan cache and memo make repeated statements cheap on the host.

``canonical=True`` requests are executed solo with a fresh
:class:`~repro.observe.Observer` and *without* the memo, so the
canonical observation bytes depend only on (plan, config): identical
for every backend and worker count.  The integration suite uses this
as its cross-backend oracle.

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

import numpy as np

from ..config import SimulationConfig
from ..engine import EvalPool, IntermediateCache, Simulator
from ..errors import ReproError, ServeError
from ..observe import Observer
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


class _Job:
    __slots__ = ("sql", "limit", "canonical", "max_threads", "client", "future")

    def __init__(self, sql, limit, canonical, max_threads, client):
        self.sql = sql
        self.limit = limit
        self.canonical = canonical
        self.max_threads = max_threads
        self.client = client
        self.future: Future = Future()


class ServeEngine:
    """SQL text in, result payload futures out; one worker thread.

    Parameters mirror :func:`repro.engine.execute`: ``workers``/
    ``backend`` configure the shared :class:`EvalPool` (``workers=1``
    or ``None`` runs inline), ``memoize`` the shared intermediate
    cache.  ``start()`` and ``close()`` are idempotent.
    """

    def __init__(
        self,
        config: SimulationConfig,
        catalog: Catalog | dict[str, Table],
        *,
        workers: int | None = None,
        backend: str | None = None,
        memoize: bool = True,
        max_batch: int = MAX_BATCH,
    ) -> None:
        if max_batch < 1:
            raise ServeError(f"max_batch must be >= 1, got {max_batch}")
        self.config = config
        self.plans = PlanCache(catalog)
        self.stats = EngineStats()
        self._workers = workers
        self._backend = backend
        self._memo = IntermediateCache() if memoize else None
        self._max_batch = max_batch
        self._pool: EvalPool | None = None
        self._queue: queue.Queue = queue.Queue()
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()
        self._closed = False

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
        # Jobs that raced past the closed check after the sentinel.
        while True:
            try:
                job = self._queue.get_nowait()
            except queue.Empty:
                break
            if job is not _STOP:
                job.future.set_exception(ServeError("engine closed"))
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
        ``batch`` (co-scheduled query count), and for canonical
        requests ``canonical`` (the byte-stable observation JSON).
        Planning and execution errors resolve the future exceptionally
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
            self._queue.put(job)
        return job.future

    # ------------------------------------------------------------------
    # worker thread
    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            job = self._queue.get()
            if job is _STOP:
                return
            batch = [job]
            stop = False
            while len(batch) < self._max_batch:
                try:
                    nxt = self._queue.get_nowait()
                except queue.Empty:
                    break
                if nxt is _STOP:
                    stop = True
                    break
                batch.append(nxt)
            self._execute_batch(batch)
            if stop:
                return

    def _execute_batch(self, batch: list[_Job]) -> None:
        t0 = time.perf_counter()
        plain = [j for j in batch if not j.canonical]
        with self._lock:
            self.stats.batches += 1
            self.stats.queries += len(batch)
            self.stats.max_batch = max(self.stats.max_batch, len(batch))
        if plain:
            self._execute_plain(plain)
        for job in batch:
            if job.canonical:
                self._execute_canonical(job)
        host_ms = (time.perf_counter() - t0) * 1e3
        for job in batch:
            fut = job.future
            if fut.done() and fut.exception() is None:
                fut.result()["host_batch_ms"] = round(host_ms, 3)

    def _fail(self, job: _Job, exc: Exception) -> None:
        with self._lock:
            self.stats.failures += 1
        job.future.set_exception(exc)

    def _execute_plain(self, jobs: list[_Job]) -> None:
        sim = Simulator(self.config, memo=self._memo, evalpool=self._pool)
        failures: dict[int, Exception] = {}
        submitted: list[tuple[_Job, int]] = []
        for job in jobs:
            try:
                plan = self.plans.template(job.sql)
            except ReproError as exc:
                self._fail(job, exc)
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
                if not job.future.done():
                    self._fail(job, exc)
            return
        for job, sid in submitted:
            if sid in failures:
                self._fail(job, failures[sid])
                continue
            result = sim.result(sid)
            job.future.set_result(
                {
                    "rows": render_outputs(result.outputs, limit=job.limit),
                    "simulated_ms": round(result.response_time * 1e3, 6),
                    "batch": len(submitted),
                }
            )

    def _execute_canonical(self, job: _Job) -> None:
        # Solo run, fresh observer, no memo: canonical bytes depend on
        # (plan, config) only -- backend- and history-invariant.
        try:
            plan = self.plans.template(job.sql)
        except ReproError as exc:
            self._fail(job, exc)
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
        job.future.set_result(
            {
                "rows": render_outputs(result.outputs, limit=job.limit),
                "simulated_ms": round(result.response_time * 1e3, 6),
                "batch": 1,
                "canonical": obs.canonical_json(),
            }
        )
