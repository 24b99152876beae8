"""`repro serve`: the asyncio front end of the SQL service.

One TCP listener speaks two protocols, sniffed from the first line:

* **NDJSON sessions** (:mod:`repro.serve.protocol`): ``hello`` binds a
  tenant, ``query`` frames pass weighted-fair admission control
  (:class:`~repro.serve.scheduler.FairScheduler`) before executing on
  the shared :class:`~repro.serve.engine.ServeEngine`.
* **HTTP one-shots**: ``GET /metrics`` (Prometheus text 0.0.4, live
  during load runs), ``GET /healthz``, ``POST /query``.

The server binds ``port=0`` by default -- the kernel picks a free
port, reported via :attr:`ReproServer.port` -- so parallel test runs
never collide.  ``start()``/``stop()`` are idempotent; ``stop()``
drains in-flight queries (their responses are still written), refuses
new ones with a ``rejected`` error, and closes the engine's evaluation
pool without orphaning workers.

Live serving runs in *host* time: latencies observed through sockets
are not byte-reproducible.  The deterministic twin -- same scheduler,
same tenants, simulated time -- is
:class:`~repro.serve.service.TenantLoadService`.
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Any

from ..config import SimulationConfig
from ..errors import (
    AdmissionError,
    FramingError,
    ProtocolError,
    ReproError,
    ServeError,
    SqlError,
)
from ..observe import MetricsRegistry, scrape
from ..storage import Table
from ..storage.catalog import Catalog
from .engine import ServeEngine
from .protocol import (
    MAX_LINE_BYTES,
    HttpRequest,
    Request,
    Response,
    decode_query_body,
    decode_request,
    encode_response,
    error_response,
    http_response,
    is_http_preamble,
    parse_http_head,
)
from .scheduler import FairScheduler
from .session import Session
from .tenants import TenantDirectory, default_tenants

__all__ = ["ReproServer"]


class _LiveQuery:
    """One admitted query in flight on the event loop."""

    __slots__ = ("request", "future", "tenant")

    def __init__(self, request: Request, future: asyncio.Future, tenant: str):
        self.request = request
        self.future = future
        self.tenant = tenant


class ReproServer:
    """Asyncio TCP/HTTP server over one shared simulated machine."""

    def __init__(
        self,
        config: SimulationConfig,
        catalog: Catalog | dict[str, Table],
        *,
        tenants: TenantDirectory | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int | None = None,
        backend: str | None = None,
        max_in_flight: int | None = None,
        engine: ServeEngine | None = None,
    ) -> None:
        self.config = config
        self.directory = tenants if tenants is not None else default_tenants()
        self.engine = engine or ServeEngine(
            config, catalog, workers=workers, backend=backend
        )
        if max_in_flight is None:
            max_in_flight = 2 * config.machine.hardware_threads
        self.scheduler = FairScheduler(
            self.directory, max_in_flight=max_in_flight
        )
        self.metrics = MetricsRegistry()
        #: Guards the registry against the loadgen worker thread
        #: mutating it mid-scrape (see ``repro serve --loadgen``).
        self.metrics_lock = threading.Lock()
        self.host = host
        self.port = port
        self._requested_port = port
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stopping = False
        self._pending: set[asyncio.Future] = set()
        self._conn_tasks: set[asyncio.Task] = set()
        self._writers: set[asyncio.StreamWriter] = set()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def serving(self) -> bool:
        return self._server is not None and self._server.is_serving()

    async def start(self) -> "ReproServer":
        """Bind and listen (idempotent).  Resolves the actual port."""
        if self._server is not None:
            return self
        if self._stopping:
            raise ServeError("server was stopped; create a new one")
        self.engine.start()
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._on_connection,
            self.host,
            self._requested_port,
            limit=MAX_LINE_BYTES + 2,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self) -> None:
        """Graceful shutdown: drain in-flight queries, then close.

        Idempotent.  Order matters: (1) stop accepting connections and
        refuse new admissions, (2) wait for every admitted query's
        response to be written, (3) close the engine -- which drains
        its own queue and shuts the evaluation pool down -- and only
        then (4) tear down idle client connections.
        """
        if self._stopping:
            return
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._pending:
            await asyncio.gather(*tuple(self._pending), return_exceptions=True)
        # Let handlers waiting on those futures write their responses.
        for _ in range(3):
            await asyncio.sleep(0)
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.engine.close)
        for writer in tuple(self._writers):
            writer.close()
        for task in tuple(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*tuple(self._conn_tasks), return_exceptions=True)

    # ------------------------------------------------------------------
    # admission + execution (event-loop side)
    # ------------------------------------------------------------------
    def _counter(self, name: str, help: str, **labels: str):
        with self.metrics_lock:
            return self.metrics.counter(name, help, host=True, **labels)

    async def execute_query(
        self, tenant: str, request: Request
    ) -> dict[str, Any]:
        """Admit + execute one query; returns the payload dict.

        Raises :class:`AdmissionError` on queue-limit rejection or
        shutdown, :class:`~repro.errors.SqlError` for bad statements.
        """
        if self._stopping:
            raise AdmissionError("server is shutting down", tenant=tenant)
        spec = self.directory.get(tenant)
        assert self._loop is not None
        future: asyncio.Future = self._loop.create_future()
        work = _LiveQuery(request, future, spec.name)
        self._counter(
            "repro_serve_queries_total", "queries offered", tenant=spec.name
        ).inc()
        if not self.scheduler.offer(spec.name, work):
            self._counter(
                "repro_serve_rejected_total",
                "queries refused by admission control",
                tenant=spec.name,
            ).inc()
            raise AdmissionError(
                f"tenant {spec.name!r} queue is full "
                f"(limit {spec.queue_limit})",
                tenant=spec.name,
            )
        self._pump()
        self._pending.add(future)
        try:
            payload = await future
        finally:
            self._pending.discard(future)
        with self.metrics_lock:
            self.metrics.histogram(
                "repro_serve_latency_seconds",
                help="simulated query response time",
                host=True,
                tenant=spec.name,
            ).observe(payload["simulated_ms"] / 1e3)
        return payload

    def _pump(self) -> None:
        while (nxt := self.scheduler.next_ready()) is not None:
            spec, work = nxt
            try:
                cfut = self.engine.submit_sql(
                    work.request.sql or "",
                    limit=work.request.limit,
                    canonical=work.request.canonical,
                    max_threads=spec.max_threads,
                    client=spec.name,
                )
            except ServeError as exc:
                self.scheduler.release(spec.name, completed=False)
                if not work.future.done():
                    work.future.set_exception(exc)
                continue
            cfut.add_done_callback(
                lambda f, s=spec, w=work: self._loop.call_soon_threadsafe(
                    self._settle, s, w, f
                )
            )

    def _settle(self, spec, work: _LiveQuery, cfut) -> None:
        completed = cfut.exception() is None if not cfut.cancelled() else False
        self.scheduler.release(spec.name, completed=completed)
        if not work.future.done():
            if cfut.cancelled():
                work.future.set_exception(ServeError("query cancelled"))
            elif (exc := cfut.exception()) is not None:
                work.future.set_exception(exc)
            else:
                work.future.set_result(cfut.result())
        self._pump()

    def _note_delivered(self, tenant: str) -> None:
        """Count a result that reached its client as one completed query.

        Counted here, not when the engine finishes, so that a result
        answered with an error instead (a frame too large to send) is
        not counted.
        """
        self._counter(
            "repro_serve_completed_total", "queries completed", tenant=tenant
        ).inc()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        self._writers.add(writer)
        try:
            try:
                first = await reader.readline()
            except (ValueError, ConnectionError):
                return
            if not first:
                return
            if is_http_preamble(first):
                await self._serve_http(first, reader, writer)
            else:
                await self._serve_session(first, reader, writer)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    # --------------------------- NDJSON ------------------------------
    async def _serve_session(
        self,
        first: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        session = Session(self.directory)
        line = first
        while line:
            try:
                request = decode_request(line)
            except FramingError as exc:
                writer.write(encode_response(error_response("protocol", str(exc))))
                await writer.drain()
                return
            except ProtocolError as exc:
                writer.write(encode_response(error_response("protocol", str(exc))))
                await writer.drain()
                line = await self._readline(reader)
                continue
            response = session.handle(request)
            if response is None:
                frame = await self._run_admitted(session, request)
            else:
                frame = encode_response(response)
            writer.write(frame)
            await writer.drain()
            if session.closed:
                return
            line = await self._readline(reader)

    @staticmethod
    async def _readline(reader: asyncio.StreamReader) -> bytes:
        try:
            return await reader.readline()
        except ValueError:
            # Stream limit exceeded: unframeable, drop the connection.
            return b""
        except ConnectionError:
            return b""

    async def _run_admitted(self, session: Session, request: Request) -> bytes:
        """Execute an admitted query; the encoded frame that answers it."""
        assert session.tenant is not None
        try:
            payload = await self.execute_query(session.tenant.name, request)
        except AdmissionError as exc:
            session.note_result(ok=False, rejected=True)
            return encode_response(error_response("rejected", str(exc), id=request.id))
        except SqlError as exc:
            session.note_result(ok=False)
            return encode_response(error_response("sql", str(exc), id=request.id))
        except ReproError as exc:
            session.note_result(ok=False)
            return encode_response(error_response("internal", str(exc), id=request.id))
        try:
            frame = encode_response(
                Response(type="result", id=request.id, body=payload)
            )
        except ProtocolError as exc:
            # A result too large for one line: say so, keep the session.
            session.note_result(ok=False)
            return encode_response(
                error_response(
                    "protocol", f"{exc}; ask for a smaller limit", id=request.id
                )
            )
        session.note_result(ok=True)
        self._note_delivered(session.tenant.name)
        return frame

    # ---------------------------- HTTP -------------------------------
    async def _serve_http(
        self,
        first: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        head = bytearray(first)
        while True:
            try:
                line = await reader.readline()
            except ValueError:  # one header line past the stream limit
                line = None
            if line is None or len(head) + len(line) > MAX_LINE_BYTES:
                writer.write(
                    http_response(400, "HTTP head exceeds MAX_LINE_BYTES\n")
                )
                await writer.drain()
                return
            head += line
            if line in (b"\r\n", b"\n", b""):
                break
        try:
            http = parse_http_head(bytes(head))
        except ProtocolError as exc:
            writer.write(http_response(400, f"{exc}\n"))
            await writer.drain()
            return
        length = int(http.headers.get("content-length", "0"))
        try:
            body = await reader.readexactly(length) if length else b""
        except asyncio.IncompleteReadError:
            return  # the client hung up before its whole body arrived
        http = HttpRequest(http.method, http.path, http.headers, body)
        writer.write(await self._dispatch_http(http))
        await writer.drain()

    async def _dispatch_http(self, http: HttpRequest) -> bytes:
        path = http.path.split("?", 1)[0]
        if path == "/metrics":
            if http.method != "GET":
                return http_response(405, "metrics is GET-only\n")
            with self.metrics_lock:
                content_type, text = scrape(self.metrics)
            return http_response(200, text, content_type=content_type)
        if path == "/healthz":
            if http.method != "GET":
                return http_response(405, "healthz is GET-only\n")
            doc = {
                "ok": True,
                "status": "stopping" if self._stopping else "serving",
                "port": self.port,
                "tenants": [spec.name for spec in self.directory],
                "in_flight": self.scheduler.in_flight,
            }
            return http_response(
                200, json.dumps(doc) + "\n", content_type="application/json"
            )
        if path == "/query":
            if http.method != "POST":
                return http_response(405, "query is POST-only\n")
            return await self._http_query(http.body)
        return http_response(404, f"unknown path {path!r}\n")

    async def _http_query(self, body: bytes) -> bytes:
        try:
            request = decode_query_body(body)
        except ProtocolError as exc:
            return http_response(400, f"bad request body: {exc}\n")
        try:
            # An unknown tenant is the client's mistake, as in ``hello``.
            tenant = self.directory.get(request.tenant or self.directory.default.name)
        except ServeError as exc:
            return http_response(400, f"{exc}\n")
        try:
            payload = await self.execute_query(tenant.name, request)
        except AdmissionError as exc:
            return http_response(429, f"{exc}\n")
        except SqlError as exc:
            return http_response(400, f"{exc}\n")
        except ReproError as exc:
            return http_response(500, f"{exc}\n")
        self._note_delivered(tenant.name)
        return http_response(
            200,
            json.dumps({"ok": True, **payload}) + "\n",
            content_type="application/json",
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "serving" if self.serving else "stopped"
        return f"ReproServer({self.host}:{self.port}, {state})"
