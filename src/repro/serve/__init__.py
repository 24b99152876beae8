"""Multi-tenant SQL serving over the simulated multi-core machine.

The paper studies adaptive parallelization under *concurrent workload*
("Queries in isolation... and in a concurrent workload", Sections 4-5);
this package turns the repo's engine into the thing being studied: a
long-running SQL service with tenants, SLO classes, weighted-fair
admission, and live Prometheus metrics.

Two front ends share one service core:

* :class:`ReproServer` -- the asyncio TCP/HTTP server behind
  ``repro serve`` (host time, real sockets, ``GET /metrics``).
* :class:`TenantLoadService` -- the same discipline driven by the
  discrete-event simulator (simulated time), which is what makes the
  load generator's SLO reports byte-reproducible.

Layering (pure core, I/O shell)::

    tenants ──> scheduler ──> service ──> report     (deterministic)
       │            │
    session ──> protocol ──> engine ──> server       (asyncio, host time)
                                 └──────> loadgen ───┘

Quick start::

    from repro.serve import preset, run_loadgen
    report = run_loadgen(preset("tiny"))
    print(report.format())

See ``docs/serving.md`` for the server protocol and operations guide.
"""

from .engine import EngineStats, ServeEngine, render_outputs
from .loadgen import (
    PRESETS,
    LoadgenSpec,
    TenantMix,
    build_service,
    chaos_plan,
    preset,
    run_loadgen,
)
from .protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    Request,
    Response,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
    error_response,
)
from .report import SCHEMA, ServeReport, TenantOutcome
from .scheduler import FairScheduler, TenantSchedStats
from .server import ReproServer
from .service import TenantLoad, TenantLoadService
from .session import Session, SessionStats
from .tenants import (
    BATCH,
    BUILTIN_CLASSES,
    INTERACTIVE,
    STANDARD,
    SloClass,
    TenantDirectory,
    TenantSpec,
    default_tenants,
    parse_tenants,
)

__all__ = [
    "BATCH",
    "BUILTIN_CLASSES",
    "INTERACTIVE",
    "MAX_LINE_BYTES",
    "PRESETS",
    "PROTOCOL_VERSION",
    "SCHEMA",
    "STANDARD",
    "EngineStats",
    "FairScheduler",
    "LoadgenSpec",
    "ReproServer",
    "Request",
    "Response",
    "ServeEngine",
    "ServeReport",
    "Session",
    "SessionStats",
    "SloClass",
    "TenantDirectory",
    "TenantLoad",
    "TenantLoadService",
    "TenantMix",
    "TenantOutcome",
    "TenantSchedStats",
    "TenantSpec",
    "build_service",
    "chaos_plan",
    "decode_request",
    "decode_response",
    "default_tenants",
    "encode_request",
    "encode_response",
    "error_response",
    "parse_tenants",
    "preset",
    "render_outputs",
    "run_loadgen",
]
