"""Exporters: JSONL event log, Chrome ``trace_event``, Prometheus text.

Three serializations of one observation:

* :func:`to_jsonl` -- one JSON object per span per line, in span-id
  (creation) order; the grep-able archival format.
* :func:`to_chrome_trace` -- the Trace Event Format understood by
  ``chrome://tracing`` and `Perfetto <https://ui.perfetto.dev>`_.
  Simulated **sockets become processes** and **hardware threads become
  threads**, so the UI renders the paper's tomograph (Figures 19/20)
  natively: one lane per hardware thread, one box per operator task.
  Driver-level spans (adaptive runs, submissions, dispatch markers)
  land in a separate ``driver`` process, pid 0.
* :func:`to_prometheus` -- text exposition of the metrics registry.

Simulated seconds are mapped to trace microseconds (the trace-event
``ts`` unit).
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from .metrics import MetricsRegistry
from .spans import Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from . import Observer

#: pid of the driver-level (non-task) span track in Chrome traces.
DRIVER_PID = 0

#: MIME type of the Prometheus text exposition format we emit; HTTP
#: scrape endpoints (``repro serve``'s ``/metrics``) must answer with
#: exactly this so Prometheus parses the payload as version 0.0.4.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def scrape(source: "Observer | MetricsRegistry", *, host: bool = True) -> tuple[str, str]:
    """One Prometheus scrape: ``(content_type, exposition_text)``.

    The single call an HTTP ``/metrics`` handler needs -- pairing the
    text with the content type it must be served under.
    """
    return PROMETHEUS_CONTENT_TYPE, to_prometheus(source, host=host)


def _tracer_of(source: "Observer | Tracer") -> Tracer:
    tracer = getattr(source, "tracer", source)
    if not isinstance(tracer, Tracer):
        raise TypeError(f"expected an Observer or Tracer, got {type(source).__name__}")
    return tracer


def to_jsonl(source: "Observer | Tracer", *, host: bool = True) -> str:
    """One span per line, creation order; ``host=False`` strips host fields."""
    tracer = _tracer_of(source)
    tracer.finish()
    lines = [
        json.dumps(span.as_dict(host=host), sort_keys=True) for span in tracer.spans
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def to_chrome_trace(source: "Observer | Tracer", *, trace_name: str = "repro") -> str:
    """Serialize the span tree to Trace Event Format JSON.

    Open spans are skipped (an exported trace is always well-formed);
    zero-duration spans become instant markers so Perfetto still shows
    them.
    """
    tracer = _tracer_of(source)
    tracer.finish()
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": DRIVER_PID,
            "args": {"name": f"{trace_name} driver"},
        }
    ]
    seen_sockets: set[int] = set()
    for span in tracer.spans:
        if span.t1 is None:
            continue
        attrs = span.attrs
        if span.kind == "task" and "thread" in attrs:
            pid = int(attrs.get("socket", 0)) + 1
            tid = int(attrs["thread"])
            if pid not in seen_sockets:
                seen_sockets.add(pid)
                events.append(
                    {
                        "name": "process_name",
                        "ph": "M",
                        "pid": pid,
                        "args": {"name": f"socket {pid - 1}"},
                    }
                )
        else:
            pid = DRIVER_PID
            tid = 0
        ts = span.t0 * 1e6
        dur = (span.t1 - span.t0) * 1e6
        event = {
            "name": span.name,
            "cat": span.kind,
            "pid": pid,
            "tid": tid,
            "ts": ts,
            "args": dict(attrs, span_id=span.span_id),
        }
        if dur > 0.0:
            event["ph"] = "X"
            event["dur"] = dur
        else:
            event["ph"] = "i"
            event["s"] = "t"  # thread-scoped instant
        events.append(event)
    return json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})


def to_prometheus(source: "Observer | MetricsRegistry", *, host: bool = True) -> str:
    """Prometheus text exposition of the registry's current values."""
    registry = getattr(source, "metrics", source)
    if not isinstance(registry, MetricsRegistry):
        raise TypeError(
            f"expected an Observer or MetricsRegistry, got {type(source).__name__}"
        )
    return registry.to_prometheus(host=host)
