"""Outside-in layer tracing for the end-to-end benchmark.

:func:`install` replaces public entry points of the ``repro`` layers with
wrappers that record one span per call.  Each name is patched where its
caller looks it up (``repro.engine.scheduler.compute_work``, not
``repro.costmodel.model.compute_work``), so nothing under ``src/``
changes and an untraced run executes exactly the shipped code.

A span records its name, start, end, parent span and request id.
Parent stacks are per thread: evaluation-pool threads run operator
kernels off the main thread, so a span that opens on an empty stack
takes the innermost open ``EvalPool.run_batch`` span as its parent.
Spans stay in per-thread buffers until :meth:`Tracer.spans` collects
them at the end of the run.

:func:`attribute` turns a span forest into wall-clock self times that
add up exactly to the duration of the root spans, even when the
children of one span overlap in time on pool threads (see its
docstring).  :func:`layer_metrics` folds those self times and the
harvested ``stats()`` counters into the per-layer metric names that
``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterable, NamedTuple

#: Request id of spans recorded outside any request.
NO_REQUEST = -(2**62)

#: Prefix of the root spans that delimit measured work; everything a
#: root covers and no layer span claims is reported as unattributed.
ROOT_PREFIX = "bench."

LAYERS = ("workloads", "engine", "costmodel", "plan", "core", "operators",
          "memo", "evalpool", "sql", "serve")


class Span(NamedTuple):
    """One closed span (times are ``perf_counter`` seconds)."""

    id: int
    name: str
    start: float
    end: float
    parent: int
    request: int
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class _ThreadBuffer:
    """Open-span stack plus closed-span columns of one thread."""

    __slots__ = ("thread", "stack", "ids", "names", "starts", "ends",
                 "parents", "requests")

    def __init__(self, thread: int) -> None:
        self.thread = thread
        self.stack: list[int] = []
        self.ids = array("q")
        self.names = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.requests = array("q")


class Tracer:
    """Span recorder shared by every wrapper of one process."""

    def __init__(self) -> None:
        # Ids embed the pid so spans of the client and the server
        # process of one run can be merged without renumbering.
        self._ids = itertools.count(os.getpid() * 1_000_000_000 + 1)
        self._local = threading.local()
        self._buffers: list[_ThreadBuffer] = []
        self._lock = threading.Lock()
        self._names: list[str] = []
        self._name_index: dict[str, int] = {}
        #: Request id stamped on every span that opens from now on.
        self.request = NO_REQUEST
        #: Open ``EvalPool.run_batch`` span: parent of pool-thread spans.
        self.cross_parent = 0
        #: Objects whose ``stats()`` are folded in by :meth:`harvest`.
        self._registered: dict[str, dict[int, object]] = defaultdict(dict)
        #: Counters accumulated from harvested ``stats()``.
        self.counts: dict[str, float] = defaultdict(float)

    # -- recording -----------------------------------------------------
    def name_id(self, name: str) -> int:
        with self._lock:
            index = self._name_index.get(name)
            if index is None:
                index = self._name_index[name] = len(self._names)
                self._names.append(name)
            return index

    def _buffer(self) -> _ThreadBuffer:
        buffer = getattr(self._local, "buffer", None)
        if buffer is None:
            buffer = self._local.buffer = _ThreadBuffer(threading.get_ident())
            with self._lock:
                self._buffers.append(buffer)
        return buffer

    def call(self, name_id: int, fn: Callable, args: tuple, kwargs: dict,
             *, cross: bool = False):
        """Run ``fn`` inside a span; ``cross`` makes it the pool parent."""
        buffer = self._buffer()
        stack = buffer.stack
        parent = stack[-1] if stack else self.cross_parent
        sid = next(self._ids)
        request = self.request
        stack.append(sid)
        if cross:
            previous, self.cross_parent = self.cross_parent, sid
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            if cross:
                self.cross_parent = previous
            stack.pop()
            buffer.ids.append(sid)
            buffer.names.append(name_id)
            buffer.starts.append(start)
            buffer.ends.append(end)
            buffer.parents.append(parent)
            buffer.requests.append(request)

    def record(self, name: str, start: float, end: float, request: int) -> None:
        """Record an already-timed root span (client-side requests)."""
        buffer = self._buffer()
        buffer.ids.append(next(self._ids))
        buffer.names.append(self.name_id(name))
        buffer.starts.append(start)
        buffer.ends.append(end)
        buffer.parents.append(0)
        buffer.requests.append(request)

    def spans(self) -> list[Span]:
        out: list[Span] = []
        with self._lock:
            buffers = list(self._buffers)
            names = list(self._names)
        for b in buffers:
            out.extend(
                Span(b.ids[i], names[b.names[i]], b.starts[i], b.ends[i],
                     b.parents[i], b.requests[i], b.thread)
                for i in range(len(b.ids))
            )
        return out

    # -- counters ------------------------------------------------------
    def register(self, kind: str, obj: object) -> None:
        self._registered[kind][id(obj)] = obj

    def harvest(self) -> None:
        """Fold the public ``stats()`` of registered objects into counts.

        Called at the end of every measured unit, so per-instance
        caches and pools are released once their counters are read.
        """
        counts = self.counts
        for obj in self._registered.pop("memo", {}).values():
            stats = obj.stats()
            counts["memo.hits"] += stats.hits
            counts["memo.misses"] += stats.misses
            counts["memo.evictions"] += stats.evictions
        for obj in self._registered.pop("evalpool", {}).values():
            stats = obj.stats()
            counts["evalpool.batches"] += stats.batches
            counts["evalpool.parallel_batches"] += stats.parallel_batches
            counts["evalpool.jobs"] += stats.jobs
            counts["evalpool.inline_jobs"] += stats.inline_jobs
        for obj in self._registered.pop("plan_cache", {}).values():
            stats = obj.stats()
            counts["sql.plan_cache_hits"] += stats["hits"]
            counts["sql.plan_cache_misses"] += stats["misses"]


# ----------------------------------------------------------------------
# installing wrappers
# ----------------------------------------------------------------------
def _wrap(tracer: Tracer, owner, attr: str, name: str, *, cross: bool = False) -> None:
    original = getattr(owner, attr)
    name_id = tracer.name_id(name)
    call = tracer.call

    @functools.wraps(original)
    def traced(*args, **kwargs):
        return call(name_id, original, args, kwargs, cross=cross)

    setattr(owner, attr, traced)


def _register_on_init(tracer: Tracer, cls, kind: str) -> None:
    original = cls.__init__

    @functools.wraps(original)
    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        tracer.register(kind, self)

    cls.__init__ = init


def _operator_classes() -> list[type]:
    import repro.operators  # noqa: F401 - defines the operator classes
    from repro.operators.base import Operator

    seen: list[type] = []
    pending = [Operator]
    while pending:
        for sub in pending.pop().__subclasses__():
            if sub not in seen:
                seen.append(sub)
                pending.append(sub)
    return seen


def install(tracer: Tracer, layers: Iterable[str] = LAYERS) -> None:
    """Patch the entry points of ``layers`` to record spans on ``tracer``."""
    layers = set(layers)
    unknown = layers - set(LAYERS)
    if unknown:
        raise ValueError(f"unknown layers {sorted(unknown)}")
    if "workloads" in layers:
        from repro.workloads import JoinMicroWorkload, TpchDataset

        for cls in (TpchDataset, JoinMicroWorkload):
            _wrap(tracer, cls, "__post_init__", "workloads.generate")
    if "engine" in layers:
        import repro.core.adaptive as adaptive
        from repro.engine.scheduler import Simulator

        _wrap(tracer, Simulator, "run", "engine.run")
        _wrap(tracer, Simulator, "submit", "engine.submit")
        _wrap(tracer, adaptive, "execute", "engine.execute")
    if "costmodel" in layers:
        import repro.engine.scheduler as scheduler

        _wrap(tracer, scheduler, "compute_work", "costmodel.compute_work")
    if "plan" in layers:
        import repro.core.mutation as mutation
        from repro.plan.graph import Plan, PlanNode

        _wrap(tracer, mutation, "analyze_plan", "plan.analysis")
        _wrap(tracer, Plan, "copy", "plan.copy")
        _wrap(tracer, Plan, "fingerprints", "plan.fingerprint")
        _wrap(tracer, PlanNode, "fingerprint", "plan.fingerprint")
    if "core" in layers:
        from repro.core.mutation import PlanMutator

        _wrap(tracer, PlanMutator, "mutate", "core.mutate")
    if "operators" in layers:
        for cls in _operator_classes():
            for method in ("evaluate", "work_profile"):
                if method in cls.__dict__:
                    _wrap(tracer, cls, method, f"op.{cls.__name__}.{method}")
    if "memo" in layers:
        from repro.engine.memo import IntermediateCache

        _register_on_init(tracer, IntermediateCache, "memo")
        for method in ("get", "peek", "put"):
            _wrap(tracer, IntermediateCache, method, "memo.access")
    if "evalpool" in layers:
        from repro.engine.evalpool import EvalPool

        _register_on_init(tracer, EvalPool, "evalpool")
        _wrap(tracer, EvalPool, "run_batch", "evalpool.run_batch", cross=True)
    if "sql" in layers:
        import repro.sql.planner as planner

        _register_on_init(tracer, planner.PlanCache, "plan_cache")
        _wrap(tracer, planner.PlanCache, "plan", "sql.plan_cache")
        _wrap(tracer, planner.PlanCache, "template", "sql.plan_cache")
        _wrap(tracer, planner.SqlPlanner, "plan", "sql.plan")
        _wrap(tracer, planner, "parse", "sql.parse")
    if "serve" in layers:
        import repro.serve.engine as serve_engine
        from repro.serve.scheduler import FairScheduler
        from repro.serve.server import ReproServer

        for method in ("offer", "next_ready", "release", "pump"):
            _wrap(tracer, FairScheduler, method, "serve.fair")
        _wrap(tracer, serve_engine, "render_outputs", "serve.render")
        execute_query = ReproServer.execute_query

        @functools.wraps(execute_query)
        async def traced_execute_query(self, tenant, request):
            # One statement per batch: every span until the response is
            # written belongs to this request.
            if isinstance(request.id, int):
                tracer.request = request.id
            return await execute_query(self, tenant, request)

        ReproServer.execute_query = traced_execute_query


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
def union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    covered = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def attribute(spans: list[Span]) -> dict[int, float]:
    """Wall-clock self time of every span reachable from a root.

    A span's self time is its duration minus the part of it its
    children cover.  Children of one span may overlap in time (kernels
    evaluated on two pool threads at once); their subtrees then share
    the covered wall time in proportion to their durations: each child
    subtree is scaled by ``covered / sum(child durations)``.  So the
    returned self times of a root's subtree add up exactly to the
    root's duration, and with children that do not overlap every scale
    is 1 and self time is the plain difference.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    ids = {span.id for span in spans}
    roots = []
    for span in spans:
        if span.parent and span.parent in ids:
            children[span.parent].append(span)
        else:
            roots.append(span)
    result: dict[int, float] = {}
    pending = [(root, 1.0) for root in roots]
    while pending:
        span, scale = pending.pop()
        kids = children.get(span.id, [])
        covered = union_length([(k.start, k.end) for k in kids], span.start, span.end)
        result[span.id] = scale * (span.duration - covered)
        total = sum(k.duration for k in kids)
        kid_scale = scale * covered / total if total > 0 else scale
        pending.extend((kid, kid_scale) for kid in kids)
    return result


def link_requests(spans: list[Span]) -> list[Span]:
    """Parent the top-level spans of another process to request roots.

    Server spans open on empty stacks; the one request in flight is the
    client's root span with the same request id, and both processes
    read the same monotonic clock.
    """
    roots = {s.request: s.id for s in spans if s.name.startswith(ROOT_PREFIX)}
    ids = {s.id for s in spans}
    linked = []
    for s in spans:
        if not s.name.startswith(ROOT_PREFIX) and s.parent not in ids and s.request in roots:
            s = s._replace(parent=roots[s.request])
        linked.append(s)
    return linked


def measured(spans: list[Span]) -> list[Span]:
    """The spans inside root spans (the measured work), roots included."""
    by_id = {s.id: s for s in spans}
    keep: dict[int, bool] = {}

    def inside(span: Span) -> bool:
        chain = []
        verdict = False
        while True:
            known = keep.get(span.id)
            if known is not None:
                verdict = known
                break
            chain.append(span.id)
            if span.name.startswith(ROOT_PREFIX):
                verdict = True
                break
            parent = by_id.get(span.parent)
            if parent is None:
                break
            span = parent
        for sid in chain:
            keep[sid] = verdict
        return verdict

    return [s for s in spans if inside(s)]


def self_times_by_name(spans: list[Span]) -> tuple[dict[str, float], dict[str, int], float]:
    """(self seconds per span name, calls per name, root seconds)."""
    inside = measured(spans)
    self_time = attribute(inside)
    seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for span in inside:
        seconds[span.name] += self_time[span.id]
        calls[span.name] += 1
    root_seconds = sum(s.duration for s in inside if s.name.startswith(ROOT_PREFIX))
    return seconds, calls, root_seconds


def _layer_of(name: str) -> str:
    return "operators" if name.startswith("op.") else name.split(".")[0]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    seconds: dict[str, float],
    calls: dict[str, int],
    counts: dict[str, float],
    *,
    units: int,
    overhead_ratio: float,
) -> dict[str, float]:
    """Per-layer metric values (the names ``BENCHMARK.json`` lists).

    ``seconds`` and ``calls`` come from :func:`self_times_by_name`.
    Seconds and counts are per measured unit (one adaptive instance, one
    load run, one round of statements), so runs that fit a different
    number of units into their time budget stay comparable.
    """
    seconds, calls = defaultdict(float, seconds), defaultdict(int, calls)
    c = defaultdict(float, counts)
    per_unit: dict[str, float] = {
        "engine.run_self_s": seconds["engine.run"],
        "engine.submit_s": seconds["engine.submit"],
        "engine.runs": calls["engine.run"],
        "plan.analysis_s": seconds["plan.analysis"],
        "plan.analysis_calls": calls["plan.analysis"],
        "plan.fingerprint_s": seconds["plan.fingerprint"],
        "plan.copy_s": seconds["plan.copy"],
        "plan.copy_calls": calls["plan.copy"],
        "core.mutate_self_s": seconds["core.mutate"],
        "core.mutations": c["core.mutations"],
        "core.rejections": c["core.rejections"],
        "core.runs": c["core.runs"],
        "memo.s": seconds["memo.access"],
        "memo.lookups": c["memo.hits"] + c["memo.misses"],
        "memo.evictions": c["memo.evictions"],
        "evalpool.self_s": seconds["evalpool.run_batch"],
        "evalpool.batches": c["evalpool.batches"],
        "costmodel.compute_work_s": seconds["costmodel.compute_work"],
        "costmodel.calls": calls["costmodel.compute_work"],
        "sql.parse_s": seconds["sql.parse"],
        "sql.plan_s": seconds["sql.plan"],
        "serve.fair_s": seconds["serve.fair"],
        "serve.render_s": seconds["serve.render"],
        "trace.unattributed_s": sum(
            v for k, v in seconds.items() if k.startswith(ROOT_PREFIX)
        ),
    }
    for name in seconds:
        if name.startswith("op."):
            per_unit[f"{name}_s"] = seconds[name]
            if name.endswith(".evaluate"):
                per_unit[f"{name[:-len('.evaluate')]}.calls"] = calls[name]
    m = {name: value / units for name, value in per_unit.items()}
    m.update({
        "memo.hit_ratio": _ratio(c["memo.hits"], c["memo.hits"] + c["memo.misses"]),
        "evalpool.parallel_ratio": _ratio(c["evalpool.parallel_batches"],
                                          c["evalpool.batches"]),
        "evalpool.inline_job_ratio": _ratio(c["evalpool.inline_jobs"], c["evalpool.jobs"]),
        "sql.plan_cache_hit_ratio": _ratio(
            c["sql.plan_cache_hits"], c["sql.plan_cache_hits"] + c["sql.plan_cache_misses"]
        ),
        "sql.repeat_share": c["sql.repeat_share"],
        "serve.stack_p50_ms": c["serve.stack_p50_ms"],
        "workloads.generate_s": c["workloads.generate_s"],
        "trace.overhead_ratio": overhead_ratio,
    })
    return m


def request_self_ms(spans: list[Span]) -> list[float]:
    """Per-request root self time in ms (time no layer span claims)."""
    inside = measured(spans)
    self_time = attribute(inside)
    return [self_time[s.id] * 1e3 for s in inside if s.name.startswith(ROOT_PREFIX)]


def layer_table(seconds: dict[str, float], calls: dict[str, int],
                root_seconds: float) -> str:
    """Self time per span name and per layer, as a fixed-width table."""
    total = root_seconds or 1.0
    lines = [f"traced end-to-end {root_seconds:.4f} s",
             f"{'span':<34} {'calls':>9} {'self_s':>10} {'share':>7}"]
    for name in sorted(seconds, key=lambda n: -seconds[n]):
        lines.append(f"{name:<34} {calls[name]:>9} {seconds[name]:>10.4f} "
                     f"{seconds[name] / total:>7.1%}")
    by_layer: dict[str, float] = defaultdict(float)
    for name, value in seconds.items():
        by_layer["unattributed" if name.startswith(ROOT_PREFIX) else _layer_of(name)] += value
    lines.append("")
    lines.append(f"{'layer':<34} {'':>9} {'self_s':>10} {'share':>7}")
    for layer in sorted(by_layer, key=lambda n: -by_layer[n]):
        lines.append(f"{layer:<34} {'':>9} {by_layer[layer]:>10.4f} "
                     f"{by_layer[layer] / total:>7.1%}")
    lines.append(f"{'sum':<34} {'':>9} {sum(by_layer.values()):>10.4f}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# span files
# ----------------------------------------------------------------------
def write_spans(spans: Iterable[Span], path: Path) -> None:
    """JSONL, one ``[id, name, start, end, parent, request, thread]`` per line."""
    with open(path, "w", encoding="utf-8") as out:
        for s in spans:
            out.write(f'[{s.id},"{s.name}",{s.start!r},{s.end!r},{s.parent},'
                      f'{s.request},{s.thread}]\n')


def read_spans(path: Path) -> list[Span]:
    with open(path, encoding="utf-8") as src:
        return [Span(*json.loads(line)) for line in src if line.strip()]
